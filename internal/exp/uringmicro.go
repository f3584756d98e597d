package exp

import (
	"fmt"
	"time"

	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// UringMicroPoint is one ring configuration of the raw-read
// microbenchmark: no sampling, no frontier building — just batched
// reads through the ring, so the fast-path knobs and submission depth
// are measured in isolation from the (CPU-bound) sampling work that
// dilutes them at the epoch level.
type UringMicroPoint struct {
	// Name is "<combo>/depth<D>"; Active reflects capability downgrades.
	// Depth is the reads staged per submission.
	Name   string     `json:"name"`
	Knobs  UringKnobs `json:"knobs"`
	Active string     `json:"active"`
	Depth  int        `json:"depth"`

	Reads           int     `json:"reads"`
	ReadBytes       int     `json:"read_bytes"`
	ReadsPerSec     float64 `json:"reads_per_sec"`
	EntriesPerSec   float64 `json:"entries_per_sec"`
	MBPerSec        float64 `json:"mb_per_sec"`
	SyscallsPerRead float64 `json:"syscalls_per_read"`
}

// UringMicroCombo is one rung of the microbenchmark ladder: a knob
// combination and the number of reads staged per submission — the
// paper's submission-batching depth, not a cap on the engine.
type UringMicroCombo struct {
	UringKnobs
	Depth int
}

// DefaultUringMicroCombos is the microbenchmark ladder: submission
// depth 1 (one syscall round-trip per read) up through deep batching,
// then the knob stack at full depth. Quick keeps the plain-vs-fixed
// pair at full depth.
func DefaultUringMicroCombos(quick bool) []UringMicroCombo {
	const full = 256
	if quick {
		return []UringMicroCombo{{Depth: full}, {UringKnobs{Fixed: true}, full}}
	}
	return []UringMicroCombo{
		{Depth: 1},
		{Depth: 64},
		{Depth: full},
		{UringKnobs{Fixed: true}, full},
		{UringKnobs{Fixed: true, RegFiles: true}, full},
		{UringKnobs{ODirect: true}, full},
		{UringKnobs{Fixed: true, ODirect: true}, full},
	}
}

// UringMicro measures raw batched-read throughput through the ring for
// each knob combination: totalReads reads of readBytes each from
// deterministic offsets in the dataset's edge file, staged
// combo.Depth-deep per submission (a non-positive Depth selects 256).
// Each combination runs reps times and reports its best repetition. Real-backend-only knobs are intersected
// with uring.Probe() (the Active field records what ran); pool/sim run
// their documented emulations. O_DIRECT combinations reopen the file
// with the probed alignment and align offsets and buffers accordingly.
func UringMicro(dir string, backend uring.Backend, combos []UringMicroCombo, readBytes, totalReads, reps int, seed uint64) ([]UringMicroPoint, error) {
	if readBytes <= 0 || totalReads <= 0 {
		return nil, fmt.Errorf("exp: uring micro needs positive read size and count")
	}
	if reps < 1 {
		reps = 1
	}
	caps := uring.Probe()
	if backend == uring.BackendIOURing && !caps.Ring {
		return nil, fmt.Errorf("exp: uring micro: io_uring unavailable (caps %s)", caps)
	}

	out := make([]UringMicroPoint, 0, len(combos))
	for _, c := range combos {
		k := c.UringKnobs
		depth := c.Depth
		if depth <= 0 {
			depth = 256
		}
		granted := k
		if backend == uring.BackendIOURing {
			granted.Fixed = k.Fixed && caps.ReadFixed
			granted.RegFiles = k.RegFiles && caps.RegisteredFiles
		} else {
			granted.RegFiles = false
		}

		ds, err := storage.OpenWith(dir, storage.OpenOptions{Direct: k.ODirect})
		if err != nil {
			return nil, fmt.Errorf("exp: uring micro open %s: %w", k.Name(), err)
		}
		align := ds.DirectAlign()
		size := ds.NumEdges() * storage.EntryBytes
		if int64(readBytes) > size {
			ds.Close()
			return nil, fmt.Errorf("exp: uring micro: read size %d exceeds edge file (%d bytes)", readBytes, size)
		}

		arena := storage.AlignedSlice(depth*readBytes, 4096)
		opts := uring.Options{
			Entries:      depth,
			RegisterFile: granted.RegFiles,
		}
		if granted.Fixed {
			opts.FixedBuffers = [][]byte{arena}
		}

		var best *UringMicroPoint
		for rep := 0; rep < reps; rep++ {
			r, err := uring.NewWith(backend, ds.File(), opts)
			if err != nil {
				ds.Close()
				return nil, fmt.Errorf("exp: uring micro %s: %w", k.Name(), err)
			}
			p, err := microRun(r, granted, depth, readBytes, totalReads, size, align, arena, seed)
			r.Close()
			if err != nil {
				ds.Close()
				return nil, fmt.Errorf("exp: uring micro %s: %w", k.Name(), err)
			}
			if best == nil || p.ReadsPerSec > best.ReadsPerSec {
				best = p
			}
		}
		ds.Close()

		best.Name = fmt.Sprintf("%s/depth%d", k.Name(), depth)
		best.Knobs = k
		granted.ODirect = align > 0
		best.Active = granted.Name()
		out = append(out, *best)
	}
	return out, nil
}

func microRun(r uring.Ring, k UringKnobs, depth, readBytes int, totalReads int, size int64, align int, arena []byte, seed uint64) (*UringMicroPoint, error) {
	rng := sample.NewRNG(sample.Mix(seed, 0x31f0))
	maxOff := size - int64(readBytes)
	if align > 0 {
		maxOff = storage.AlignDown(maxOff, align)
	}
	var sysBefore uring.Syscalls
	if sr, ok := r.(uring.SyscallReporter); ok {
		sysBefore = sr.Syscalls()
	}

	start := time.Now()
	done := 0
	issued := 0
	for done < totalReads {
		staged := 0
		for issued < totalReads && staged < depth {
			off := int64(rng.Uint64n(uint64(maxOff + 1)))
			if align > 0 {
				off = storage.AlignDown(off, align)
			}
			dst := arena[staged*readBytes : (staged+1)*readBytes]
			var ok bool
			if k.Fixed {
				ok = r.PrepReadFixed(uint64(staged), off, dst, 0)
			} else {
				ok = r.PrepRead(uint64(staged), off, dst)
			}
			if !ok {
				break
			}
			issued++
			staged++
		}
		if _, err := r.Submit(); err != nil {
			return nil, err
		}
		got := 0
		for got < staged {
			cqes, err := r.Wait(staged - got)
			if err != nil {
				return nil, err
			}
			for _, c := range cqes {
				if c.Res != int32(readBytes) {
					return nil, fmt.Errorf("read %d returned %d, want %d", c.ID, c.Res, readBytes)
				}
			}
			got += len(cqes)
		}
		done += staged
	}
	secs := time.Since(start).Seconds()
	if secs <= 0 {
		secs = 1e-9
	}

	p := &UringMicroPoint{
		Depth:         depth,
		Reads:         totalReads,
		ReadBytes:     readBytes,
		ReadsPerSec:   float64(totalReads) / secs,
		EntriesPerSec: float64(totalReads) * float64(readBytes/storage.EntryBytes) / secs,
		MBPerSec:      float64(totalReads) * float64(readBytes) / secs / (1 << 20),
	}
	if sr, ok := r.(uring.SyscallReporter); ok {
		after := sr.Syscalls()
		p.SyscallsPerRead = float64(after.Submits-sysBefore.Submits+after.Waits-sysBefore.Waits) / float64(totalReads)
	}
	return p, nil
}
