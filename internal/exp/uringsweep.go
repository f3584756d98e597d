package exp

import (
	"fmt"
	"strings"

	"ringsampler/internal/core"
	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// UringKnobs is one requested combination of the io_uring fast-path
// knobs for the ablation sweep. The zero value is the plain path.
type UringKnobs struct {
	Fixed    bool `json:"fixed"`
	RegFiles bool `json:"reg_files"`
	ODirect  bool `json:"odirect"`
}

// Name renders the combination compactly ("plain", "fixed+odirect",
// ...).
func (k UringKnobs) Name() string {
	var parts []string
	if k.Fixed {
		parts = append(parts, "fixed")
	}
	if k.RegFiles {
		parts = append(parts, "regfiles")
	}
	if k.ODirect {
		parts = append(parts, "odirect")
	}
	if len(parts) == 0 {
		return "plain"
	}
	return strings.Join(parts, "+")
}

// UringPoint is one knob combination of the ablation sweep.
type UringPoint struct {
	// Combo is the requested combination; Active is what actually ran
	// after capability downgrades (from the per-worker stats flags), so
	// the JSON is honest when a kernel grants less than was asked for.
	Combo  string     `json:"combo"`
	Knobs  UringKnobs `json:"knobs"`
	Active string     `json:"active"`

	EntriesPerSec float64 `json:"entries_per_sec"`
	BytesPerSec   float64 `json:"bytes_per_sec"`
	Batches       int     `json:"batches"`

	// SubmitSyscalls/WaitSyscalls are the merged ring kernel crossings;
	// SyscallsPerBatch is their sum divided by the batch count — the
	// paper's submission-batching metric.
	SubmitSyscalls   int64   `json:"submit_syscalls"`
	WaitSyscalls     int64   `json:"wait_syscalls"`
	SyscallsPerBatch float64 `json:"syscalls_per_batch"`

	// DeviceBytes is core.IOStats.DeviceBytes: what actually crossed
	// the storage boundary, including the bytes gather reads fetch
	// between picks and O_DIRECT alignment overhead.
	DeviceBytes int64 `json:"device_bytes"`
	FixedReads  int64 `json:"fixed_reads"`

	Digest uint64 `json:"digest"`
}

// DefaultUringCombos is the full knob-ablation ladder: each knob alone
// against plain, then the cumulative stack. Quick shrinks it to the
// plain-vs-fixed smoke pair.
func DefaultUringCombos(quick bool) []UringKnobs {
	if quick {
		return []UringKnobs{{}, {Fixed: true}}
	}
	return []UringKnobs{
		{},
		{Fixed: true},
		{RegFiles: true},
		{ODirect: true},
		{Fixed: true, RegFiles: true},
		{Fixed: true, RegFiles: true, ODirect: true},
	}
}

// UringSweep runs one fixed epoch workload (o.Targets uniform targets,
// seeded sampling) through every knob combination on the given backend,
// reopening the dataset per combination so O_DIRECT variants measure
// the device rather than the page cache. Each combination runs reps
// times (minimum 1) and reports its best-throughput repetition — the
// standard defense against scheduler and page-cache noise on small
// workloads; syscall and byte counters come from the same repetition.
// Byte identity is enforced as it goes: every repetition of every
// combination must reproduce the first combination's folded digest, so
// a fast path that corrupts output surfaces as an error, never as a
// (fast) data point.
func UringSweep(dir string, o Options, backend uring.Backend, combos []UringKnobs, reps int, seed uint64) ([]UringPoint, error) {
	if o.Targets <= 0 {
		return nil, fmt.Errorf("exp: uring sweep needs positive target count, got %d", o.Targets)
	}
	if len(combos) == 0 {
		return nil, fmt.Errorf("exp: uring sweep needs at least one knob combination")
	}
	if reps < 1 {
		reps = 1
	}

	out := make([]UringPoint, 0, len(combos))
	var refDigest uint64
	for i, k := range combos {
		ds, err := storage.OpenWith(dir, storage.OpenOptions{Direct: k.ODirect})
		if err != nil {
			return nil, fmt.Errorf("exp: uring sweep open %s: %w", k.Name(), err)
		}
		rng := sample.NewRNG(sample.Mix(seed, 0xe90c))
		targets := UniformTargets(&rng, ds.NumNodes(), o.Targets)

		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.FixedBuffers = k.Fixed
		cfg.RegisteredFiles = k.RegFiles
		if o.Threads > 0 {
			cfg.Threads = o.Threads
		}
		if o.BatchSize > 0 {
			cfg.BatchSize = o.BatchSize
		}

		var best *core.EpochStats
		var digest uint64
		for rep := 0; rep < reps; rep++ {
			s, err := core.New(ds, cfg, backend)
			if err != nil {
				ds.Close()
				return nil, fmt.Errorf("exp: uring sweep %s: %w", k.Name(), err)
			}
			st, err := s.RunEpoch(targets, nil)
			if err != nil {
				ds.Close()
				return nil, fmt.Errorf("exp: uring sweep %s: %w", k.Name(), err)
			}
			var d uint64
			for _, bd := range st.Digests {
				d = foldDigest(d, bd)
			}
			if i == 0 && rep == 0 {
				refDigest = d
			} else if d != refDigest {
				ds.Close()
				return nil, fmt.Errorf("exp: knob combination %s changed the sampled bytes (digest %#x, plain %#x)",
					k.Name(), d, refDigest)
			}
			digest = d
			if best == nil || st.EntriesPerSec > best.EntriesPerSec {
				best = st
			}
		}
		ds.Close()

		// What actually ran after capability downgrades, from the stats
		// flags rather than the request.
		ran := UringKnobs{Fixed: best.IO.ActiveFixed, RegFiles: best.IO.ActiveRegFiles, ODirect: best.IO.ActiveODirect}
		p := UringPoint{
			Combo:          k.Name(),
			Knobs:          k,
			Active:         ran.Name(),
			EntriesPerSec:  best.EntriesPerSec,
			BytesPerSec:    best.BytesPerSec,
			Batches:        best.Batches,
			SubmitSyscalls: best.IO.SubmitSyscalls,
			WaitSyscalls:   best.IO.WaitSyscalls,
			DeviceBytes:    best.IO.DeviceBytes(),
			FixedReads:     best.IO.FixedReads,
			Digest:         digest,
		}
		if best.Batches > 0 {
			p.SyscallsPerBatch = float64(best.IO.SubmitSyscalls+best.IO.WaitSyscalls) / float64(best.Batches)
		}
		out = append(out, p)
	}
	return out, nil
}
