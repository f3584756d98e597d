package exp

import (
	"os"
	"path/filepath"
	"testing"

	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// TestUringMicro: the raw-read microbenchmark on the pool backend with
// the quick combo pair. Every point must complete the requested read
// count, report positive throughput, and charge exactly one submit
// syscall per read on the pool (which preads at submit time).
func TestUringMicro(t *testing.T) {
	p, err := Prepare(benchRoot, "ogbn-papers", 20_000, false)
	if err != nil {
		t.Fatal(err)
	}
	combos := DefaultUringMicroCombos(true)
	points, err := UringMicro(p.Dir, uring.BackendPool, combos, 512, 2048, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(combos) {
		t.Fatalf("got %d points, want %d", len(points), len(combos))
	}
	for i, pt := range points {
		t.Logf("%-24s %12.0f reads/s  %8.2f syscalls/read  active=%s",
			pt.Name, pt.ReadsPerSec, pt.SyscallsPerRead, pt.Active)
		if pt.Reads != 2048 || pt.ReadBytes != 512 || pt.ReadsPerSec <= 0 {
			t.Fatalf("%s: degenerate point %+v", pt.Name, pt)
		}
		if pt.Depth != 256 {
			t.Fatalf("%s: depth %d, want 256", pt.Name, pt.Depth)
		}
		// Pool submits one pread per staged read, so the syscall ratio
		// is exactly 1 regardless of depth.
		if pt.SyscallsPerRead != 1 {
			t.Fatalf("%s: %f syscalls/read on pool, want 1", pt.Name, pt.SyscallsPerRead)
		}
		wantFixed := combos[i].Fixed
		if containsKnob(pt.Active, "fixed") != wantFixed {
			t.Fatalf("%s: active %q, fixed requested %v", pt.Name, pt.Active, wantFixed)
		}
		if containsKnob(pt.Active, "regfiles") {
			t.Fatalf("%s: pool backend claims active %q", pt.Name, pt.Active)
		}
	}
	if points[0].EntriesPerSec != points[0].ReadsPerSec*float64(512/storage.EntryBytes) {
		t.Fatalf("entries/s %f inconsistent with reads/s %f", points[0].EntriesPerSec, points[0].ReadsPerSec)
	}
}

func TestUringMicroGuards(t *testing.T) {
	p, err := Prepare(benchRoot, "ogbn-papers", 20_000, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UringMicro(p.Dir, uring.BackendPool, DefaultUringMicroCombos(true), 0, 128, 1, 7); err == nil {
		t.Fatal("zero read size accepted")
	}
	if _, err := UringMicro(p.Dir, uring.BackendPool, DefaultUringMicroCombos(true), 1<<30, 128, 1, 7); err == nil {
		t.Fatal("read size larger than the edge file accepted")
	}
	if len(DefaultUringMicroCombos(false)) < 6 {
		t.Fatalf("full micro ladder too short: %v", DefaultUringMicroCombos(false))
	}
}

// offsetRing records the offset of every read staged through it.
type offsetRing struct {
	uring.Ring
	offs []int64
}

func (r *offsetRing) PrepRead(id uint64, off int64, buf []byte) bool {
	if !r.Ring.PrepRead(id, off, buf) {
		return false
	}
	r.offs = append(r.offs, off)
	return true
}

// TestUringMicroOffsetsSpanLargeFiles: the micro's read offsets cover
// the whole file, not just its first 4 GiB. The file is sparse (no data
// written), so the sim ring reads zeros from anywhere in it.
func TestUringMicroOffsetsSpanLargeFiles(t *testing.T) {
	const size = 5 << 30
	path := filepath.Join(t.TempDir(), "sparse")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := os.Truncate(path, size); err != nil {
		t.Skipf("cannot create a %d-byte sparse file here: %v", int64(size), err)
	}
	inner, err := uring.New(uring.BackendSim, f, 64)
	if err != nil {
		t.Fatal(err)
	}
	r := &offsetRing{Ring: inner}
	defer r.Close()
	const readBytes, reads = 4096, 256
	arena := make([]byte, 64*readBytes)
	if _, err := microRun(r, UringKnobs{}, 64, readBytes, reads, size, 0, arena, 7); err != nil {
		t.Fatal(err)
	}
	if len(r.offs) != reads {
		t.Fatalf("staged %d reads, want %d", len(r.offs), reads)
	}
	var high int
	for _, off := range r.offs {
		if off < 0 || off > size-readBytes {
			t.Fatalf("offset %d outside [0, %d]", off, int64(size-readBytes))
		}
		if off >= 1<<32 {
			high++
		}
	}
	if high == 0 {
		t.Fatalf("none of %d offsets lands past 4 GiB in a %d-byte file", reads, int64(size))
	}
}
