package core

import (
	"errors"
	"fmt"
	"strings"
	"syscall"
	"testing"

	"ringsampler/internal/gen"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// Knob-combination conformance: every fast-path knob — fixed buffers,
// registered files, O_DIRECT — is a pure performance lever. The sampled byte stream must be identical to the
// plain path for EVERY combination, on every backend that runs here.
// Combinations whose kernel feature isn't granted still run: resolveKnobs
// downgrades them (pool/sim ignore real-only knobs by design), and the
// IOStats Active* flags must report exactly what actually ran.

// testDatasetDir generates the standard conformance dataset and returns
// its directory, so tests can reopen it with different OpenOptions.
func testDatasetDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := gen.Generate(dir, "tiny", "rmat", 2_000, 30_000, 11); err != nil {
		t.Fatal(err)
	}
	return dir
}

func openDS(t *testing.T, dir string, direct bool) *storage.Dataset {
	t.Helper()
	ds, err := storage.OpenWith(dir, storage.OpenOptions{Direct: direct})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

func TestKnobMatrixConformance(t *testing.T) {
	dir := testDatasetDir(t)
	base := DefaultConfig()
	base.Seed = 42
	base.RingSize = 32 // small ring so every combo wraps and backpressures
	targets := testTargets(openDS(t, dir, false), 128)

	ref := sampleOnce(t, openDS(t, dir, false), base, uring.BackendSim, targets)
	if ref.TotalSampled() == 0 {
		t.Fatal("reference plan sampled nothing")
	}

	backends := []uring.Backend{uring.BackendSim, uring.BackendPool}
	caps := uring.Probe()
	if caps.Ring {
		backends = append(backends, uring.BackendIOURing)
	} else {
		t.Log("io_uring unavailable; real backend skipped")
	}

	for _, be := range backends {
		for _, direct := range []bool{false, true} {
			for mask := 0; mask < 4; mask++ {
				fixed := mask&1 != 0
				regFiles := mask&2 != 0
				name := fmt.Sprintf("%s/odirect=%v/fixed=%v/regfiles=%v",
					be, direct, fixed, regFiles)
				t.Run(name, func(t *testing.T) {
					ds := openDS(t, dir, direct)
					cfg := base
					cfg.FixedBuffers = fixed
					cfg.RegisteredFiles = regFiles
					s, err := New(ds, cfg, be)
					if err != nil {
						t.Fatal(err)
					}
					w, err := s.NewWorker(0)
					if err != nil {
						t.Fatal(err)
					}
					defer w.Close()
					got, err := w.SampleBatch(targets)
					if err != nil {
						t.Fatal(err)
					}
					assertBatchesEqual(t, ref, got, name)

					// The Active* flags must report what actually ran:
					// requested knobs intersected with backend + kernel
					// grants — never more, never less.
					st := w.IOStats()
					wantFixed, wantReg := fixed, false
					if be == uring.BackendIOURing {
						wantFixed = fixed && caps.ReadFixed
						wantReg = regFiles && caps.RegisteredFiles
					}
					wantDirect := ds.DirectAlign() > 0
					if st.ActiveFixed != wantFixed || st.ActiveRegFiles != wantReg ||
						st.ActiveODirect != wantDirect {
						t.Fatalf("active knobs (fixed=%v reg=%v odirect=%v), want (%v %v %v)",
							st.ActiveFixed, st.ActiveRegFiles, st.ActiveODirect,
							wantFixed, wantReg, wantDirect)
					}
					if st.ActiveFixed && st.FixedReads == 0 {
						t.Fatal("fixed buffers active but zero reads went through them")
					}
					if !st.ActiveFixed && st.FixedReads != 0 {
						t.Fatalf("fixed buffers inactive but FixedReads = %d", st.FixedReads)
					}
					if st.ActiveODirect && st.AlignSlackBytes == 0 {
						t.Fatal("O_DIRECT active but zero alignment slack — aligned windows not exercised")
					}
					if !st.ActiveODirect && st.AlignSlackBytes != 0 {
						t.Fatalf("buffered run reports AlignSlackBytes = %d", st.AlignSlackBytes)
					}
					if st.SubmitSyscalls+st.WaitSyscalls == 0 {
						t.Fatal("worker recorded zero ring syscalls")
					}
					if direct && ds.DirectAlign() == 0 {
						t.Logf("O_DIRECT fell back to buffered: %v", ds.DirectFallback())
					}
				})
			}
		}
	}
}

// TestRingSizeBoundedConformance: the ring size is the only bound on a
// worker's in-flight reads. Shrinking it reshapes the pipeline (more
// groups, more backpressure, fewer reads per submit) but never the
// bytes. RingSize 1 degenerates to one read at a time and must still
// finish and agree; 3 is not a power of two, which the kernel rounds up.
func TestRingSizeBoundedConformance(t *testing.T) {
	dir := testDatasetDir(t)
	base := DefaultConfig()
	base.Seed = 42
	base.RingSize = 32
	targets := testTargets(openDS(t, dir, false), 128)
	ref := sampleOnce(t, openDS(t, dir, false), base, uring.BackendSim, targets)

	backends := []uring.Backend{uring.BackendSim, uring.BackendPool}
	if uring.Probe().Ring {
		backends = append(backends, uring.BackendIOURing)
	}
	for _, be := range backends {
		for _, size := range []int{1, 3, 8} {
			for _, direct := range []bool{false, true} {
				name := fmt.Sprintf("%s/ring=%d/odirect=%v", be, size, direct)
				t.Run(name, func(t *testing.T) {
					cfg := base
					cfg.RingSize = size
					cfg.FixedBuffers = true // deepest interaction: fixed chunks + tiny ring
					s, err := New(openDS(t, dir, direct), cfg, be)
					if err != nil {
						t.Fatal(err)
					}
					w, err := s.NewWorker(0)
					if err != nil {
						t.Fatal(err)
					}
					defer w.Close()
					got, err := w.SampleBatch(targets)
					if err != nil {
						t.Fatal(err)
					}
					assertBatchesEqual(t, ref, got, name)
					// No submit can carry more reads than one ring holds.
					st := w.IOStats()
					if st.SubmitSyscalls == 0 {
						t.Fatal("worker recorded zero submit syscalls")
					}
					if limit := int64(w.edge.ring.Entries()); st.Reads > limit*st.SubmitSyscalls {
						t.Fatalf("%d reads in %d submits exceed %d per submit",
							st.Reads, st.SubmitSyscalls, limit)
					}
				})
			}
		}
	}
}

// TestKnobsWithFaultsConformance: fault injection composed with the
// fixed-buffer path (but never with O_DIRECT — truncating an aligned
// read's length would make it unaligned, which a real O_DIRECT fd
// rejects) must still retry to the exact reference bytes.
func TestKnobsWithFaultsConformance(t *testing.T) {
	dir := testDatasetDir(t)
	base := DefaultConfig()
	base.Seed = 42
	base.RingSize = 32
	targets := testTargets(openDS(t, dir, false), 128)
	ref := sampleOnce(t, openDS(t, dir, false), base, uring.BackendSim, targets)

	plan := uring.FaultPlan{Seed: 100, ShortReadRate: 0.1, TransientRate: 0.05, RejectRate: 0.1, DelayRate: 0.2}
	backends := []uring.Backend{uring.BackendSim, uring.BackendPool}
	if uring.Probe().Ring {
		backends = append(backends, uring.BackendIOURing)
	}
	for _, be := range backends {
		t.Run(string(be), func(t *testing.T) {
			cfg := base
			cfg.FixedBuffers = true
			cfg.WrapRing = faultWrap(plan)
			s, err := New(openDS(t, dir, false), cfg, be)
			if err != nil {
				t.Fatal(err)
			}
			w, err := s.NewWorker(0)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			got, err := w.SampleBatch(targets)
			if err != nil {
				t.Fatal(err)
			}
			assertBatchesEqual(t, ref, got, string(be))
			fs, _ := uring.Faults(w.edge.ring)
			if fs.Total() == 0 {
				t.Fatal("fault-wrapped run injected nothing")
			}
			if st := w.IOStats(); st.FixedReads == 0 {
				t.Fatal("fixed path inactive under faults")
			}
		})
	}
}

// TestBadBufIndexSurfacesIOError: a fault plan that corrupts every fixed
// read's buffer index makes the backend answer -EINVAL; the worker must
// surface that as a structured *IOError (EINVAL is not transient), not
// hang, panic, or silently fall back to plain reads.
func TestBadBufIndexSurfacesIOError(t *testing.T) {
	dir := testDatasetDir(t)
	for _, be := range []uring.Backend{uring.BackendSim, uring.BackendPool} {
		t.Run(string(be), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.FixedBuffers = true
			cfg.WrapRing = faultWrap(uring.FaultPlan{Seed: 7, BadBufIndexRate: 1})
			s, err := New(openDS(t, dir, false), cfg, be)
			if err != nil {
				t.Fatal(err)
			}
			w, err := s.NewWorker(0)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			_, err = w.SampleBatch(testTargets(openDS(t, dir, false), 8))
			var ioe *IOError
			if !errors.As(err, &ioe) {
				t.Fatalf("err = %v (%T), want *IOError", err, err)
			}
			if ioe.Errno != syscall.EINVAL {
				t.Fatalf("Errno = %v, want EINVAL", ioe.Errno)
			}
			if !errors.Is(err, syscall.EINVAL) {
				t.Fatal("IOError does not unwrap to EINVAL")
			}
			fs, _ := uring.Faults(w.edge.ring)
			if fs.BadBufIndex == 0 {
				t.Fatal("no buffer-index corruptions recorded")
			}
		})
	}
}

// TestODirectTinyFileStraddle: a dataset whose whole edge file is
// smaller than one O_DIRECT block means EVERY aligned read window
// straddles EOF and completes short — the worker's early-completion
// check (interior covered despite a short device read) carries the
// entire batch. Digest must match the buffered run exactly.
func TestODirectTinyFileStraddle(t *testing.T) {
	dir := t.TempDir()
	// 30 nodes, 100 edges -> 400-byte edge file, under even a 512 block.
	if _, err := gen.Generate(dir, "tiny", "rmat", 30, 100, 3); err != nil {
		t.Fatal(err)
	}
	direct := openDS(t, dir, true)
	if direct.DirectAlign() == 0 {
		t.Skipf("O_DIRECT unavailable: %v", direct.DirectFallback())
	}
	if sz := direct.NumEdges() * storage.EntryBytes; sz >= int64(direct.DirectAlign()) {
		t.Fatalf("edge file %d bytes not under the %d block — test premise broken", sz, direct.DirectAlign())
	}
	cfg := DefaultConfig()
	cfg.Seed = 9
	targets := testTargets(direct, 32)
	ref := sampleOnce(t, openDS(t, dir, false), cfg, uring.BackendSim, targets)

	backends := []uring.Backend{uring.BackendSim, uring.BackendPool}
	if uring.Probe().Ring {
		backends = append(backends, uring.BackendIOURing)
	}
	for _, be := range backends {
		t.Run(string(be), func(t *testing.T) {
			s, err := New(direct, cfg, be)
			if err != nil {
				t.Fatal(err)
			}
			w, err := s.NewWorker(0)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			got, err := w.SampleBatch(targets)
			if err != nil {
				t.Fatal(err)
			}
			assertBatchesEqual(t, ref, got, string(be))
			st := w.IOStats()
			if !st.ActiveODirect {
				t.Fatal("O_DIRECT inactive despite direct open")
			}
			if st.Reads > 0 && st.AlignSlackBytes == 0 {
				t.Fatal("every window straddles EOF yet zero slack recorded")
			}
		})
	}
}

// TestConfigRejectsNegativeKnobs: every size and budget knob that is
// left is validated by name; a zero ring is as invalid as a negative one.
func TestConfigRejectsNegativeKnobs(t *testing.T) {
	ds := testDataset(t)
	cases := []struct {
		name string
		set  func(*Config)
		want string
	}{
		{"ring=0", func(c *Config) { c.RingSize = 0 }, "ring size"},
		{"ring=-1", func(c *Config) { c.RingSize = -1 }, "ring size"},
		{"batch=0", func(c *Config) { c.BatchSize = 0 }, "batch size"},
		{"threads=0", func(c *Config) { c.Threads = 0 }, "thread count"},
		{"fanout=0", func(c *Config) { c.Fanouts = []int{10, 0} }, "fanout[1]"},
		{"no-fanouts", func(c *Config) { c.Fanouts = nil }, "fanout layer"},
		{"cache=-1", func(c *Config) { c.CacheBudgetBytes = -1 }, "cache budget"},
		{"featcache=-1", func(c *Config) { c.FeatureCacheBudgetBytes = -1 }, "feature cache budget"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.set(&cfg)
			_, err := New(ds, cfg, uring.BackendSim)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %q, want it to name %q", err, c.want)
			}
		})
	}
}
