package exp

import (
	"testing"

	"ringsampler/internal/uring"
)

// TestUringSweepAblation: the full knob ladder on the checked-in
// dataset through the pool backend — every combination must reproduce
// the plain digest (the sweep enforces it), report positive throughput,
// and be honest in its Active string about which knobs actually ran
// (pool emulates fixed buffers, ignores regfiles, and O_DIRECT
// depends on the filesystem).
func TestUringSweepAblation(t *testing.T) {
	p, err := Prepare(benchRoot, "ogbn-papers", 20_000, false)
	if err != nil {
		t.Fatal(err)
	}
	combos := DefaultUringCombos(false)
	o := Options{Targets: 256, BatchSize: 64, Threads: 2}
	points, err := UringSweep(p.Dir, o, uring.BackendPool, combos, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(combos) {
		t.Fatalf("got %d points, want %d", len(points), len(combos))
	}
	if points[0].Combo != "plain" || points[0].Active != "plain" {
		t.Fatalf("first point is %q (active %q), want plain", points[0].Combo, points[0].Active)
	}
	for _, pt := range points {
		t.Logf("%-40s %10.0f entries/s  %6.1f syscalls/batch  %8d device B  active=%s",
			pt.Combo, pt.EntriesPerSec, pt.SyscallsPerBatch, pt.DeviceBytes, pt.Active)
		if pt.EntriesPerSec <= 0 || pt.Batches != 4 {
			t.Fatalf("%s: degenerate point %+v", pt.Combo, pt)
		}
		if pt.Digest != points[0].Digest {
			t.Fatalf("%s: digest %#x differs from plain %#x", pt.Combo, pt.Digest, points[0].Digest)
		}
		if pt.SyscallsPerBatch <= 0 {
			t.Fatalf("%s: zero syscalls per batch", pt.Combo)
		}
		if pt.Knobs.Fixed && pt.FixedReads == 0 {
			t.Fatalf("%s: fixed requested (pool emulates) but zero fixed reads", pt.Combo)
		}
		if !pt.Knobs.Fixed && pt.FixedReads != 0 {
			t.Fatalf("%s: fixed off but %d fixed reads", pt.Combo, pt.FixedReads)
		}
		// Pool never runs the real-only knobs, whatever was requested.
		if containsKnob(pt.Active, "regfiles") {
			t.Fatalf("%s: pool backend claims active %q", pt.Combo, pt.Active)
		}
		if containsKnob(pt.Active, "odirect") && pt.DeviceBytes <= points[0].DeviceBytes {
			t.Fatalf("%s: O_DIRECT active but device bytes %d carry no alignment slack over plain's %d",
				pt.Combo, pt.DeviceBytes, points[0].DeviceBytes)
		}
	}
}

func containsKnob(active, knob string) bool {
	for _, part := range splitPlus(active) {
		if part == knob {
			return true
		}
	}
	return false
}

func splitPlus(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '+' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}

func TestUringSweepGuards(t *testing.T) {
	p, err := Prepare(benchRoot, "ogbn-papers", 20_000, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UringSweep(p.Dir, Options{Targets: 0}, uring.BackendPool, DefaultUringCombos(true), 1, 7); err == nil {
		t.Fatal("zero targets accepted")
	}
	if _, err := UringSweep(p.Dir, Options{Targets: 16}, uring.BackendPool, nil, 1, 7); err == nil {
		t.Fatal("empty combo list accepted")
	}
	if len(DefaultUringCombos(true)) != 2 {
		t.Fatalf("quick combos = %v, want plain+fixed", DefaultUringCombos(true))
	}
}
