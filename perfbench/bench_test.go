package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"ringsampler/internal/uring"
)

func TestQuantileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[99-i] = float64(i + 1) // unsorted on purpose
	}
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.99, 7},
		{[]float64{3, 1, 2}, 0.5, 2}, // median of 3 is the 2nd, not an average
		{[]float64{4, 1, 3, 2}, 0.5, 2},
		{hundred, 0.99, 99},
		{hundred, 0.95, 95},
		{hundred, 1, 100},
		{hundred, 0, 1},
		{hundred, 0.001, 1},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, bad := range []string{"", "a b", "x/y", "_lead", ".lead", "p99%", strings.Repeat("a", 65), "é"} {
		if err := checkNames([]string{bad}); err == nil {
			t.Errorf("checkNames accepted %q", bad)
		}
	}
	if err := checkNames([]string{"uring.wait_ms", "uring.wait_ms"}); err == nil {
		t.Error("checkNames accepted a duplicate")
	}
	defer func() {
		if recover() == nil {
			t.Error("metricSet.put accepted a bad name")
		}
	}()
	metricSet{}.put("bad name", "ms", 1)
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the code's
// metric and workload lists in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, code runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	match := func(kind string, defs []metricDef, names, units []string) {
		if len(names) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code reports %d", kind, len(names), len(defs))
			return
		}
		for i, d := range defs {
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var n, u []string
	for _, m := range spec.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	match("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, m := range spec.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	match("per_layer", perLayer, n, u)
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "batch", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "hop", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "hop", Start: 20, End: 50},    // overlaps its sibling
		{ID: 4, Parent: 1, Name: "dedup", Start: 90, End: 120}, // sticks out of the parent
		{ID: 5, Parent: 2, Name: "wait", Start: 12, End: 18},   // grandchild: only its parent loses it
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if got := byName["hop"]; got != float64(14+30)/1e6 {
		t.Errorf("self ms of hop = %v, want %v", got, float64(44)/1e6)
	}
	if got := covered(0, 10, [][2]int64{{2, 4}, {3, 6}, {8, 20}}); got != 6 {
		t.Errorf("covered = %d, want 6", got)
	}
	var nilTracer *tracer
	id, start := nilTracer.begin()
	nilTracer.end(id, 0, "x", 0, start) // untraced runs record nothing and must not panic
	if nilTracer.snapshot() != nil {
		t.Error("nil tracer returned spans")
	}
}

func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func TestLatenessAndFailureAccounting(t *testing.T) {
	reqs := []request{{at: ms(0)}, {at: ms(20)}, {at: ms(30)}, {at: ms(40)}, {at: ms(50)}}
	outs := []outcome{
		{sent: ms(0), done: ms(100), status: http.StatusOK},              // in the warm-up: skipped
		{sent: ms(25), done: ms(32), status: http.StatusOK},              // 5 ms late, 12 ms latency
		{sent: ms(30), done: ms(31), status: http.StatusTooManyRequests}, // refused: failed
		{sent: ms(48), done: ms(60), status: http.StatusOK},              // 8 ms late, 20 ms latency
		{sent: ms(50), err: errors.New("connection reset")},              // transport error: failed
	}
	s := summarise(reqs, outs, ms(10), ms(60))
	if s.n != 4 || s.failed != 2 {
		t.Fatalf("n=%d failed=%d, want 4 and 2", s.n, s.failed)
	}
	if len(s.lat) != 2 || s.lat[0] != 12 || s.lat[1] != 20 {
		t.Errorf("latencies %v, want [12 20] (from the scheduled time)", s.lat)
	}
	if len(s.late) != 2 || s.late[0] != 5 || s.late[1] != 8 {
		t.Errorf("lateness %v, want [5 8]", s.late)
	}
	// Windows of 10 ms from 10 ms: requests 1 and 3 answered, in the
	// second and fourth; the median of their tails is the lower (the
	// nearest-rank median of two).
	if s.tail != 12 {
		t.Errorf("windowed tail %v, want 12", s.tail)
	}
	if got := backlogAt(reqs, outs, ms(45)); got != 1 {
		t.Errorf("backlog at 45 ms = %d, want 1 (request 3 was due at 40, sent at 48)", got)
	}
	if s.backlogMid != 0 || s.backlog != 0 {
		t.Errorf("backlog %d→%d, want 0→0 once every request was sent", s.backlogMid, s.backlog)
	}
}

func TestWindowedTail(t *testing.T) {
	// Five windows of 100 ms after a 100 ms warm-up, ten requests each.
	// Latencies in window k are k+1 … k+10 ms, except that a stall
	// makes every request of the fourth window take 500 ms.
	var reqs []request
	var outs []outcome
	for k := 0; k < windows; k++ {
		for j := 0; j < 10; j++ {
			at := ms(100 + float64(100*k+10*j))
			lat := ms(float64(k + 1 + j))
			if k == 3 {
				lat = ms(500)
			}
			reqs = append(reqs, request{at: at})
			outs = append(outs, outcome{sent: at, done: at + lat, status: http.StatusOK})
		}
	}
	s := summarise(reqs, outs, ms(100), ms(600))
	// Per-window p90 (9th of 10): 9, 10, 11, 500, 13 → median 11.
	if s.tail != 11 {
		t.Errorf("windowed tail %v, want 11, the median window's p90", s.tail)
	}
	if got := quantile(s.lat, tailQ); got != 500 {
		t.Errorf("pooled p90 %v, want 500 (the stall)", got)
	}
}

func TestCompletionRate(t *testing.T) {
	// Windows of 200 ms between 100 ms and 1100 ms; the third holds a
	// stall with no answers, the fourth a burst of four.
	var outs []outcome
	for _, at := range []float64{150, 250, 350, 450, 850, 880, 890, 895, 950, 1050} {
		outs = append(outs, outcome{done: ms(at), status: http.StatusOK})
	}
	outs = append(outs,
		outcome{done: ms(50), status: http.StatusOK},                  // before the warm-up ends: skipped
		outcome{done: ms(1200), status: http.StatusOK},                // after the phase: skipped
		outcome{done: ms(300), status: http.StatusServiceUnavailable}, // failed: not an answer
		outcome{done: ms(700), err: errors.New("connection refused")}, // failed
	)
	// Per-window answers 2, 2, 0, 4, 2 → 10/s, 10/s, 0/s, 20/s, 10/s.
	if got := completionRate(outs, ms(100), ms(1100)); got != 10 {
		t.Errorf("completion rate %v, want the median window's 10 answers per second", got)
	}
}

// toyScale runs every workload end to end in a few seconds.
var toyScale = scale{
	graph:        graphShape{Nodes: 3000, Edges: 30000, FeatureDim: 16, Classes: 8},
	setups:       2,
	epochTargets: 2048,
	trainTargets: 2048,
	replay:       2,
	loRPS:        40,
	hiRPS:        60,
	cacheBytes:   16 << 10,
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs generate graphs and start servers")
	}
	if !uring.Probe().Ring {
		t.Skip("io_uring unavailable; the benchmark requires it")
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				o := opts{workload: name, seed: 3, seconds: 1, trace: trace, root: "..", work: t.TempDir(), scale: toyScale}
				res, err := execute(o, time.Now())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				if !trace {
					for _, d := range defs {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
						}
					}
				}
			})
		}
	}
}
