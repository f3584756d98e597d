// Command perfbench is the repository benchmark. It generates a seeded
// R-MAT graph, runs one named workload against the engine's public
// entry points for a fixed time, checks every output against a
// reference replay, and prints one JSON result line. Untraced runs
// report the end-to-end metrics; traced runs (--trace 1) time calls
// into each layer from outside and report the per-layer metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload epoch-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string
	work     string
	scale
}

// scale sizes a run. fullScale is what the benchmark measures;
// tests use a toy scale so every workload can be smoke-run quickly.
type scale struct {
	graph        graphShape
	setups       int     // set-ups per untraced run; setup_s is their median
	epochTargets int     // targets per epoch-cold epoch
	trainTargets int     // targets per train-warm epoch
	replay       int     // batches or requests replayed per hop in traced runs
	loRPS, hiRPS float64 // serve open-loop rates
	cacheBytes   int64   // train-warm budget of each cache
}

var fullScale = scale{
	graph:        graphShape{Nodes: 500_000, Edges: 8_000_000, FeatureDim: 16, Classes: 8},
	setups:       3,
	epochTargets: 32_768,
	trainTargets: 32_768,
	replay:       16,
	loRPS:        60,
	hiRPS:        220,
	cacheBytes:   8 << 20,
}

// result is the last line a run prints.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// run is the state shared by one workload run.
type run struct {
	opts
	threads int
	tr      *tracer // nil outside the traced pass
	rings   *ringStats
	prov    provenance
	ops     tally
	errs    []string // failed output checks
	m       metricSet
}

// check records a failed output check; the run then reports
// correct=false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *run) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(r.seed, stream))
}

var workloads = map[string]func(*run) error{
	"epoch-cold":   runEpochCold,
	"train-warm":   runTrainWarm,
	"serve-skewed": runServeSkewed,
}

func main() {
	start := time.Now()
	o := opts{scale: fullScale}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced pass")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory for generated inputs and results")
	flag.Parse()
	o.trace = trace == 1
	res, err := execute(o, start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and returns its result line, after writing
// the provenance (and, traced, the spans) under o.work/results.
func execute(o opts, start time.Time) (*result, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		slices.Sort(names)
		return nil, fmt.Errorf("unknown workload %q (known: %s)", o.workload, strings.Join(names, ", "))
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds %v must be positive", o.seconds)
	}
	var names []string
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		names = append(names, d.name)
	}
	if err := checkNames(names); err != nil {
		return nil, err
	}
	if o.trace {
		o.setups = 1
	}
	r := &run{opts: o, threads: runtime.NumCPU(), rings: newRingStats(), m: make(metricSet)}
	r.prov = hostProvenance(o.root)
	r.prov.Workload, r.prov.Seed, r.prov.Seconds, r.prov.Trace = o.workload, o.seed, int(o.seconds), o.trace
	r.prov.Graph = o.graph
	if err := os.MkdirAll(filepath.Join(o.work, "results"), 0o755); err != nil {
		return nil, err
	}
	if err := fn(r); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	types := r.rings.backends()
	uringOnly := len(types) == 1 && types["*uring.iouRing"] > 0
	r.check(uringOnly, "backend: rings built %v, want only io_uring rings", types)
	r.prov.RingTypes, r.prov.Backend = types, "io_uring"
	if !uringOnly {
		r.prov.Backend = fmt.Sprint(types)
	}

	tag := fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, trace01(o.trace))
	out := struct {
		Provenance provenance `json:"provenance"`
		Errors     []string   `json:"check_failures"`
		Result     *result    `json:"result"`
		WallS      float64    `json:"wall_s"`
	}{Provenance: r.prov, Errors: r.errs}
	res := &result{Correct: len(r.errs) == 0, Attempted: r.ops.attempted, Failed: r.ops.failed, Metrics: r.m}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	out.Result = res
	out.WallS = time.Since(start).Seconds()
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	prov, _ := json.Marshal(r.prov)
	fmt.Println(string(prov))
	if err := os.WriteFile(filepath.Join(o.work, "results", tag+".json"), b, 0o644); err != nil {
		return nil, err
	}
	if r.tr != nil {
		if err := r.tr.write(filepath.Join(o.work, "results", tag+".spans.jsonl")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func trace01(b bool) int {
	if b {
		return 1
	}
	return 0
}
