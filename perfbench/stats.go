package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs: the value at rank
// ceil(q·n) of the sorted sample, so the median of 3 values is the 2nd
// and p99 of 100 values is the 99th. It sorts a copy; an empty sample
// returns 0.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs, or 0 for an empty sample.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// tailQ is the quantile of the serve tails (serve.lo_tail_ms and
// serve.hi_tail_ms), taken in each of five windows of a phase and
// reported as the median window. p95 moved by half its median from run
// to run, since a quarter of the requests carry features and p95 falls
// in their own tail.
const tailQ = 0.9

// ratio returns num/den, or 0 when den is 0 (a layer the workload never
// reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics under validated names.
type metricSet map[string]metric

func (m metricSet) put(name, unit string, v float64) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("perfbench: bad metric name %q", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// checkNames reports the first metric name that fails validation or is
// listed twice.
func checkNames(names []string) error {
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if !metricName.MatchString(n) {
			return fmt.Errorf("metric name %q: want [A-Za-z0-9][A-Za-z0-9_.-]*, at most 64 characters", n)
		}
		if seen[n] {
			return fmt.Errorf("metric name %q listed twice", n)
		}
		seen[n] = true
	}
	return nil
}

// tally counts attempted and failed operations (batches, training steps
// or requests) across a run.
type tally struct {
	attempted, failed int64
}
