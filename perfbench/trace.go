package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program. Parent is the id of the span that caused it (0 for a root);
// Op is the batch index or request number it served (-1 when the layer
// cannot tell).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id and start time; end closes it.
func (t *tracer) begin() (id, start int64) {
	if t == nil {
		return 0, 0
	}
	return t.nextID.Add(1), t.now()
}

func (t *tracer) end(id, parent int64, name string, op, start int64) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Op: op, Start: start, End: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval covered by the union of its children (children may
// overlap one another and may stick out of the parent; only the
// overlap with the parent counts).
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	iv := append([][2]int64(nil), ivs...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	flush := func() {
		if open {
			a, b := max(curLo, lo), min(curHi, hi)
			if b > a {
				total += b - a
			}
		}
	}
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		flush()
		curLo, curHi, open = x[0], x[1], true
	}
	flush()
	return total
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e6
	}
	return out
}
