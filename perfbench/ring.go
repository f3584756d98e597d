package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ringsampler/internal/uring"
)

// ringCounters accumulates one ring kind's calls across every worker.
type ringCounters struct {
	submits, submitNs, sqes atomic.Int64
	waits, waitNs           atomic.Int64
}

// ringStats is shared by every hook of one run: per-kind counters plus
// the concrete ring types the engine built, which is how the benchmark
// learns which backend actually ran.
type ringStats struct {
	edge, feat ringCounters
	mu         sync.Mutex
	types      map[string]int
}

func newRingStats() *ringStats { return &ringStats{types: make(map[string]int)} }

func (s *ringStats) sawType(r uring.Ring) {
	s.mu.Lock()
	s.types[fmt.Sprintf("%T", r)]++
	s.mu.Unlock()
}

// backends returns the ring types seen, e.g. {"*uring.iouRing": 4}.
func (s *ringStats) backends() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.types))
	for k, v := range s.types {
		out[k] = v
	}
	return out
}

// ringHook is a core.Config.WrapRing decorator. Untraced, it only
// records the ring type and hands the ring back unchanged. Traced, it
// wraps each ring in a timedRing. A worker's edge ring is built at
// worker construction and its feature ring on the first feature fetch,
// both under the same worker id, so a call for an id whose edge ring is
// open and has no feature ring yet is that worker's feature ring.
type ringHook struct {
	st  *ringStats
	tr  *tracer
	mu  sync.Mutex
	ids map[int]*workerRings
}

type workerRings struct {
	edgeOpen, featOpen bool
	parent             atomic.Int64 // span the worker's ring calls belong to
}

func newRingHook(st *ringStats, tr *tracer) *ringHook {
	return &ringHook{st: st, tr: tr, ids: make(map[int]*workerRings)}
}

func (h *ringHook) wrap(r uring.Ring, workerID int) (uring.Ring, error) {
	h.st.sawType(r)
	if h.tr == nil {
		return r, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	wr := h.ids[workerID]
	if wr == nil {
		wr = new(workerRings)
		h.ids[workerID] = wr
	}
	t := &timedRing{Ring: r, hook: h, wr: wr}
	if wr.edgeOpen && !wr.featOpen {
		t.feat, t.c, t.name = true, &h.st.feat, "uring.feat"
		wr.featOpen = true
	} else {
		t.c, t.name = &h.st.edge, "uring.edge"
		wr.edgeOpen, wr.featOpen = true, false
	}
	return t, nil
}

// setParent makes worker id's later ring spans children of span.
func (h *ringHook) setParent(workerID int, span int64) {
	h.mu.Lock()
	wr := h.ids[workerID]
	h.mu.Unlock()
	if wr != nil {
		wr.parent.Store(span)
	}
}

// timedRing times Submit and Wait and forwards everything else,
// including uring.SyscallReporter, so the engine's IOStats stay exact.
type timedRing struct {
	uring.Ring
	hook *ringHook
	wr   *workerRings
	c    *ringCounters
	feat bool
	name string
}

func (t *timedRing) Submit() (int, error) {
	id, start := t.hook.tr.begin()
	t0 := time.Now()
	n, err := t.Ring.Submit()
	t.c.submitNs.Add(int64(time.Since(t0)))
	t.c.submits.Add(1)
	t.c.sqes.Add(int64(n))
	t.hook.tr.end(id, t.wr.parent.Load(), t.name+".submit", -1, start)
	return n, err
}

func (t *timedRing) Wait(min int) ([]uring.CQE, error) {
	id, start := t.hook.tr.begin()
	t0 := time.Now()
	cqes, err := t.Ring.Wait(min)
	t.c.waitNs.Add(int64(time.Since(t0)))
	t.c.waits.Add(1)
	t.hook.tr.end(id, t.wr.parent.Load(), t.name+".wait", -1, start)
	return cqes, err
}

func (t *timedRing) Close() error {
	t.hook.mu.Lock()
	if t.feat {
		t.wr.featOpen = false
	} else {
		t.wr.edgeOpen = false
	}
	t.hook.mu.Unlock()
	return t.Ring.Close()
}

// Syscalls forwards the wrapped ring's kernel-crossing counters.
func (t *timedRing) Syscalls() uring.Syscalls {
	if sr, ok := t.Ring.(uring.SyscallReporter); ok {
		return sr.Syscalls()
	}
	return uring.Syscalls{}
}
