package serve

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ringsampler/internal/core"
	"ringsampler/internal/shard"
	"ringsampler/internal/uring"
)

// gatedEngine holds every layer call until gate closes, recording how
// many calls were in flight at once — a stand-in for a shard whose
// round trips are slow.
type gatedEngine struct {
	shard.Engine
	gate           chan struct{}
	inflight, peak atomic.Int32
}

func (e *gatedEngine) SampleLayer(ctx context.Context, frontier []uint32, p core.LayerParams) (*core.Layer, uint64, error) {
	n := e.inflight.Add(1)
	defer e.inflight.Add(-1)
	for {
		old := e.peak.Load()
		if n <= old || e.peak.CompareAndSwap(old, n) {
			break
		}
	}
	select {
	case <-e.gate:
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	return e.Engine.SampleLayer(ctx, frontier, p)
}

// startGatedRouter boots a router server with one dispatcher slot over
// a gated 1-partition (one Local over the whole test graph).
func startGatedRouter(t *testing.T, queueDepth int) (*gatedEngine, string) {
	t.Helper()
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Backend = uring.BackendPool
	cfg.Core.Threads = 1
	cfg.Core.BatchSize = 32
	cfg.QueueDepth = queueDepth
	cfg.DefaultTimeout = 30 * time.Second
	local, err := shard.NewLocal(ds, cfg.Core, cfg.Backend)
	if err != nil {
		t.Fatal(err)
	}
	eng := &gatedEngine{Engine: local, gate: make(chan struct{})}
	_, base := startRouterServer(t, []shard.Engine{eng}, cfg)
	return eng, base
}

// oneChunk is a request of one full chunk: it flushes a micro-batch by
// itself, so every request is its own group.
func oneChunk(seed uint64) sampleRequest {
	targets := make([]uint32, 32)
	for i := range targets {
		targets[i] = uint32(seed)*32 + uint32(i)
	}
	return sampleRequest{Targets: targets, Fanouts: []int{5}, Seed: seed}
}

// TestRouterJobsOverlap: a routed job holds no worker, only round trips
// to the engines, so one dispatcher slot must not serialize the jobs of
// concurrent requests behind each other's round trips.
func TestRouterJobsOverlap(t *testing.T) {
	eng, base := startGatedRouter(t, 64)
	client := &http.Client{Timeout: 60 * time.Second}
	// Unused pre-dialed connections would hold the drain for 5 s.
	defer client.CloseIdleConnections()
	const n = 8
	var wg sync.WaitGroup
	status := make([]int, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status[i], _ = postSample(t, client, base, oneChunk(uint64(i)))
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); eng.peak.Load() < n; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			break
		}
	}
	peak := eng.peak.Load()
	close(eng.gate)
	wg.Wait()
	if peak < n {
		t.Errorf("%d routed jobs in flight at once behind one slot, want %d", peak, n)
	}
	for i, st := range status {
		if st != http.StatusOK {
			t.Errorf("request %d: status %d", i, st)
		}
	}
}

// TestRouterAdmissionBound: routed jobs in flight stop at QueueDepth;
// past that the queue fills and admission fast-fails with 429, and
// every admitted request still completes once the engines answer.
func TestRouterAdmissionBound(t *testing.T) {
	const depth = 2
	eng, base := startGatedRouter(t, depth)
	client := &http.Client{Timeout: 60 * time.Second}
	// Unused pre-dialed connections would hold the drain for 5 s.
	defer client.CloseIdleConnections()
	const n = 20
	statuses := make(chan int, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, _ := postSample(t, client, base, oneChunk(uint64(i)))
			statuses <- st
		}()
	}
	// Admitted requests hang on the gate; only rejections come back.
	var rejected int
	for deadline := time.After(5 * time.Second); rejected == 0; {
		select {
		case st := <-statuses:
			if st != http.StatusTooManyRequests {
				t.Fatalf("status %d while the engine is gated, want 429", st)
			}
			rejected++
		case <-deadline:
			t.Fatal("no 429 with every routed job stalled")
		}
	}
	close(eng.gate)
	wg.Wait()
	close(statuses)
	ok := 0
	for st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Errorf("status %d", st)
		}
	}
	if ok == 0 || ok+rejected != n {
		t.Errorf("%d ok + %d rejected of %d", ok, rejected, n)
	}
	if p := eng.peak.Load(); p > depth {
		t.Errorf("%d routed jobs in flight, bound %d", p, depth)
	}
}
