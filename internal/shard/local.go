package shard

import (
	"context"
	"fmt"
	"sync"

	"ringsampler/internal/core"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// Local is the in-process Engine: today's storage + cache + ring-worker
// bundle over one (possibly shard) dataset, behind the shard seam. It
// is also the only place workers are leased: per call from a lazily
// grown free list, with every worker id handed out once, and a worker
// whose rings cannot be proven empty after a failed call
// (core.Worker.Broken) retired — its counters kept — instead of
// reused. The serve dispatcher and the shard endpoints both lease
// through it.
type Local struct {
	s    *core.Sampler
	info Info

	mu   sync.Mutex
	idle []*core.Worker
	// live holds every unretired worker's counters as of its last
	// release, so Stats stays monotone while workers are leased.
	live    map[*core.Worker]core.IOStats
	nextID  int
	retired core.IOStats
	broken  int64
	closed  bool
}

// NewLocal opens a Local engine over ds with its own sampler (caches
// built per the config, restricted to owned nodes on a shard dataset).
// ds stays caller-owned and must outlive the engine.
func NewLocal(ds *storage.Dataset, cfg core.Config, backend uring.Backend) (*Local, error) {
	s, err := core.New(ds, cfg, backend)
	if err != nil {
		return nil, err
	}
	return NewLocalFrom(ds, s), nil
}

// NewLocalFrom wraps an existing sampler as a Local engine, sharing its
// caches and strategies — the serve layer's path, where the same
// sampler also backs the shard HTTP endpoints.
func NewLocalFrom(ds *storage.Dataset, s *core.Sampler) *Local {
	lo, hi := ds.ShardRange()
	total, index := ds.NumShards(), ds.ShardIndex()
	if total == 0 {
		// An unsharded dataset serves as the sole shard of a
		// 1-partition — what makes a single Local a valid "cluster".
		total = 1
	}
	return &Local{
		s:    s,
		live: make(map[*core.Worker]core.IOStats),
		info: Info{
			Index: index, Total: total, Lo: lo, Hi: hi,
			NumNodes: ds.NumNodes(), NumEdges: ds.NumEdges(),
			FeatureDim: ds.FeatureDim(),
		},
	}
}

// Info implements Engine.
func (l *Local) Info() Info { return l.info }

// acquire leases an idle worker or creates one.
func (l *Local) acquire() (*core.Worker, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, fmt.Errorf("shard: engine %d/%d closed", l.info.Index, l.info.Total)
	}
	if n := len(l.idle); n > 0 {
		w := l.idle[n-1]
		l.idle = l.idle[:n-1]
		l.mu.Unlock()
		return w, nil
	}
	id := l.nextID
	l.nextID++
	l.mu.Unlock()
	w, err := l.s.NewWorker(id)
	if err != nil {
		// Creation is retried on the next lease: nothing is cached.
		return nil, fmt.Errorf("shard: no worker available: %w", err)
	}
	return w, nil
}

// release returns a worker to the free list, or retires it (folding its
// counters into the engine's) when a failed call left its rings
// unprovably empty.
func (l *Local) release(w *core.Worker) {
	st := w.IOStats()
	l.mu.Lock()
	if w.Broken() || l.closed {
		if w.Broken() {
			l.broken++
		}
		delete(l.live, w)
		l.retired.Add(st)
		l.mu.Unlock()
		w.Close()
		return
	}
	l.live[w] = st
	l.idle = append(l.idle, w)
	l.mu.Unlock()
}

// lease runs fn on a leased worker, unless ctx is already done.
func (l *Local) lease(ctx context.Context, fn func(*core.Worker) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	w, err := l.acquire()
	if err != nil {
		return err
	}
	defer l.release(w)
	return fn(w)
}

// SampleBatch samples one whole mini-batch via
// core.Worker.SampleBatchOpts — the serve dispatcher's path on a
// single node.
func (l *Local) SampleBatch(ctx context.Context, targets []uint32, o core.BatchOpts) (b *core.Batch, err error) {
	err = l.lease(ctx, func(w *core.Worker) error {
		b, err = w.SampleBatchOpts(targets, o)
		return err
	})
	return b, err
}

// SampleLayer implements Engine via core.Worker.SampleLayer.
func (l *Local) SampleLayer(ctx context.Context, frontier []uint32, p core.LayerParams) (layer *core.Layer, state uint64, err error) {
	err = l.lease(ctx, func(w *core.Worker) error {
		layer, state, err = w.SampleLayer(frontier, p)
		return err
	})
	return layer, state, err
}

// Features implements Engine via core.Worker.FetchFeatures.
func (l *Local) Features(ctx context.Context, nodes []uint32) (out []byte, err error) {
	err = l.lease(ctx, func(w *core.Worker) error {
		out, err = w.FetchFeatures(nodes)
		return err
	})
	return out, err
}

// Stats implements Engine: retired workers' counters plus every live
// worker's as of its last release. A call still running is counted
// once it returns, so a quiescent engine reports exact totals.
func (l *Local) Stats() core.IOStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.retired
	for _, ws := range l.live {
		st.Add(ws)
	}
	return st
}

// Retired returns how many broken workers the engine has retired.
func (l *Local) Retired() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.broken
}

// Close retires every idle worker. Leased workers are retired as they
// are released.
func (l *Local) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	idle := l.idle
	l.idle = nil
	for _, w := range idle {
		l.retired.Add(l.live[w])
		delete(l.live, w)
	}
	l.mu.Unlock()
	var err error
	for _, w := range idle {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
