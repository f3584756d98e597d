package serve

import (
	"context"
	"sync"
	"time"

	"ringsampler/internal/core"
)

// job is one engine mini-batch of one request: a chunk of at most
// Core.BatchSize of the request's targets, with the chunk-derived RNG
// seed (sample.Mix(request seed, chunk index)). Chunks from different
// requests coalesce into micro-batches, but each job reseeds the
// worker's RNG, so its samples are a pure function of (dataset,
// targets, fanouts, seed) — never of what else rode the same batch.
type job struct {
	ctx      context.Context
	targets  []uint32
	fanouts  []int
	seed     uint64
	features bool   // run the feature stage for this chunk
	strategy string // draw strategy (validated at admission; "" = server default)
	enq      time.Time
	chunk    int
	req      *request
}

func (j *job) finish(b *core.Batch, err error) { j.req.jobDone(j.chunk, b, err) }

// group is one micro-batch: the jobs a dispatch window coalesced,
// handed to one dispatcher slot.
type group []*job

// request tracks the fan-out/fan-in of one API call across its chunk
// jobs: results land by chunk index, the first error wins, and done
// closes when the last job reports in. The first error also cancels
// the request's job context, so sibling chunks still queued behind it
// are skipped by the slots (dead-context check) instead of burning
// worker time on a response that is already doomed.
type request struct {
	// cancel kills the context the request's jobs carry. May be nil in
	// tests that construct requests directly.
	cancel context.CancelFunc

	mu      sync.Mutex
	batches []*core.Batch
	err     error
	remain  int
	done    chan struct{}
}

func newRequest(chunks int, cancel context.CancelFunc) *request {
	return &request{
		cancel:  cancel,
		batches: make([]*core.Batch, chunks),
		remain:  chunks,
		done:    make(chan struct{}),
	}
}

func (r *request) jobDone(chunk int, b *core.Batch, err error) {
	r.mu.Lock()
	first := err != nil && r.err == nil
	if first {
		r.err = err
	}
	r.batches[chunk] = b
	r.remain--
	last := r.remain == 0
	r.mu.Unlock()
	if first && r.cancel != nil {
		// First error wins and is already recorded, so canceling the
		// siblings here can never replace it with context.Canceled.
		r.cancel()
	}
	if last {
		close(r.done)
	}
}

// result returns the assembled batches or the first error. Only valid
// after done is closed (no more writers).
func (r *request) result() ([]*core.Batch, error) {
	if r.err != nil {
		return nil, r.err
	}
	return r.batches, nil
}

// dispatch is the micro-batching loop: it pulls admitted jobs off the
// bounded queue and coalesces them into a group, flushing when the
// group reaches MaxBatchTargets targets or when BatchWindow elapses
// since the group's first job — whichever comes first. Flushes block
// when every slot is busy; that is the backpressure that fills the
// queue and trips admission control.
func (s *Server) dispatch() {
	defer close(s.dispatchDone)
	defer close(s.groups)
	var (
		g        group
		gTargets int
		timer    *time.Timer
		timeCh   <-chan time.Time
	)
	flush := func() {
		if timer != nil {
			timer.Stop()
		}
		timeCh = nil
		if len(g) == 0 {
			return
		}
		s.met.dispatched.Add(1)
		s.met.batchJobs.Observe(int64(len(g)))
		s.met.batchTargets.Observe(int64(gTargets))
		s.groups <- g
		g = nil
		gTargets = 0
	}
	add := func(j *job) {
		if len(g) == 0 {
			timer = time.NewTimer(s.cfg.BatchWindow)
			timeCh = timer.C
		}
		g = append(g, j)
		gTargets += len(j.targets)
		if gTargets >= s.cfg.MaxBatchTargets {
			flush()
		}
	}
	for {
		select {
		case j := <-s.queue:
			add(j)
		case <-timeCh:
			flush()
		case <-s.quit:
			// Drain: hand every already-admitted job to the slots (they
			// skip the ones whose requests are dead), then stop. Jobs
			// enqueued after this loop empties the channel are abandoned —
			// their handlers unblock through their canceled contexts.
			for {
				select {
				case j := <-s.queue:
					add(j)
				default:
					flush()
					return
				}
			}
		}
	}
}

// slot is one dispatcher slot: it takes micro-batches until the
// dispatcher closes groups. On a single node it runs them job by job,
// each on a worker leased from the shard.Local for just that job (the
// Local retires a worker the job left broken), so Core.Threads bounds
// the jobs in flight. Behind a router a job holds no worker, only
// round trips to the engines, so the slot starts each job on a
// goroutine of its own; QueueDepth bounds those instead. Once that
// many are in flight the slots block, the queue fills, and admission
// fast-fails with 429.
func (s *Server) slot() {
	defer s.slots.Done()
	for g := range s.groups {
		for _, j := range g {
			if s.rt == nil {
				s.run(j)
				continue
			}
			s.routed <- struct{}{}
			s.slots.Add(1)
			go func() {
				defer s.slots.Done()
				s.run(j)
				<-s.routed
			}()
		}
	}
}

// run samples one job — unless its request already died — and reports
// it to the request.
func (s *Server) run(j *job) {
	s.met.queueDepth.Add(-1)
	if err := j.ctx.Err(); err != nil {
		// The request already died (deadline, client gone, or a failed
		// sibling chunk) — don't burn device time on it.
		s.met.canceledJobs.Add(1)
		j.finish(nil, err)
		return
	}
	s.met.queueWait.Observe(time.Since(j.enq).Nanoseconds())
	t0 := time.Now()
	var b *core.Batch
	var err error
	if s.rt != nil {
		b, err = s.rt.SampleChunk(j.ctx, j.targets, j.fanouts, j.seed, j.strategy, j.features)
	} else {
		b, err = s.local.SampleBatch(j.ctx, j.targets, core.BatchOpts{Fanouts: j.fanouts, Seed: j.seed, Features: j.features, Strategy: j.strategy})
	}
	s.met.sampleLat.Observe(time.Since(t0).Nanoseconds())
	j.finish(b, err)
}
