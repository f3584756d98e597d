package main

import (
	"fmt"
	"runtime"
	"time"

	"ringsampler/internal/core"
	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// minEpochs is the fewest epochs a batch workload times, so its
// medians always have several values.
const minEpochs = 3

// epochPass runs RunEpoch back to back over the same targets for the
// measured time. Every epoch must repeat the first epoch's digests.
type epochPass struct {
	secs, rates []float64
	digests     []uint64
	io          core.IOStats
	batches     int64
}

func runEpochs(r *run, s *core.Sampler, targets []uint32) (*epochPass, error) {
	p := &epochPass{}
	start := time.Now()
	for e := 0; e < minEpochs || time.Since(start).Seconds() < r.seconds; e++ {
		st, err := s.RunEpoch(targets, nil)
		nb := int64((len(targets) + s.Config().BatchSize - 1) / s.Config().BatchSize)
		r.ops.attempted += nb
		if err != nil {
			r.ops.failed += nb
			return nil, fmt.Errorf("epoch %d: %w", e, err)
		}
		p.secs = append(p.secs, st.Seconds)
		p.rates = append(p.rates, st.EntriesPerSec)
		p.io.Add(st.IO)
		p.batches += nb
		if p.digests == nil {
			p.digests = st.Digests
			continue
		}
		for bi, d := range st.Digests {
			if d != p.digests[bi] {
				r.ops.failed++
				r.check(false, "epoch %d batch %d: digest %016x, epoch 0 had %016x", e, bi, d, p.digests[bi])
			}
		}
	}
	return p, nil
}

func epochConfig(r *run, hook *ringHook) core.Config {
	cfg := core.DefaultConfig()
	cfg.Fanouts = []int{20, 15, 10}
	cfg.BatchSize = 1024
	cfg.Threads = r.threads
	cfg.Seed = r.seed
	cfg.WrapRing = hook.wrap
	return cfg
}

// runEpochCold is the paper's headline loop: RunEpoch over uniform
// targets with both caches off and no features, so the ring and the
// planner do almost all the work.
func runEpochCold(r *run) error {
	var log setupLog
	var s *core.Sampler
	hook := newRingHook(r.rings, nil)
	ds, err := setUp(r, &log, func(ds *storage.Dataset) (func() error, error) {
		var err error
		s, err = core.New(ds, epochConfig(r, hook), uring.BackendIOURing)
		return nil, err
	})
	if err != nil {
		return err
	}
	log.build = nil // both caches are off: nothing to build
	defer ds.Close()
	targets := uniformTargets(r, 1, r.epochTargets)

	if err := startTimed(r); err != nil {
		return err
	}
	p, err := runEpochs(r, s, targets)
	if err != nil {
		return err
	}
	if err := reportRSS(r); err != nil {
		return err
	}
	r.check(p.io.CacheHits+p.io.CacheMisses == 0, "epoch-cold made %d cache lookups, want 0", p.io.CacheHits+p.io.CacheMisses)
	r.check(p.io.FeatReads == 0, "epoch-cold made %d feature reads, want 0", p.io.FeatReads)

	// Reference: every batch of the epoch sampled alone on one worker.
	if err := func() error {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		w, err := s.NewWorker(0)
		if err != nil {
			return err
		}
		defer w.Close()
		bs := s.Config().BatchSize
		for bi := range p.digests {
			lo, hi := bi*bs, min((bi+1)*bs, len(targets))
			b, err := w.SampleBatchSeeded(targets[lo:hi], sample.Mix(r.seed, uint64(bi)))
			if err != nil {
				return fmt.Errorf("reference batch %d: %w", bi, err)
			}
			r.check(b.Digest() == p.digests[bi], "batch %d: digest %016x, single-worker reference %016x", bi, p.digests[bi], b.Digest())
		}
		return nil
	}(); err != nil {
		return err
	}
	if err := r.recordDataset(ds, p.io); err != nil {
		return err
	}

	if !r.trace {
		log.report(r)
		r.set("throughput_per_s", median(p.rates))
		r.set("p50_ms", 1000*median(p.secs))
		r.set("mean_ms", 1000*mean(p.secs))
		return r.complete()
	}

	// Traced pass: a fresh engine whose rings are timed.
	thook := r.startTrace()
	ts, err := core.New(ds, epochConfig(r, thook), uring.BackendIOURing)
	if err != nil {
		return err
	}
	var tp *epochPass
	if err := measureIO(r, func() (core.IOStats, int64, error) {
		var err error
		if tp, err = runEpochs(r, ts, targets); err != nil {
			return core.IOStats{}, 0, err
		}
		return tp.io, tp.batches, nil
	}); err != nil {
		return err
	}
	for bi, d := range tp.digests {
		r.check(d == p.digests[bi], "traced epoch batch %d: digest %016x, untraced %016x", bi, d, p.digests[bi])
	}
	log.report(r)
	items := make([]replayItem, 0, r.replay)
	bs := s.Config().BatchSize
	for bi := 0; bi < len(p.digests) && len(items) < r.replay; bi++ {
		lo, hi := bi*bs, min((bi+1)*bs, len(targets))
		items = append(items, replayItem{targets: targets[lo:hi], fanouts: ts.Config().Fanouts,
			seed: sample.Mix(r.seed, uint64(bi)), want: p.digests[bi]})
	}
	if err := replayHops(r, ts, thook, items); err != nil {
		return err
	}
	reportOverhead(r, median(p.rates), median(tp.rates), true)
	return r.complete()
}

// recordDataset adds the dataset's checksums and the fast-path knobs
// that actually ran to the provenance.
func (r *run) recordDataset(ds *storage.Dataset, io core.IOStats) error {
	sums, err := datasetChecksums(ds)
	if err != nil {
		return err
	}
	r.prov.Checksums = sums
	r.prov.ActiveKnob = map[string]bool{
		"fixed_buffers": io.ActiveFixed, "registered_files": io.ActiveRegFiles,
		"sqpoll": io.ActiveSQPoll, "o_direct": io.ActiveODirect,
	}
	return nil
}
