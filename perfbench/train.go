package main

import (
	"context"
	"fmt"
	"time"

	"ringsampler/internal/core"
	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/train"
	"ringsampler/internal/uring"
)

func trainConfig(r *run, hook *ringHook) core.Config {
	cfg := core.DefaultConfig()
	cfg.Fanouts = []int{25, 10}
	cfg.BatchSize = 1024
	cfg.Threads = r.threads
	cfg.Seed = r.seed
	cfg.FetchFeatures = true
	cfg.CacheBudgetBytes = r.cacheBytes
	cfg.FeatureCacheBudgetBytes = r.cacheBytes
	cfg.WrapRing = hook.wrap
	return cfg
}

func newModel(r *run) (*train.Model, error) {
	return train.NewModel(train.Config{
		FeatureDim: r.graph.FeatureDim, Hidden: 16, Classes: r.graph.Classes,
		Layers: 2, LR: 0.1, Seed: r.seed,
	})
}

// runTrainWarm trains a 2-layer GraphSAGE through EpochOverlapped with
// features on and both caches in their partial regime: the only
// workload that runs the feature ring, Model.Step and the sample/train
// overlap.
func runTrainWarm(r *run) error {
	var log setupLog
	var s *core.Sampler
	hook := newRingHook(r.rings, nil)
	ds, err := setUp(r, &log, func(ds *storage.Dataset) (func() error, error) {
		var err error
		s, err = core.New(ds, trainConfig(r, hook), uring.BackendIOURing)
		return nil, err
	})
	if err != nil {
		return err
	}
	defer ds.Close()
	targets := uniformTargets(r, 2, r.trainTargets)
	ctx := context.Background()
	labels, err := ds.Labels()
	if err != nil {
		return err
	}
	bs := s.Config().BatchSize

	model, err := newModel(r)
	if err != nil {
		return err
	}
	if err := startTimed(r); err != nil {
		return err
	}
	tr := &train.Trainer{Model: model, Labels: labels}
	nb := int64((len(targets) + bs - 1) / bs)
	var rates, secs []float64
	var first *train.EpochStats
	start := time.Now()
	for e := 0; e < minEpochs || time.Since(start).Seconds() < r.seconds; e++ {
		st, err := tr.EpochOverlapped(ctx, s, targets, e)
		r.ops.attempted += nb
		if err != nil {
			r.ops.failed += nb
			return fmt.Errorf("train epoch %d: %w", e, err)
		}
		if first == nil {
			first = st
		}
		rates = append(rates, float64(st.Targets)/st.Seconds)
		secs = append(secs, st.Seconds)
	}
	if err := reportRSS(r); err != nil {
		return err
	}

	// Reference: epoch 0 again, serialized on one worker from the same
	// initial weights, must give the same loss and weights.
	refModel, err := newModel(r)
	if err != nil {
		return err
	}
	ref, err := (&train.Trainer{Model: refModel, Labels: labels}).EpochSerialized(ctx, s, targets, 0)
	if err != nil {
		return fmt.Errorf("serialized reference epoch: %w", err)
	}
	r.check(ref.Loss == first.Loss, "epoch 0 loss %v, serialized reference %v", first.Loss, ref.Loss)
	r.check(ref.WeightsDigest == first.WeightsDigest, "epoch 0 weights %s, serialized reference %s", first.WeightsDigest, ref.WeightsDigest)
	// EpochOverlapped reports no IOStats; a fresh worker's shows which
	// fast-path knobs the engine runs.
	kw, err := s.NewWorker(replayWorkerID)
	if err != nil {
		return err
	}
	knobs := kw.IOStats()
	kw.Close()
	if err := r.recordDataset(ds, knobs); err != nil {
		return err
	}

	if !r.trace {
		log.report(r)
		r.set("throughput_per_s", median(rates))
		r.set("p50_ms", 1000*median(secs))
		r.set("mean_ms", 1000*mean(secs))
		return r.complete()
	}

	// Traced pass: EpochOverlapped's loop written out, RunEpochSeeded
	// with Model.Step in the in-order handler, so each step and the wait
	// before it can be timed.
	thook := r.startTrace()
	ts, err := core.New(ds, trainConfig(r, thook), uring.BackendIOURing)
	if err != nil {
		return err
	}
	tmodel, err := newModel(r)
	if err != nil {
		return err
	}
	var io core.IOStats
	var steps, trates []float64
	var epochS, stepS float64
	var digests0 []uint64
	var loss0 float64
	if err := measureIO(r, func() (core.IOStats, int64, error) {
		var batches int64
		tstart := time.Now()
		for e := 0; e < minEpochs || time.Since(tstart).Seconds() < r.seconds; e++ {
			eid, estart := r.tr.begin()
			t0 := time.Now()
			var sumLoss float64
			st, err := ts.RunEpochSeeded(ctx, train.EpochSeed(r.seed, e), targets, func(bi int, b *core.Batch) error {
				sid, sstart := r.tr.begin()
				s0 := time.Now()
				loss, _, err := tmodel.Step(b, labels)
				d := time.Since(s0)
				r.tr.end(sid, eid, "train.step", int64(bi), sstart)
				steps = append(steps, float64(d.Nanoseconds())/1e6)
				stepS += d.Seconds()
				sumLoss += loss
				return err
			})
			r.ops.attempted += nb
			if err != nil {
				r.ops.failed += nb
				return io, batches, fmt.Errorf("traced train epoch %d: %w", e, err)
			}
			el := time.Since(t0).Seconds()
			r.tr.end(eid, 0, "train.epoch", int64(e), estart)
			epochS += el
			trates = append(trates, float64(len(targets))/el)
			io.Add(st.IO)
			batches += int64(st.Batches)
			if e == 0 {
				digests0 = st.Digests
				loss0 = sumLoss / float64(st.Batches)
				r.check(loss0 == first.Loss, "traced epoch 0 loss %v, untraced %v", loss0, first.Loss)
				r.check(fmt.Sprintf("%016x", tmodel.WeightsDigest()) == first.WeightsDigest,
					"traced epoch 0 weights %016x, untraced %s", tmodel.WeightsDigest(), first.WeightsDigest)
			}
		}
		return io, batches, nil
	}); err != nil {
		return err
	}
	hit := func(h, m int64) bool { return h > 0 && m > 0 }
	r.check(hit(io.CacheHits, io.CacheMisses), "train-warm neighbor cache hits %d misses %d, want both > 0", io.CacheHits, io.CacheMisses)
	r.check(hit(io.FeatCacheHits, io.FeatCacheMisses), "train-warm feature cache hits %d misses %d, want both > 0", io.FeatCacheHits, io.FeatCacheMisses)
	r.set("train.step_ms", median(steps))
	r.set("train.stall_share", ratio(epochS-stepS, epochS))
	r.set("train.loss", loss0)
	log.report(r)

	// Per-hop replay of epoch 0, whose batch stream the untraced run
	// also trained on (its loss and weights matched above).
	epochSeed := train.EpochSeed(r.seed, 0)
	var items []replayItem
	for bi := 0; bi < r.replay && bi < len(digests0); bi++ {
		lo, hi := bi*bs, min((bi+1)*bs, len(targets))
		items = append(items, replayItem{targets: targets[lo:hi], fanouts: ts.Config().Fanouts,
			seed: sample.Mix(epochSeed, uint64(bi)), features: true, want: digests0[bi]})
	}
	if err := replayHops(r, ts, thook, items); err != nil {
		return err
	}
	reportOverhead(r, median(rates), median(trates), true)
	return r.complete()
}
