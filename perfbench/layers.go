package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"ringsampler/internal/core"
	"ringsampler/internal/exp"
	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
)

// setupLog collects the timings of a run's set-ups. setup_s is the
// median total; the traced run reports the median of each step.
type setupLog struct {
	total, gen, open, build, part []float64
}

func (s *setupLog) report(r *run) {
	if !r.trace {
		r.set("setup_s", median(s.total))
		return
	}
	r.set("gen.generate_s", median(s.gen))
	r.set("storage.open_s", median(s.open))
	if len(s.build) > 0 {
		r.set("cache.build_s", median(s.build))
	}
	if len(s.part) > 0 {
		r.set("shard.partition_s", median(s.part))
	}
}

// setUp generates the graph and builds the workload's engine on it
// r.setups times, releasing the previous set-up first, and logs each
// step's time. build returns a function that releases what it built
// (nil if nothing needs it). setUp returns the last dataset, with its
// engine still built; the caller closes both.
func setUp(r *run, log *setupLog, build func(*storage.Dataset) (release func() error, err error)) (*storage.Dataset, error) {
	dir := filepath.Join(r.work, "graph")
	var ds *storage.Dataset
	var release func() error
	for i := 0; i < r.setups; i++ {
		if release != nil {
			if err := release(); err != nil {
				ds.Close()
				return nil, err
			}
		}
		if ds != nil {
			ds.Close()
		}
		t0 := time.Now()
		var genS, openS float64
		var err error
		if ds, genS, openS, err = generate(dir, r.graph, r.seed); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if release, err = build(ds); err != nil {
			ds.Close()
			return nil, err
		}
		log.build = append(log.build, time.Since(t1).Seconds())
		log.total = append(log.total, time.Since(t0).Seconds())
		log.gen, log.open = append(log.gen, genS), append(log.open, openS)
	}
	return ds, nil
}

// startTrace begins a run's traced pass and returns a ring hook that
// times every ring it wraps into the run's tracer.
func (r *run) startTrace() *ringHook {
	r.tr = newTracer()
	return newRingHook(r.rings, r.tr)
}

// measureIO runs pass, which returns the IOStats of what it did and
// how many operations (batches or requests) that was, and reports the
// uring and cache metrics of the pass.
func measureIO(r *run, pass func() (core.IOStats, int64, error)) error {
	before := r.rings.snap()
	io, ops, err := pass()
	if err != nil {
		return err
	}
	reportIO(r, r.rings.snap().sub(before), io, ops)
	return nil
}

// startTimed marks the end of set-up: the generated inputs are flushed
// to disk, and the peak RSS counts from here.
func startTimed(r *run) error {
	if err := settle(filepath.Join(r.work, "graph")); err != nil {
		return err
	}
	if r.trace {
		return nil
	}
	return resetPeakRSS()
}

func reportRSS(r *run) error {
	if r.trace {
		return nil
	}
	mb, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", mb)
	return nil
}

// uniformTargets draws n targets uniformly from the graph's nodes, from
// the workload seed's given stream.
func uniformTargets(r *run, stream uint64, n int) []uint32 {
	rng := sample.NewRNG(sample.Mix(r.seed, stream))
	return exp.UniformTargets(&rng, r.graph.Nodes, n)
}

// ringSnap is a point-in-time copy of a run's ring counters.
type ringSnap struct {
	edgeSubmits, edgeSubmitNs, edgeSQEs, edgeWaitNs int64
	featSubmitNs, featWaitNs                        int64
}

func (s *ringStats) snap() ringSnap {
	return ringSnap{
		edgeSubmits: s.edge.submits.Load(), edgeSubmitNs: s.edge.submitNs.Load(),
		edgeSQEs: s.edge.sqes.Load(), edgeWaitNs: s.edge.waitNs.Load(),
		featSubmitNs: s.feat.submitNs.Load(), featWaitNs: s.feat.waitNs.Load(),
	}
}

func (a ringSnap) sub(b ringSnap) ringSnap {
	return ringSnap{
		edgeSubmits: a.edgeSubmits - b.edgeSubmits, edgeSubmitNs: a.edgeSubmitNs - b.edgeSubmitNs,
		edgeSQEs: a.edgeSQEs - b.edgeSQEs, edgeWaitNs: a.edgeWaitNs - b.edgeWaitNs,
		featSubmitNs: a.featSubmitNs - b.featSubmitNs, featWaitNs: a.featWaitNs - b.featWaitNs,
	}
}

// reportIO sets the uring and cache metrics of a traced pass that ran
// ops operations (batches or requests).
func reportIO(r *run, rs ringSnap, io core.IOStats, ops int64) {
	n := float64(ops)
	r.set("uring.submit_ms", ratio(float64(rs.edgeSubmitNs)/1e6, n))
	r.set("uring.wait_ms", ratio(float64(rs.edgeWaitNs)/1e6, n))
	r.set("uring.sqes_per_submit", ratio(float64(rs.edgeSQEs), float64(rs.edgeSubmits)))
	r.set("uring.feat_submit_ms", ratio(float64(rs.featSubmitNs)/1e6, n))
	r.set("uring.feat_wait_ms", ratio(float64(rs.featWaitNs)/1e6, n))
	r.set("uring.syscalls_per_batch", ratio(float64(io.SubmitSyscalls+io.WaitSyscalls), n))
	r.set("uring.retries", float64(io.Retries))
	r.set("cache.nbr_hit_ratio", ratio(float64(io.CacheHits), float64(io.CacheHits+io.CacheMisses)))
	r.set("cache.feat_hit_ratio", ratio(float64(io.FeatCacheHits), float64(io.FeatCacheHits+io.FeatCacheMisses)))
	r.set("cache.bytes_saved_mb", float64(io.CacheBytes+io.FeatCacheBytes)/1e6)
}

// replayItem is one batch or request chunk to replay hop by hop.
type replayItem struct {
	targets  []uint32
	fanouts  []int
	seed     uint64 // the chunk seed (Mix(seed, index))
	features bool
	want     uint64 // digest the timed run produced
}

// replayWorkerID keeps the replay worker's rings apart from the
// engine's own workers in the ring hook.
const replayWorkerID = 1 << 20

// replayHops replays items on one pinned worker of s, one hop at a time
// through Worker.SampleLayer and core.NextFrontierFor, then whole
// through SampleBatchOpts. Each rebuilt batch must reproduce the
// digest of the timed run. It reports the core.* metrics.
func replayHops(r *run, s *core.Sampler, hook *ringHook, items []replayItem) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	w, err := s.NewWorker(replayWorkerID)
	if err != nil {
		return fmt.Errorf("replay worker: %w", err)
	}
	defer w.Close()
	tr := r.tr
	var entries, frontier [3]float64
	var sampled, featMs float64
	before := w.IOStats()
	for k, it := range items {
		op := int64(k)
		bid, bstart := tr.begin()
		b := &core.Batch{Layers: make([]core.Layer, len(it.fanouts))}
		front := it.targets
		state := core.ChunkSeedState(it.seed)
		for li, f := range it.fanouts {
			hid, hstart := tr.begin()
			hook.setParent(replayWorkerID, hid)
			layer, next, err := w.SampleLayer(front, core.LayerParams{Layer: li, Fanout: f, RNGState: state})
			tr.end(hid, bid, fmt.Sprintf("core.hop%d", li), op, hstart)
			if err != nil {
				return fmt.Errorf("replay hop %d: %w", li, err)
			}
			b.Layers[li], state = *layer, next
			if li < len(entries) {
				entries[li] += float64(len(layer.Neighbors))
				frontier[li] += float64(len(layer.Targets))
			}
			sampled += float64(len(layer.Neighbors))
			if li+1 < len(it.fanouts) {
				did, dstart := tr.begin()
				front, err = core.NextFrontierFor("", layer, nil)
				tr.end(did, bid, "core.dedup", op, dstart)
				if err != nil {
					return err
				}
			}
		}
		if it.features {
			fid, fstart := tr.begin()
			hook.setParent(replayWorkerID, fid)
			t0 := time.Now()
			nodes := core.FeatNodeUnion(b)
			feats, err := w.FetchFeatures(nodes)
			featMs += float64(time.Since(t0).Nanoseconds()) / 1e6
			tr.end(fid, bid, "core.feat_fetch", op, fstart)
			if err != nil {
				return fmt.Errorf("replay features: %w", err)
			}
			b.FeatNodes, b.Features, b.FeatureDim = nodes, feats, r.graph.FeatureDim
		}
		hook.setParent(replayWorkerID, 0)
		tr.end(bid, 0, "core.batch", op, bstart)
		r.check(b.Digest() == it.want, "traced hop replay of item %d: digest %016x, timed run had %016x", k, b.Digest(), it.want)
	}
	after := w.IOStats()

	var lat []float64
	for k, it := range items {
		t0 := time.Now()
		b, err := w.SampleBatchOpts(it.targets, core.BatchOpts{Fanouts: it.fanouts, Seed: it.seed, Features: it.features})
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			return fmt.Errorf("replay batch: %w", err)
		}
		r.check(b.Digest() == it.want, "whole-batch replay of item %d: digest %016x, timed run had %016x", k, b.Digest(), it.want)
	}

	n := float64(len(items))
	self := selfByName(tr.snapshot())
	for li := 0; li < len(entries); li++ {
		r.set(fmt.Sprintf("core.hop%d_ms", li), ratio(self[fmt.Sprintf("core.hop%d", li)], n))
		r.set(fmt.Sprintf("core.hop%d_entries", li), ratio(entries[li], n))
		r.set(fmt.Sprintf("core.hop%d_frontier", li), ratio(frontier[li], n))
	}
	r.set("core.dedup_ms", ratio(self["core.dedup"], n))
	r.set("core.feat_fetch_ms", ratio(featMs, n))
	r.set("core.batch_p50_ms", median(lat))
	dev := float64(after.BytesRead - before.BytesRead + after.AlignSlackBytes - before.AlignSlackBytes)
	r.set("core.device_bytes_per_entry", ratio(dev, 4*sampled))
	return nil
}

// reportOverhead reports how much slower the traced pass was than the
// untraced one, in percent of the untraced figure.
func reportOverhead(r *run, untraced, traced float64, higherIsBetter bool) {
	pct := 0.0
	if higherIsBetter {
		pct = 100 * (ratio(untraced, traced) - 1)
	} else {
		pct = 100 * (ratio(traced, untraced) - 1)
	}
	r.set("trace.overhead_pct", pct)
	r.set("trace.spans", float64(len(r.tr.snapshot())))
}
