package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ringsampler/internal/core"
	"ringsampler/internal/gen"
	"ringsampler/internal/sample"
	"ringsampler/internal/serve"
	"ringsampler/internal/shard"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// fullCacheBytes holds the whole edge file of the benchmark graph in
// the hot-neighbor cache (list bytes plus per-node bookkeeping).
const fullCacheBytes = 128 << 20

// frontEnd is what the serve workloads need of serve.Server and
// serve.RouterServer.
type frontEnd interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
	IOStats() core.IOStats
}

// live is a started front end on a loopback port.
type live struct {
	fe   frontEnd
	base string
	done chan error
	// closers release what the front end does not own (datasets).
	closers []func()
}

func start(fe frontEnd) (*live, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &live{fe: fe, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- fe.Serve(ln) }()
	return l, nil
}

// stop drains the front end, waits for its Serve loop to return and
// releases the datasets behind it.
func (l *live) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := l.fe.Shutdown(ctx)
	if serr := <-l.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	for _, c := range l.closers {
		c()
	}
	return err
}

// scrape reads GET /metrics into name → value.
func (l *live) scrape() (map[string]float64, error) {
	resp, err := http.Get(l.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

func delta(after, before map[string]float64, name string) float64 {
	return after[name] - before[name]
}

func meanOf(after, before map[string]float64, hist string) float64 {
	return ratio(delta(after, before, hist+"_sum"), delta(after, before, hist+"_count"))
}

func serveCoreConfig(r *run, hook *ringHook) core.Config {
	cfg := core.DefaultConfig()
	cfg.Threads = r.threads
	cfg.Seed = r.seed
	cfg.CacheBudgetBytes = fullCacheBytes
	cfg.WrapRing = hook.wrap
	return cfg
}

func serveConfig(r *run, hook *ringHook) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Core = serveCoreConfig(r, hook)
	cfg.Backend = uring.BackendIOURing
	return cfg
}

// phaseDef is one fixed-rate stretch of the open loop.
type phaseDef struct {
	name string
	rate float64
	dur  time.Duration
	reqs []request
}

func (p phaseDef) warm() time.Duration { return p.dur / 10 }

// satRequests is how many distinct requests the saturation phase
// cycles through. Every neighbor list is cached, so a repeated request
// costs the server what a new one would, and the plan stays small
// beside the server's own memory in peak_rss_mb.
const satRequests = 256

// servePlan lays out a serve run, all generated from the seed up front:
// rate lo for 60% of the measured time, rate hi for 12%, then 25% of
// saturation (the last phase).
func servePlan(r *run, ds *storage.Dataset) ([]phaseDef, error) {
	sec := func(f float64) time.Duration { return time.Duration(f * r.seconds * float64(time.Second)) }
	phases := []phaseDef{
		{name: "lo", rate: r.loRPS, dur: sec(0.6)},
		{name: "hi", rate: r.hiRPS, dur: sec(0.12)},
		{name: "sat", dur: sec(0.25)},
	}
	rng := r.rng(3)
	deg := newDegreeSampler(ds)
	for i, ph := range phases {
		arrivals := make([]time.Duration, satRequests) // unpaced: all due at once
		if ph.name != "sat" {
			arrivals = poisson(rng, ph.rate, ph.dur)
		}
		var err error
		if phases[i].reqs, err = makeRequests(rng, deg, arrivals); err != nil {
			return nil, err
		}
	}
	return phases, nil
}

// servePass is what one pass of the load generator measured.
type servePass struct {
	stats      map[string]phaseStats
	outs       map[string][]outcome
	metrics    map[string][2]map[string]float64 // per phase: before, after
	saturation float64                          // answers per second at saturation
	sent       int
}

// runServePass drives the phases against l: open-loop phases on their
// schedule, and the saturation phase (named "sat") closed-loop.
func runServePass(r *run, l *live, phases []phaseDef) (*servePass, error) {
	g := newLoadgen(l.base+"/v1/sample", r.threads)
	defer g.close()
	p := &servePass{stats: map[string]phaseStats{}, outs: map[string][]outcome{}, metrics: map[string][2]map[string]float64{}}
	for _, ph := range phases {
		before, err := l.scrape()
		if err != nil {
			return nil, err
		}
		var outs []outcome
		if ph.name == "sat" {
			outs = g.saturate(ph.reqs, ph.dur)
			p.saturation = completionRate(outs, ph.warm(), ph.dur)
			fmt.Fprintf(os.Stderr, "perfbench: sat: %d requests, %.1f answered/s\n", len(outs), p.saturation)
		} else {
			outs = g.run(ph.reqs)
			st := summarise(ph.reqs, outs, ph.warm(), ph.dur)
			p.stats[ph.name] = st
			fmt.Fprintf(os.Stderr, "perfbench: %s %.0f rps: %d requests, %d failed, p50 %.2f ms, tail %.2f ms, late p99 %.2f ms, backlog %d→%d\n",
				ph.name, ph.rate, st.n, st.failed, median(st.lat), st.tail, quantile(st.late, 0.99), st.backlogMid, st.backlog)
		}
		after, err := l.scrape()
		if err != nil {
			return nil, err
		}
		p.outs[ph.name], p.metrics[ph.name] = outs, [2]map[string]float64{before, after}
		p.sent += len(outs)
		for _, o := range outs {
			r.ops.attempted++
			if !o.ok() {
				r.ops.failed++
			}
		}
	}
	return p, nil
}

// checkDigests replays every distinct request on one pinned worker of
// an uncached engine over the same graph, with the request's chunk
// seed, and compares each answer's digest with it. It returns each
// answered request's sampled entries.
func checkDigests(r *run, ds *storage.Dataset, phases []phaseDef, p *servePass) (map[string][]int64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cfg := serveCoreConfig(r, newRingHook(r.rings, nil))
	cfg.CacheBudgetBytes = 0
	s, err := core.New(ds, cfg, uring.BackendIOURing)
	if err != nil {
		return nil, err
	}
	w, err := s.NewWorker(0)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	sampled := make(map[string][]int64)
	for _, ph := range phases {
		outs, ran := p.outs[ph.name]
		if !ran {
			continue
		}
		sampled[ph.name] = make([]int64, len(outs))
		type ref struct {
			digest  string
			entries int64
		}
		refs := make(map[int]ref)
		for i, o := range outs {
			if !o.ok() {
				continue
			}
			k := i % len(ph.reqs)
			want, seen := refs[k]
			if !seen {
				q := ph.reqs[k]
				b, err := w.SampleBatchOpts(q.targets, core.BatchOpts{Fanouts: serveFanouts, Seed: sample.Mix(q.seed, 0), Features: q.features})
				if err != nil {
					return nil, fmt.Errorf("replay %s request %d: %w", ph.name, k, err)
				}
				want = ref{fmt.Sprintf("%016x", b.Digest()), b.TotalSampled()}
				refs[k] = want
			}
			sampled[ph.name][i] = want.entries
			if o.digest != want.digest {
				r.ops.failed++
				r.check(false, "%s request %d: digest %s, direct replay %s", ph.name, i, o.digest, want.digest)
			}
		}
	}
	return sampled, nil
}

// sameDigests checks that every request both passes answered got the
// same digest, and returns per phase which requests were compared.
func sameDigests(r *run, name string, got, want *servePass) map[string][]bool {
	out := make(map[string][]bool)
	for phase, outs := range got.outs {
		out[phase] = make([]bool, len(outs))
		ref := want.outs[phase]
		for i, o := range outs {
			if !o.ok() || i >= len(ref) || !ref[i].ok() {
				continue
			}
			out[phase][i] = true
			r.check(o.digest == ref[i].digest, "%s %s request %d: digest %s, untraced %s", name, phase, i, o.digest, ref[i].digest)
		}
	}
	return out
}

// reportServe sets the end-to-end serve metrics of an untraced pass.
func reportServe(r *run, p *servePass) {
	lo := p.stats["lo"]
	r.set("throughput_per_s", p.saturation)
	r.set("p50_ms", median(lo.lat))
	r.set("mean_ms", mean(lo.lat))
}

// reportServeLayers sets the serve.* and loadgen.* metrics, all of which
// are measured from outside (client side and /metrics).
func reportServeLayers(r *run, p *servePass) {
	lo, hi := p.stats["lo"], p.stats["hi"]
	m, mh := p.metrics["lo"], p.metrics["hi"]
	r.set("serve.queue_wait_ms", 1000*meanOf(m[1], m[0], "ringsampler_serve_queue_wait_seconds"))
	r.set("serve.sample_ms", 1000*meanOf(m[1], m[0], "ringsampler_serve_sample_seconds"))
	r.set("serve.microbatch_targets", meanOf(m[1], m[0], "ringsampler_serve_batch_targets"))
	r.set("serve.response_kb", ratio(lo.bytes, float64(len(lo.lat)))/1024)
	r.set("serve.lo_tail_ms", lo.tail)
	r.set("serve.hi_queue_wait_ms", 1000*meanOf(mh[1], mh[0], "ringsampler_serve_queue_wait_seconds"))
	r.set("serve.hi_p50_ms", median(hi.lat))
	r.set("serve.hi_tail_ms", hi.tail)
	r.set("loadgen.late_p99_ms", quantile(lo.late, 0.99))
	var rejected float64
	for _, mm := range p.metrics {
		rejected += delta(mm[1], mm[0], "ringsampler_serve_rejected_total")
	}
	r.set("serve.rejected", rejected)
}

// passIO sums the cache counters a pass's /metrics scrapes saw.
func passIO(p *servePass) core.IOStats {
	var io core.IOStats
	for _, mm := range p.metrics {
		d := func(n string) int64 { return int64(delta(mm[1], mm[0], n)) }
		io.CacheHits += d("ringsampler_io_cache_hits_total")
		io.CacheMisses += d("ringsampler_io_cache_misses_total")
		io.CacheBytes += d("ringsampler_io_cache_bytes_total")
		io.FeatCacheHits += d("ringsampler_io_feat_cache_hits_total")
		io.FeatCacheMisses += d("ringsampler_io_feat_cache_misses_total")
		io.FeatCacheBytes += d("ringsampler_io_feat_cache_bytes_total")
	}
	return io
}

// shardStats counts calls through the shard.Engine decorator.
type shardStats struct {
	layerCalls, layerNs, drawn atomic.Int64
}

// timedEngine is a shard.Engine decorator timing each layer call.
type timedEngine struct {
	shard.Engine
	st *shardStats
	tr *tracer
}

func (e *timedEngine) SampleLayer(ctx context.Context, frontier []uint32, p core.LayerParams) (*core.Layer, uint64, error) {
	id, start := e.tr.begin()
	t0 := time.Now()
	l, state, err := e.Engine.SampleLayer(ctx, frontier, p)
	e.st.layerNs.Add(int64(time.Since(t0)))
	e.st.layerCalls.Add(1)
	if l != nil {
		e.st.drawn.Add(int64(len(l.Neighbors)))
	}
	e.tr.end(id, 0, "shard.layer", -1, start)
	return l, state, err
}

func (e *timedEngine) Features(ctx context.Context, nodes []uint32) ([]byte, error) {
	id, start := e.tr.begin()
	b, err := e.Engine.Features(ctx, nodes)
	e.tr.end(id, 0, "shard.features", -1, start)
	return b, err
}

// buildSingle builds and starts serve.New over ds.
func buildSingle(r *run, ds *storage.Dataset, hook *ringHook) (*live, error) {
	srv, err := serve.New(ds, serveConfig(r, hook))
	if err != nil {
		return nil, err
	}
	l, err := start(srv)
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	return l, nil
}

// buildRouter partitions the graph in dir two ways and builds and
// starts serve.NewRouter over a timed shard.Local engine per shard. It
// returns how long the partition took.
func buildRouter(r *run, dir string, sst *shardStats) (*live, float64, error) {
	root := filepath.Join(dir, "shards")
	if err := os.RemoveAll(root); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	dirs, err := gen.Partition(dir, root, 2)
	if err != nil {
		return nil, 0, err
	}
	partS := time.Since(t0).Seconds()
	var closers []func()
	closeAll := func() {
		for _, c := range closers {
			c()
		}
	}
	var engines []shard.Engine
	for _, d := range dirs {
		sds, err := storage.Open(d)
		if err != nil {
			closeAll()
			return nil, 0, err
		}
		closers = append(closers, func() { sds.Close() })
		// Each engine numbers its workers from 0, so each gets its own
		// hook to keep its rings apart.
		loc, err := shard.NewLocal(sds, serveCoreConfig(r, newRingHook(r.rings, nil)), uring.BackendIOURing)
		if err != nil {
			closeAll()
			return nil, 0, err
		}
		engines = append(engines, &timedEngine{Engine: loc, st: sst, tr: r.tr})
	}
	rs, err := serve.NewRouter(engines, serveConfig(r, newRingHook(r.rings, nil)))
	if err != nil {
		for _, e := range engines {
			e.Close()
		}
		closeAll()
		return nil, 0, err
	}
	l, err := start(rs)
	if err != nil {
		rs.Shutdown(context.Background())
		closeAll()
		return nil, 0, err
	}
	l.closers = closers
	return l, partS, nil
}

// runServeSkewed sends POST /v1/sample over loopback to serve.New: an
// open loop at rates lo and hi, then saturation. Set-up is repeated
// r.setups times; the last server serves the measured pass.
func runServeSkewed(r *run) error {
	var log setupLog
	var l *live
	hook := newRingHook(r.rings, nil)
	ds, err := setUp(r, &log, func(ds *storage.Dataset) (func() error, error) {
		var err error
		if l, err = buildSingle(r, ds, hook); err != nil {
			return nil, err
		}
		return l.stop, nil
	})
	if err != nil {
		return err
	}
	defer ds.Close()
	phases, err := servePlan(r, ds)
	if err != nil {
		l.stop()
		return err
	}
	if err := startTimed(r); err != nil {
		return err
	}
	p, err := runServePass(r, l, phases)
	if err != nil {
		l.stop()
		return err
	}
	if err := reportRSS(r); err != nil {
		l.stop()
		return err
	}
	io := l.fe.IOStats()
	if err := l.stop(); err != nil {
		return err
	}
	pio := passIO(p)
	r.check(pio.CacheHits > 0 && pio.CacheMisses == 0, "%s neighbor cache hits %d misses %d, want every lookup a hit", r.workload, pio.CacheHits, pio.CacheMisses)
	sampled, err := checkDigests(r, ds, phases, p)
	if err != nil {
		return err
	}
	if err := r.recordDataset(ds, io); err != nil {
		return err
	}
	if !r.trace {
		log.report(r)
		reportServe(r, p)
		return r.complete()
	}

	// Traced pass: a fresh server over the same graph with timed rings,
	// sent the same requests.
	reportServeLayers(r, p)
	thook := r.startTrace()
	tl, err := buildSingle(r, ds, thook)
	if err != nil {
		return err
	}
	var tp *servePass
	if err := measureIO(r, func() (core.IOStats, int64, error) {
		tio0 := tl.fe.IOStats()
		var err error
		if tp, err = runServePass(r, tl, phases); err != nil {
			return core.IOStats{}, 0, err
		}
		tio := tl.fe.IOStats()
		io := passIO(tp)
		io.SubmitSyscalls, io.WaitSyscalls = tio.SubmitSyscalls-tio0.SubmitSyscalls, tio.WaitSyscalls-tio0.WaitSyscalls
		io.Retries = tio.Retries - tio0.Retries
		return io, int64(tp.sent), nil
	}); err != nil {
		tl.stop()
		return err
	}
	if err := tl.stop(); err != nil {
		return err
	}
	sameDigests(r, "traced", tp, p)

	// Router pass: the lo stream again, through serve.NewRouter over
	// two timed shard.Local engines of a 2-way gen.Partition of the same
	// graph. Its responses must equal the single node's.
	sst := new(shardStats)
	rl, partS, err := buildRouter(r, filepath.Join(r.work, "graph"), sst)
	if err != nil {
		return err
	}
	log.part = []float64{partS}
	rp, err := runServePass(r, rl, phases[:1])
	if err != nil {
		rl.stop()
		return err
	}
	if err := rl.stop(); err != nil {
		return err
	}
	var returned float64
	for i, ok := range sameDigests(r, "router", rp, p)["lo"] {
		if ok {
			returned += float64(sampled["lo"][i])
		}
	}
	r.set("shard.layer_calls_per_request", ratio(float64(sst.layerCalls.Load()), float64(rp.sent)))
	r.set("shard.layer_ms", ratio(float64(sst.layerNs.Load())/1e6, float64(sst.layerCalls.Load())))
	rr := ratio(float64(sst.drawn.Load()), returned)
	r.set("shard.replay_ratio", rr)
	r.check(rr > 1, "router replay ratio %v, want > 1", rr)
	log.report(r)

	// Per-hop replay of the first lo requests on an engine configured
	// like the server's.
	rs, err := core.New(ds, serveCoreConfig(r, thook), uring.BackendIOURing)
	if err != nil {
		return err
	}
	var items []replayItem
	for i, q := range phases[0].reqs {
		if len(items) == r.replay {
			break
		}
		if o := p.outs["lo"][i]; o.ok() {
			want, err := strconv.ParseUint(o.digest, 16, 64)
			if err != nil {
				return err
			}
			items = append(items, replayItem{targets: q.targets, fanouts: serveFanouts, seed: sample.Mix(q.seed, 0), features: q.features, want: want})
		}
	}
	if err := replayHops(r, rs, thook, items); err != nil {
		return err
	}
	reportOverhead(r, median(p.stats["lo"].lat), median(tp.stats["lo"].lat), false)
	return r.complete()
}
