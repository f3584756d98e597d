package core

import (
	"fmt"
	"log"
	"os"
	"sync"
	"syscall"

	"ringsampler/internal/cache"
	"ringsampler/internal/memctl"
	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// Sampler is the real RingSampler engine over an opened dataset. It is
// cheap and immutable; per-thread state lives in Workers.
type Sampler struct {
	ds      *storage.Dataset
	cfg     Config
	backend uring.Backend
	// active is the effective fast-path knob set after capability
	// downgrades — what workers actually run, as opposed to what Config
	// requested.
	active activeKnobs
	// hot is the shared hot-neighbor cache (nil when disabled):
	// immutable after New, so workers consult it with no
	// synchronization.
	hot *cache.Hot
	// featHot is the shared hot-node feature cache (nil when disabled),
	// immutable like hot.
	featHot *cache.Hot
	// defStrat is the pre-resolved Config.Strategy (uniform when
	// unset), consulted lock-free on every batch. Per-batch overrides
	// resolve through the lazily built strats registry.
	defStrat Strategy
	stratMu  sync.Mutex
	strats   map[string]Strategy
}

// activeKnobs is the resolved fast-path feature set. fixed means the
// PrepReadFixed path runs (kernel-registered on the real backend,
// emulated on pool/sim); regFiles is real-backend-only.
type activeKnobs struct {
	fixed    bool
	regFiles bool
}

// resolveKnobs intersects the requested knobs with what the backend and
// kernel grant, logging each downgrade once (at Sampler construction)
// so a benchmark never silently measures less than it claims.
func resolveKnobs(cfg *Config, backend uring.Backend, ds *storage.Dataset) activeKnobs {
	var a activeKnobs
	if backend == uring.BackendIOURing {
		caps := uring.Probe()
		a.fixed = cfg.FixedBuffers && caps.ReadFixed
		a.regFiles = cfg.RegisteredFiles && caps.RegisteredFiles
		if cfg.FixedBuffers && !caps.ReadFixed {
			log.Printf("core: fixed buffers requested but unavailable (caps %s); using plain reads", caps)
		}
		if cfg.RegisteredFiles && !caps.RegisteredFiles {
			log.Printf("core: registered files requested but unavailable (caps %s); using raw fds", caps)
		}
	} else {
		// Pool/sim emulate fixed-buffer validation, so that code path is
		// genuinely exercised; registered files have no portable
		// equivalent and stay off (documented accept-and-ignore).
		a.fixed = cfg.FixedBuffers
	}
	if err := ds.DirectFallback(); err != nil {
		log.Printf("core: O_DIRECT requested but fell back to buffered reads: %v", err)
	}
	return a
}

// New validates the configuration and binds the engine to a ring
// backend. BackendIOURing fails fast here when the environment doesn't
// support it (callers gate on uring.Probe()). When
// Config.CacheBudgetBytes (or FeatureCacheBudgetBytes) is positive the
// corresponding hot cache is populated here, degree-first, charged
// against a memctl budget of that size.
func New(ds *storage.Dataset, cfg Config, backend uring.Backend) (*Sampler, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if backend == uring.BackendIOURing && !uring.Probe().Ring {
		return nil, fmt.Errorf("core: io_uring backend requested but unavailable; use %s", uring.BackendPool)
	}
	if cfg.FetchFeatures && !ds.HasFeatures() {
		return nil, fmt.Errorf("core: FetchFeatures set but dataset %s has no feature file", ds.Dir())
	}
	if cfg.FeatureCacheBudgetBytes > 0 && !ds.HasFeatures() {
		return nil, fmt.Errorf("core: feature cache budget set but dataset %s has no feature file", ds.Dir())
	}
	if ds.IsSharded() && !cfg.OffsetSampling {
		// Full-fetch reads every frontier node's complete list; a shard
		// only stores its owned nodes' lists, so the ablation baseline is
		// a single-node-only mode.
		return nil, fmt.Errorf("core: shard dataset %s requires OffsetSampling", ds.Dir())
	}
	s := &Sampler{ds: ds, cfg: cfg, backend: backend}
	s.active = resolveKnobs(&s.cfg, backend, ds)
	if cfg.CacheBudgetBytes > 0 {
		hot, err := cache.Build(ds, memctl.New(cfg.CacheBudgetBytes))
		if err != nil {
			return nil, fmt.Errorf("core: build hot-neighbor cache: %w", err)
		}
		s.hot = hot
	}
	if cfg.FeatureCacheBudgetBytes > 0 {
		fh, err := cache.BuildFeatures(ds, memctl.New(cfg.FeatureCacheBudgetBytes))
		if err != nil {
			return nil, fmt.Errorf("core: build hot-node feature cache: %w", err)
		}
		s.featHot = fh
	}
	// Resolve the default strategy eagerly so a misnamed Config.Strategy
	// (or a failing weighted alias build) surfaces here, not mid-epoch.
	def, err := s.buildStrategy(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	s.defStrat = def
	return s, nil
}

// Config returns the engine configuration.
func (s *Sampler) Config() Config { return s.cfg }

// CacheInfo returns the hot-neighbor cache's pinned node count and
// cached list bytes — zeros when the cache is disabled.
func (s *Sampler) CacheInfo() (nodes int, bytes int64) {
	return s.hot.Nodes(), s.hot.Bytes()
}

// FeatureCacheInfo returns the hot-node feature cache's pinned node
// count and cached vector bytes — zeros when the cache is disabled.
func (s *Sampler) FeatureCacheInfo() (nodes int, bytes int64) {
	return s.featHot.Nodes(), s.featHot.Bytes()
}

// Worker is one sampling thread (paper Fig 3a): private rings, a
// private RNG, and private offset/neighbor/target workspaces. Workers
// share nothing, so an epoch runs them with zero synchronization.
// A Worker is not safe for concurrent use.
//
// The worker drives up to two files through identical ring machinery:
// the edge file (always) and the feature file (lazily, on the first
// feature fetch). Each gets its own rio driver; the stages never
// overlap in time — the feature stage runs only after every sampling
// layer's reads have completed — so the two drivers safely share the
// worker's arena, layer buffer, and scratch pool.
type Worker struct {
	s     *Sampler
	id    int
	rng   sample.RNG
	stats IOStats

	// edge drives reads against the edge file; feat against the feature
	// file (feat.ring stays nil until ensureFeat).
	edge rio
	feat rio

	// broken marks a worker one of whose rings may still hold
	// completions that could not be drained. SampleBatch refuses such a
	// worker.
	broken bool

	// Fast-path state, fixed at construction.
	arena      []byte // registered fixed-buffer arena (nil when fixed is off)
	stageArena []byte // the arena prefix stage buffers may use (the rest backs scratch slots)

	// Scratch pool for gather reads and O_DIRECT windows, shared by both
	// rios: scratchSlots slots, each leased by one request.
	slots     []scratchSlot
	freeSlots []int

	// bufFixed records that the current layer buffer is the arena
	// prefix, so (buffered-path) reads into it may use PrepReadFixed.
	bufFixed bool

	// Workspaces, reused across batches (paper §3.1).
	frontier    []uint32     // target workspace (strategies rebuild it between layers)
	featNodes   []uint32     // feature stage: batch node-union accumulation
	buf         []byte       // current stage buffer (arena prefix or heapBuf)
	heapBuf     []byte       // heap backing for stages that skip the arena
	idxs        []int        // fanout-index scratch
	sel         []int32      // full-fetch mode: chosen in-list indices
	nodePos     []int64      // full-fetch mode: per-node buffer position
	cachedPicks []cachedPick // cache-served byte ranges awaiting copy
}

// rio is one ring-I/O driver: a ring over one file, the planner that
// coalesces the stage's picks into reads of that file, and the
// in-flight request state needed to push those reads through the ring
// with retry-with-resubmit, scratch windows, and quarantine
// bookkeeping. The worker has one for the edge file and one for the
// feature file; they differ only in the file, its alignment, the entry
// stride, and which IOStats counters completed reads land in (shared
// retry-machinery counters stay on the worker).
type rio struct {
	w    *Worker
	ring uring.Ring
	plan planner

	// reads/bytesRead point at the IOStats counters this driver's
	// completed reads accumulate into (Reads/BytesRead for the edge
	// file, FeatReads/FeatBytesRead for features).
	reads     *int64
	bytesRead *int64

	// inflight counts requests submitted to the ring whose completions
	// have not been harvested yet. It persists across issue() calls
	// precisely so a failed batch can be quarantined: requests still in
	// flight when issue surfaces an error must be drained before the
	// worker samples again, or the next batch's Wait would harvest
	// stale CQEs whose IDs index into the new request table.
	inflight int
	// ringFailed records a ring-level failure (Submit/Wait error, or a
	// contract-breaking stall) during the last batch; quarantine turns
	// it into the worker's broken.
	ringFailed bool

	reqs   []ioReq // in-flight request state (retry bookkeeping)
	retryQ []int   // request IDs awaiting resubmission
}

// scratchSlots is the worker's scratch pool size: at most this many
// gather reads and O_DIRECT windows are in flight at once, so scratch
// memory is scratchSlots pages whatever the stage size. Staging waits
// for completions when every slot is leased.
const scratchSlots = 64

// scratchSlot is one page-sized, 4096-aligned scratch buffer. big
// carries the rare O_DIRECT window wider than a page (a long direct
// run, or a record straddling a page boundary); it is heap memory,
// grown to the largest such window and reused.
type scratchSlot struct {
	page  []byte
	fixed bool // page lies in the registered arena: reads may use PrepReadFixed
	big   []byte
}

// cachedPick is one cache-served byte range: src is cached file bytes,
// bufPos the stage-buffer position they land at. Copies are deferred
// because the buffer is sized only after planning completes.
type cachedPick struct {
	bufPos int64
	src    []byte
}

// zeroEntry is the placeholder bytes a shard writes for a non-owned
// node's pick (never read back as a neighbor value: the router replaces
// the span with the owning shard's bytes).
var zeroEntry = make([]byte, storage.EntryBytes)

// ioReq is the live state of run i while it is in flight: the byte
// range still outstanding (which shrinks as short-read prefixes land)
// and how many retries it has consumed. A direct run on a buffered file
// reads straight into the stage buffer; every other run reads its
// window — the span, or under O_DIRECT the aligned window around it —
// into a scratch slot (scratch != nil), and its segments are copied out
// at completion. O_DIRECT offsets stay aligned across resubmission by
// rounding progress down.
type ioReq struct {
	off      int64 // next file byte offset to read
	bufPos   int64 // direct reads: write position in the stage buffer
	remain   int64 // bytes still outstanding
	attempts int
	fixed    bool // destination is registered: prep via PrepReadFixed

	// Scratch window state (scratch == nil for direct buffered reads).
	scratch  []byte // window destination (slot-backed)
	slot     int    // scratch slot index (-1 when none held)
	wStart   int64  // window start offset
	devBytes int64  // device bytes delivered for this request so far
}

// NewWorker creates worker `id` with its own edge ring (and, when the
// fixed knob is active, its own registered arena). Distinct ids sample
// independent streams; equal (Seed, id) pairs sample bit-identically.
func (s *Sampler) NewWorker(id int) (*Worker, error) {
	w := &Worker{
		s:   s,
		id:  id,
		rng: sample.NewRNG(sample.Mix(s.cfg.Seed, uint64(id))),
	}
	if s.active.fixed {
		// 4096-aligned so arena-backed slices satisfy any O_DIRECT
		// granularity the dataset probe settled on.
		w.arena = storage.AlignedSlice(DefaultArenaBytes, 4096)
	}
	w.initSlots()
	ring, err := w.openRing(s.ds.File())
	if err != nil {
		return nil, err
	}
	w.edge = rio{
		w: w, ring: ring,
		plan:      newPlanner(storage.EntryBytes, s.ds.EntryBase(), s.ds.DirectAlign()),
		reads:     &w.stats.Reads,
		bytesRead: &w.stats.BytesRead,
	}
	w.stats.ActiveFixed = s.active.fixed
	w.stats.ActiveRegFiles = s.active.regFiles
	w.stats.ActiveODirect = w.edge.plan.align > 0
	return w, nil
}

// initSlots builds the scratch pool. When the registered arena can
// spare it, the pool is the arena's tail, so gather reads and O_DIRECT
// windows may use PrepReadFixed, and stage buffers keep the prefix;
// otherwise it is one heap allocation.
func (w *Worker) initSlots() {
	pool := scratchSlots * pageBytes
	w.stageArena = w.arena
	var backing []byte
	fixed := int64(len(w.arena)) >= 2*pool
	if fixed {
		tail := storage.AlignDown(int64(len(w.arena))-pool, 4096)
		w.stageArena, backing = w.arena[:tail], w.arena[tail:]
	} else {
		backing = storage.AlignedSlice(int(pool), 4096)
	}
	w.slots = make([]scratchSlot, scratchSlots)
	for i := range w.slots {
		lo := int64(i) * pageBytes
		w.slots[i] = scratchSlot{page: backing[lo : lo+pageBytes], fixed: fixed}
	}
}

// openRing builds one worker ring over f with the sampler's resolved
// options (arena registration, registered file) and applies the
// WrapRing hook. Used for the edge ring at construction and the feature
// ring on first feature fetch.
func (w *Worker) openRing(f *os.File) (uring.Ring, error) {
	s := w.s
	opts := uring.Options{
		Entries:      s.cfg.RingSize,
		RegisterFile: s.active.regFiles,
	}
	if w.arena != nil {
		opts.FixedBuffers = [][]byte{w.arena}
	}
	ring, err := uring.NewWith(s.backend, f, opts)
	if err != nil {
		return nil, err
	}
	if s.cfg.WrapRing != nil {
		wrapped, werr := s.cfg.WrapRing(ring, w.id)
		if werr != nil {
			// Close the inner ring, not the hook's return value — a
			// failing hook typically returns nil.
			ring.Close()
			return nil, fmt.Errorf("core: wrap worker %d ring: %w", w.id, werr)
		}
		ring = wrapped
	}
	return ring, nil
}

// ensureFeat lazily opens the worker's feature ring. Lazy so workers on
// featureful datasets cost nothing extra until a batch actually wants
// features.
func (w *Worker) ensureFeat() error {
	if w.feat.ring != nil {
		return nil
	}
	ds := w.s.ds
	if !ds.HasFeatures() {
		return fmt.Errorf("core: dataset %s has no feature file", ds.Dir())
	}
	ring, err := w.openRing(ds.FeatureFile())
	if err != nil {
		return fmt.Errorf("core: worker %d feature ring: %w", w.id, err)
	}
	featBase, _ := ds.ShardRange()
	w.feat = rio{
		w: w, ring: ring,
		plan:      newPlanner(ds.FeatureStride(), featBase, ds.FeatureAlign()),
		reads:     &w.stats.FeatReads,
		bytesRead: &w.stats.FeatBytesRead,
	}
	if w.feat.plan.align > 0 {
		w.stats.ActiveODirect = true
	}
	return nil
}

// Close releases the worker's rings.
func (w *Worker) Close() error {
	err := w.edge.ring.Close()
	if w.feat.ring != nil {
		if ferr := w.feat.ring.Close(); err == nil {
			err = ferr
		}
	}
	return err
}

// IOStats returns the worker's accumulated ring-level I/O counters,
// with each ring's own syscall counters folded in when the backend
// reports them.
func (w *Worker) IOStats() IOStats {
	st := w.stats
	for _, ring := range []uring.Ring{w.edge.ring, w.feat.ring} {
		if ring == nil {
			continue
		}
		if sr, ok := ring.(uring.SyscallReporter); ok {
			sys := sr.Syscalls()
			st.SubmitSyscalls += sys.Submits
			st.WaitSyscalls += sys.Waits
		}
	}
	return st
}

// Broken reports whether one of the worker's rings could not be proven
// empty after a failed batch (see ErrWorkerBroken). Pools that lease
// workers across requests use it to retire a worker eagerly instead of
// discovering the refusal on the next SampleBatch.
func (w *Worker) Broken() bool { return w.broken }

// SampleBatchSeeded reseeds the worker's RNG to NewRNG(seed) and then
// samples one mini-batch. This is the epoch runner's path to
// thread-count invariance: the sample set becomes a pure function of
// (dataset, config, seed) — independent of which worker runs the batch
// and of how many workers exist — where SampleBatch continues the
// worker's rolling per-(Seed, id) stream.
func (w *Worker) SampleBatchSeeded(targets []uint32, seed uint64) (*Batch, error) {
	w.rng.Reseed(seed)
	return w.sampleBatch(targets, w.s.cfg.Fanouts, w.s.cfg.FetchFeatures, w.s.defStrat)
}

// SampleBatchFanouts reseeds the RNG and samples one mini-batch with
// per-call fanouts overriding the engine config — the serving layer's
// path: one leased worker serves requests with heterogeneous fanouts
// back to back, and the explicit reseed keeps each request's samples a
// pure function of (dataset, targets, fanouts, seed), independent of
// what the worker ran before.
func (w *Worker) SampleBatchFanouts(targets []uint32, fanouts []int, seed uint64) (*Batch, error) {
	return w.SampleBatchOpts(targets, BatchOpts{Fanouts: fanouts, Seed: seed})
}

// BatchOpts parameterizes one SampleBatchOpts call.
type BatchOpts struct {
	// Fanouts overrides the engine config's per-layer sample counts.
	// Must be non-empty.
	Fanouts []int
	// Seed reseeds the worker RNG before sampling (see
	// SampleBatchFanouts).
	Seed uint64
	// Features runs the feature stage for this batch even when
	// Config.FetchFeatures is off — the serving layer's per-request
	// switch.
	Features bool
	// Strategy names the draw strategy for this batch, overriding
	// Config.Strategy; empty falls through to the engine default. The
	// serving layer validates names before queueing (ValidStrategy), so
	// an unknown name here is a programming error surfaced per batch.
	Strategy string
}

// SampleBatchOpts is SampleBatchFanouts with the full option set,
// including a per-call feature-stage switch.
func (w *Worker) SampleBatchOpts(targets []uint32, o BatchOpts) (*Batch, error) {
	if len(o.Fanouts) == 0 {
		return nil, fmt.Errorf("core: sample batch needs at least one fanout layer")
	}
	for i, f := range o.Fanouts {
		if f <= 0 {
			return nil, fmt.Errorf("core: fanout[%d] = %d must be positive", i, f)
		}
	}
	strat, err := w.s.strategyFor(o.Strategy)
	if err != nil {
		return nil, err
	}
	w.rng.Reseed(o.Seed)
	return w.sampleBatch(targets, o.Fanouts, o.Features || w.s.cfg.FetchFeatures, strat)
}

// SampleBatch samples the configured fanout layers for one mini-batch
// of target nodes and returns the per-layer results. All sampling
// decisions are made before any I/O is issued; what crosses the
// storage boundary depends on the config's OffsetSampling switch.
func (w *Worker) SampleBatch(targets []uint32) (*Batch, error) {
	return w.sampleBatch(targets, w.s.cfg.Fanouts, w.s.cfg.FetchFeatures, w.s.defStrat)
}

func (w *Worker) sampleBatch(targets []uint32, fanouts []int, features bool, strat Strategy) (*Batch, error) {
	if w.broken {
		return nil, fmt.Errorf("core: worker %d: %w", w.id, ErrWorkerBroken)
	}
	if w.s.ds.IsSharded() {
		// A shard can replay any layer's draws (SampleLayer) but cannot
		// produce whole batches alone: later frontiers contain nodes whose
		// bytes live on other shards. The router composes batches.
		return nil, fmt.Errorf("core: dataset %s is shard %d/%d; whole-batch sampling needs the router (see SampleLayer)",
			w.s.ds.Dir(), w.s.ds.ShardIndex(), w.s.ds.NumShards())
	}
	cfg := &w.s.cfg
	batch := &Batch{Layers: make([]Layer, len(fanouts))}
	w.frontier = append(w.frontier[:0], targets...)
	for li, fanout := range fanouts {
		layer := &batch.Layers[li]
		fan := strat.LayerFanout(li, fanout)
		if cfg.OffsetSampling {
			if err := w.sampleLayerOffset(layer, fan, strat); err != nil {
				return nil, err
			}
		} else {
			if err := w.sampleLayerFull(layer, fan, strat); err != nil {
				return nil, err
			}
		}
		// Between-layer frontier build (paper §2.1): the strategy turns
		// the sampled neighbors into the next layer's targets — sorted
		// and dedup'd for neighbor sampling, kept verbatim for walks.
		// layer.Targets holds its own copy, so reusing the frontier
		// workspace as the destination is safe.
		w.frontier = strat.NextFrontier(layer, w.frontier)
	}
	if features {
		if err := w.fetchBatchFeatures(batch); err != nil {
			return nil, err
		}
	}
	return batch, nil
}

// sampleLayerOffset is the paper's path: draw fanout entry indices
// from each node's offset range, plan the picks into page-coalesced
// reads, and land exactly those entries. Cached nodes are served from
// the hot-neighbor cache instead of planning reads — the strategy's
// draws happen first either way, so RNG consumption (and therefore the
// sampled set) is identical with the cache on or off.
func (w *Worker) sampleLayerOffset(layer *Layer, fanout int, strat Strategy) error {
	ds := w.s.ds
	hot := w.s.hot
	sharded := ds.IsSharded()
	plan := &w.edge.plan
	layer.Targets = append([]uint32(nil), w.frontier...)
	layer.Starts = make([]int64, len(w.frontier)+1)
	plan.reset()
	w.cachedPicks = w.cachedPicks[:0]
	var total int64
	for i, v := range w.frontier {
		layer.Starts[i] = total
		st, en := ds.Range(v)
		deg := int(en - st)
		if deg == 0 {
			continue
		}
		k := fanout
		if deg < k {
			k = deg
		}
		w.idxs = strat.Draw(&w.rng, v, deg, k, w.idxs[:0])
		if sharded && !ds.Owns(v) {
			// Non-owned node on a shard: the draws above already consumed
			// the exact RNG stream (degrees come from the global offset
			// index), but the neighbor bytes live on another shard.
			// Zero-fill the span so Starts stay layout-identical; the
			// router overlays the owning shard's bytes (DESIGN.md §12).
			for range w.idxs {
				w.cachedPicks = append(w.cachedPicks, cachedPick{
					bufPos: total * storage.EntryBytes,
					src:    zeroEntry,
				})
				total++
			}
			continue
		}
		if nb := hot.Lookup(v); nb != nil {
			for _, idx := range w.idxs {
				w.cachedPicks = append(w.cachedPicks, cachedPick{
					bufPos: total * storage.EntryBytes,
					src:    nb[idx*storage.EntryBytes : (idx+1)*storage.EntryBytes],
				})
				total++
			}
			w.stats.CacheHits++
			w.stats.CacheBytes += int64(k) * storage.EntryBytes
			continue
		}
		if hot != nil {
			w.stats.CacheMisses++
		}
		for _, idx := range w.idxs {
			plan.add(st+int64(idx), total*storage.EntryBytes)
			total++
		}
	}
	layer.Starts[len(w.frontier)] = total
	w.sizeBuf(total*storage.EntryBytes, plan.align)
	w.copyCached()
	if err := w.edge.issue(w.buf); err != nil {
		return err
	}
	// Picks were planned in frontier order with sequential buffer
	// positions, so the buffer is exactly the concatenated sampled
	// neighbors.
	layer.Neighbors = decodeU32(w.buf[:total*storage.EntryBytes])
	return nil
}

// sampleLayerFull is the ablation baseline (prior out-of-core
// systems, §2.2.1): fetch every node's complete neighbor list, then
// sample in memory. The fanout indices are drawn identically to the
// offset path — the two modes produce the same sample sets and differ
// only in what crosses the storage boundary.
func (w *Worker) sampleLayerFull(layer *Layer, fanout int, strat Strategy) error {
	ds := w.s.ds
	hot := w.s.hot
	plan := &w.edge.plan
	layer.Targets = append([]uint32(nil), w.frontier...)
	layer.Starts = make([]int64, len(w.frontier)+1)
	plan.reset()
	w.sel = w.sel[:0]
	w.nodePos = w.nodePos[:0]
	w.cachedPicks = w.cachedPicks[:0]
	var total, listBytes int64
	for i, v := range w.frontier {
		layer.Starts[i] = total
		w.nodePos = append(w.nodePos, listBytes)
		st, en := ds.Range(v)
		deg := int(en - st)
		if deg == 0 {
			continue
		}
		k := fanout
		if deg < k {
			k = deg
		}
		w.idxs = strat.Draw(&w.rng, v, deg, k, w.idxs[:0])
		for _, idx := range w.idxs {
			w.sel = append(w.sel, int32(idx))
		}
		total += int64(k)
		if nb := hot.Lookup(v); nb != nil {
			// Cache hit: the whole list lands at its planned buffer
			// position from memory; the in-memory selection below is
			// untouched.
			w.cachedPicks = append(w.cachedPicks, cachedPick{bufPos: listBytes, src: nb})
			w.stats.CacheHits++
			w.stats.CacheBytes += int64(deg) * storage.EntryBytes
		} else {
			if hot != nil {
				w.stats.CacheMisses++
			}
			plan.addList(st, int64(deg), listBytes)
		}
		listBytes += int64(deg) * storage.EntryBytes
	}
	layer.Starts[len(w.frontier)] = total
	w.sizeBuf(listBytes, plan.align)
	w.copyCached()
	if err := w.edge.issue(w.buf); err != nil {
		return err
	}
	layer.Neighbors = make([]uint32, 0, total)
	si := 0
	for i := range layer.Targets {
		k := int(layer.Starts[i+1] - layer.Starts[i])
		pos := w.nodePos[i]
		for _, idx := range w.sel[si : si+k] {
			off := pos + int64(idx)*storage.EntryBytes
			layer.Neighbors = append(layer.Neighbors, leU32(w.buf[off:]))
		}
		si += k
	}
	return nil
}

// fetchBatchFeatures runs the post-draw feature stage: collect the
// batch's node union (layer-0 targets plus every layer's sampled
// neighbors — deeper layers' targets are subsets of earlier neighbors),
// sort+dedup it, and fetch one vector per node through the feature
// ring. Runs strictly after all sampling layers, so it can never
// perturb the sampled node set.
func (w *Worker) fetchBatchFeatures(b *Batch) error {
	w.featNodes = w.featNodes[:0]
	for li := range b.Layers {
		if li == 0 {
			w.featNodes = append(w.featNodes, b.Layers[li].Targets...)
		}
		w.featNodes = append(w.featNodes, b.Layers[li].Neighbors...)
	}
	b.FeatNodes = append([]uint32(nil), sample.SortDedup(w.featNodes)...)
	feats, err := w.featuresFor(b.FeatNodes)
	if err != nil {
		return err
	}
	b.Features = feats
	b.FeatureDim = w.s.ds.FeatureDim()
	return nil
}

// FetchFeatures reads the feature vectors of the given nodes through
// the worker's feature ring and returns them back to back in input
// order (duplicates allowed, one stride-sized record per input entry).
// Like SampleBatch it refuses a broken worker.
func (w *Worker) FetchFeatures(nodes []uint32) ([]byte, error) {
	if w.broken {
		return nil, fmt.Errorf("core: worker %d: %w", w.id, ErrWorkerBroken)
	}
	return w.featuresFor(nodes)
}

// featuresFor plans and issues the feature reads for nodes: cached
// vectors are served from the feature cache, the rest go through the
// same page-coalescing planner as the edge path and are issued through
// the feature rio with full retry/quarantine handling.
func (w *Worker) featuresFor(nodes []uint32) ([]byte, error) {
	ds := w.s.ds
	if !ds.HasFeatures() {
		return nil, fmt.Errorf("core: dataset %s has no feature file", ds.Dir())
	}
	if err := w.ensureFeat(); err != nil {
		return nil, err
	}
	plan := &w.feat.plan
	stride := plan.stride
	// On a shard dataset only the owned range's vectors are present;
	// the router scatters feature fetches by ownership, so a non-owned
	// node here is a caller bug, rejected before any I/O. Unsharded,
	// the range is [0, NumNodes) and this is the plain bounds check.
	ownLo, ownHi := ds.ShardRange()
	hot := w.s.featHot
	plan.reset()
	w.cachedPicks = w.cachedPicks[:0]
	var total int64
	for _, v := range nodes {
		if int64(v) < ownLo || int64(v) >= ownHi {
			return nil, fmt.Errorf("core: feature fetch for node %d outside [%d,%d)", v, ownLo, ownHi)
		}
		if fb := hot.Lookup(v); fb != nil {
			w.cachedPicks = append(w.cachedPicks, cachedPick{bufPos: total * stride, src: fb})
			w.stats.FeatCacheHits++
			w.stats.FeatCacheBytes += stride
			total++
			continue
		}
		if hot != nil {
			w.stats.FeatCacheMisses++
		}
		plan.add(int64(v), total*stride)
		total++
	}
	w.sizeBuf(total*stride, plan.align)
	w.copyCached()
	if err := w.feat.issue(w.buf); err != nil {
		return nil, err
	}
	out := make([]byte, total*stride)
	copy(out, w.buf[:total*stride])
	return out, nil
}

// issue drives the planned reads through this driver's ring. With the
// asynchronous pipeline (paper Fig 3b) it keeps preparing and
// submitting further requests while earlier completions drain; the
// synchronous ablation waits for every in-flight request before
// staging more.
//
// Transient results are absorbed here rather than failing the batch:
// -EINTR/-EAGAIN resubmit the request verbatim and a short read
// resubmits exactly the remaining byte range (short-read prefixes are
// kept — they may split an entry or a feature vector mid-way, which
// byte-granular resubmission handles). Each request has a bounded retry
// budget (Config.MaxIORetries); exhaustion, or any non-retryable errno,
// surfaces as a structured *IOError.
//
// A failed batch may leave requests in flight; they are quarantined
// here — their completions drained and discarded, on BOTH of the
// worker's rings — before the error is surfaced, because a stale CQE
// harvested by the NEXT batch would be routed by its ID into that
// batch's request table: silent buffer and accounting corruption. If
// the drain itself fails the worker is marked broken and refuses
// further batches.
func (r *rio) issue(buf []byte) error {
	err := r.issueReads(buf)
	if err != nil {
		r.w.quarantine()
	}
	return err
}

// quarantine harvests and discards the completions of requests still in
// flight after a failed batch, on both rings. A ring that errors, or
// stops producing completions it owes, cannot be proven empty — the
// worker is marked broken so SampleBatch refuses to reuse it.
func (w *Worker) quarantine() {
	w.edge.drain()
	w.feat.drain()
}

// drain empties this driver's in-flight window (see quarantine).
func (r *rio) drain() {
	if r.ring == nil {
		return
	}
	for r.inflight > 0 {
		cqes, err := r.ring.Wait(r.inflight)
		if err != nil || len(cqes) == 0 {
			r.ringFailed = true
			break
		}
		r.inflight -= len(cqes)
		r.w.stats.StaleDrained += int64(len(cqes))
	}
	if r.ringFailed {
		r.w.broken = true
	}
}

// issueReads is issue's submission/completion loop over r.plan.runs. On
// error return, r.inflight counts exactly the requests still in flight
// in the ring (already-harvested completions are accounted before
// processing), and r.ringFailed records whether the ring itself failed
// — the state quarantine needs to clean up safely.
//
// Submission is deep: each pass stages every request the ring and the
// scratch pool will take — fresh runs and retries alike — and
// publishes them with ONE Submit, so a full pipeline costs one
// io_uring_enter for many reads. On the
// completion side, while more work is waiting to be staged the pass
// reaps up to half the in-flight window in one blocking Wait
// (reap-many) instead of waking per completion; once everything is
// staged it degrades to min=1 so the tail drains with maximum overlap.
func (r *rio) issueReads(buf []byte) error {
	w := r.w
	runs := r.plan.runs
	async := w.s.cfg.AsyncPipeline
	maxRetries := w.s.cfg.MaxIORetries
	if cap(r.reqs) < len(runs) {
		r.reqs = make([]ioReq, len(runs))
	}
	r.reqs = r.reqs[:len(runs)]
	r.retryQ = r.retryQ[:0]
	w.resetSlots()
	next, completed := 0, 0
	for completed < len(runs) {
		staged := 0
		// Resubmissions first: their buffer ranges block stage decode.
		for len(r.retryQ) > 0 {
			if !r.prepReq(r.retryQ[0], buf) {
				break
			}
			r.retryQ = r.retryQ[1:]
			staged++
		}
		if len(r.retryQ) == 0 {
			for next < len(runs) {
				if !r.stageNew(next, buf) {
					break
				}
				next++
				staged++
			}
		}
		if staged > 0 {
			if _, err := r.ring.Submit(); err != nil {
				// Unknown how many staged requests were published; the
				// ring cannot be proven empty again.
				r.ringFailed = true
				return err
			}
			r.inflight += staged
		}
		min := 1
		if !async {
			min = r.inflight
		} else if (len(r.retryQ) > 0 || next < len(runs)) && r.inflight > 1 {
			// Saturated: more work wants in. Reap half the window in one
			// blocking call so the refill batches are deep too.
			min = r.inflight / 2
		}
		cqes, err := r.ring.Wait(min)
		if err != nil {
			r.ringFailed = true
			return err
		}
		// Everything Wait returned has left the ring, whether or not the
		// loop below errors out mid-way — account for it up front so
		// quarantine sees the true in-flight count.
		r.inflight -= len(cqes)
		for _, c := range cqes {
			rq := &r.reqs[c.ID]
			switch {
			case c.Res < 0:
				errno := syscall.Errno(-c.Res)
				if !transientErrno(errno) {
					return &IOError{Offset: rq.off, Bytes: rq.remain, Attempts: rq.attempts, Errno: errno}
				}
				w.stats.TransientErrs++
				if rq.attempts >= maxRetries {
					return &IOError{Offset: rq.off, Bytes: rq.remain, Attempts: rq.attempts, Errno: errno}
				}
				rq.attempts++
				w.stats.Retries++
				r.retryQ = append(r.retryQ, int(c.ID))
			case int64(c.Res) > rq.remain:
				return fmt.Errorf("core: overlong read at offset %d: got %d bytes, want %d",
					rq.off, c.Res, rq.remain)
			case rq.scratch != nil:
				done, err := r.completeScratch(int(c.ID), rq, int64(c.Res), buf, maxRetries)
				if err != nil {
					return err
				}
				if done {
					completed++
				}
			case int64(c.Res) == rq.remain:
				*r.reads++
				*r.bytesRead += int64(c.Res)
				if rq.fixed {
					w.stats.FixedReads++
				}
				completed++
			default:
				// Short read: the prefix is valid — advance the request
				// window and resubmit only the tail.
				w.stats.ShortReads++
				*r.bytesRead += int64(c.Res)
				rq.off += int64(c.Res)
				rq.bufPos += int64(c.Res)
				rq.remain -= int64(c.Res)
				if rq.attempts >= maxRetries {
					return &IOError{Offset: rq.off, Bytes: rq.remain, Attempts: rq.attempts, ShortRead: true}
				}
				rq.attempts++
				w.stats.Retries++
				r.retryQ = append(r.retryQ, int(c.ID))
			}
		}
		// Stall guard: with nothing staged, nothing in flight and no
		// completions drained, the next iteration would replay this one
		// verbatim — a ring violating the never-refuse-while-idle
		// contract must surface as an error, not an infinite spin. (An
		// empty scratch pool cannot cause this: with nothing in flight
		// and no retry pending, every slot is free.)
		if staged == 0 && r.inflight == 0 && len(cqes) == 0 {
			r.ringFailed = true
			return fmt.Errorf("core: %d of %d reads complete, %d awaiting retry: %w",
				completed, len(runs), len(r.retryQ), ErrRingStalled)
		}
	}
	return nil
}

// stageNew initializes request id from its run and stages it. A direct
// run on a buffered file reads straight into the stage buffer; any
// other run leases a scratch slot for its window, and returns false
// (staging waits for completions) when every slot is leased. The slot
// is released again if the ring refuses the prep, so re-staging the
// same id later starts clean.
func (r *rio) stageNew(id int, buf []byte) bool {
	run := &r.plan.runs[id]
	rq := &r.reqs[id]
	align := r.plan.align
	if align == 0 && run.direct() {
		*rq = ioReq{off: run.off, bufPos: r.plan.segs[run.seg].bufPos, remain: run.span, fixed: r.w.bufFixed, slot: -1}
	} else {
		lo, hi := run.off, run.off+run.span
		if align > 0 {
			lo, hi = storage.AlignDown(lo, align), storage.AlignUp(hi, align)
		}
		slot, scratch, fixed, ok := r.w.getSlot(int(hi - lo))
		if !ok {
			r.w.stats.SlotWaits++
			return false
		}
		*rq = ioReq{off: lo, wStart: lo, remain: hi - lo, scratch: scratch, slot: slot, fixed: fixed}
	}
	if !r.prepReq(id, buf) {
		if rq.slot >= 0 {
			r.w.putSlot(rq.slot)
			rq.slot = -1
		}
		return false
	}
	return true
}

// prepReq stages request id's outstanding byte range into the ring,
// routing the destination (stage buffer or scratch window) and the prep
// flavor (fixed or plain) from the request state.
func (r *rio) prepReq(id int, buf []byte) bool {
	rq := &r.reqs[id]
	var dst []byte
	if rq.scratch != nil {
		pos := rq.off - rq.wStart
		dst = rq.scratch[pos : pos+rq.remain]
	} else {
		dst = buf[rq.bufPos : rq.bufPos+rq.remain]
	}
	if rq.fixed {
		return r.ring.PrepReadFixed(uint64(id), rq.off, dst, 0)
	}
	return r.ring.PrepRead(uint64(id), rq.off, dst)
}

// completeScratch handles a non-negative completion of a scratch-window
// request (a gather read, or any O_DIRECT read). The request is done as
// soon as the delivered bytes cover the run's span — which an
// EOF-straddling O_DIRECT window reaches with a short count, since its
// aligned end may lie past the file end while the span never does —
// and then each segment is copied from the window to its stage-buffer
// position. A short count that leaves span bytes uncovered resubmits the
// rest of the window into the same slot, from the progress rounded DOWN
// to the alignment under O_DIRECT (re-reading the partial block) so the
// resumed offset stays legal.
func (r *rio) completeScratch(id int, rq *ioReq, got int64, buf []byte, maxRetries int) (bool, error) {
	w := r.w
	run := &r.plan.runs[id]
	rq.devBytes += got
	covered := rq.off + got // absolute file position delivered through
	if end := run.off + run.span; covered >= end {
		base := run.off - rq.wStart
		var picked int64
		for _, s := range r.plan.segsOf(run) {
			copy(buf[s.bufPos:s.bufPos+s.n], rq.scratch[base+s.spanOff:])
			picked += s.n
		}
		*r.reads++
		*r.bytesRead += picked
		w.stats.GapBytes += run.gap
		if r.plan.align > 0 {
			w.stats.AlignSlackBytes += rq.devBytes - run.span
		}
		if rq.fixed {
			w.stats.FixedReads++
		}
		w.putSlot(rq.slot)
		rq.slot = -1
		rq.scratch = nil
		return true, nil
	}
	// Short of the span: resubmit the rest of the window.
	w.stats.ShortReads++
	if rq.attempts >= maxRetries {
		return false, &IOError{Offset: covered, Bytes: run.off + run.span - covered, Attempts: rq.attempts, ShortRead: true}
	}
	rq.attempts++
	w.stats.Retries++
	wEnd := rq.wStart + int64(len(rq.scratch))
	rq.off = covered
	if r.plan.align > 0 {
		rq.off = storage.AlignDown(covered, r.plan.align)
	}
	rq.remain = wEnd - rq.off
	r.retryQ = append(r.retryQ, id)
	return false, nil
}

// sizeBuf points w.buf at a stage buffer of n bytes: the registered
// arena's stage region when the fixed knob is on, the buffer fits, and
// the issuing file handle is buffered (O_DIRECT stages land through
// scratch windows, never straight in the stage buffer); otherwise a
// heap workspace, with plain reads.
func (w *Worker) sizeBuf(n int64, align int) {
	if w.stageArena != nil && align == 0 && n <= int64(len(w.stageArena)) {
		w.buf = w.stageArena[:n]
		w.bufFixed = true
		return
	}
	w.heapBuf = grow(w.heapBuf, n)
	w.buf = w.heapBuf
	w.bufFixed = false
}

// resetSlots returns every scratch slot to the free list. Called at the
// top of each issue pass: any slot still leased at that point belonged
// to a failed batch whose in-flight requests were quarantined, so
// reclaiming wholesale is safe.
func (w *Worker) resetSlots() {
	w.freeSlots = w.freeSlots[:0]
	for i := range w.slots {
		w.freeSlots = append(w.freeSlots, i)
	}
}

// getSlot leases a scratch slot for a win-byte window, preferring its
// page (arena-backed and fixed when the arena holds the pool) and
// falling back to the slot's grown heap buffer for wider windows. ok is
// false when every slot is leased.
func (w *Worker) getSlot(win int) (slot int, scratch []byte, fixed, ok bool) {
	if len(w.freeSlots) == 0 {
		return -1, nil, false, false
	}
	slot = w.freeSlots[len(w.freeSlots)-1]
	w.freeSlots = w.freeSlots[:len(w.freeSlots)-1]
	s := &w.slots[slot]
	if win <= len(s.page) {
		return slot, s.page[:win], s.fixed, true
	}
	if len(s.big) < win {
		s.big = storage.AlignedSlice(win, 4096)
	}
	return slot, s.big[:win], false, true
}

// putSlot returns a leased slot to the free list.
func (w *Worker) putSlot(slot int) {
	w.freeSlots = append(w.freeSlots, slot)
}

// copyCached lands every cache-served byte range in the (now sized)
// stage buffer. Cached ranges and planned runs are disjoint, so order
// relative to issue does not matter.
func (w *Worker) copyCached() {
	for _, cp := range w.cachedPicks {
		copy(w.buf[cp.bufPos:], cp.src)
	}
}

func grow(buf []byte, n int64) []byte {
	if int64(cap(buf)) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

func decodeU32(b []byte) []uint32 {
	out := make([]uint32, len(b)/storage.EntryBytes)
	for i := range out {
		out[i] = leU32(b[i*storage.EntryBytes:])
	}
	return out
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
