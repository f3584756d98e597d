// Package serve is the online sampling service in front of the core
// engine: a long-running HTTP server that coalesces many small
// concurrent sampling requests into the micro-batches the per-thread
// ring workers are built for (paper Fig 3a), with admission control in
// front of them.
//
// The shape follows what DiskGNN and Jiang et al. argue for disk-based
// GNN serving: a single coalescing/admission layer in front of a fixed
// set of dispatcher slots, never a worker per connection —
// uncoordinated concurrent samplers destroy disk throughput, and a
// bounded queue that fast-fails beats one that queues unboundedly.
//
//	POST /v1/sample  — {"targets":[...],"fanouts":[...],"seed":N,"strategy":"..."} → layered samples
//	GET  /healthz    — liveness (503 while draining)
//	GET  /metrics    — Prometheus text: queue depth, batch-size histogram,
//	                   per-stage latency, ring IOStats, rejection counts
//
// The optional "strategy" field selects the draw strategy per request
// (DESIGN.md §11: "uniform", "weighted", "walk"; empty means the
// server default). Unknown names are rejected 400 at admission,
// before any work is queued.
//
// Determinism contract: the response to (targets, fanouts, seed,
// strategy) is byte-identical to a direct single-threaded core run —
// the request is sharded into Core.BatchSize chunks and chunk i is
// sampled with RNG seed sample.Mix(seed, i), exactly how
// core.RunEpoch seeds its mini-batches — regardless of which
// micro-batch the chunks were coalesced into, which leased worker ran
// them, or whether a router scattered them over shards.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ringsampler/internal/core"
	"ringsampler/internal/sample"
	"ringsampler/internal/shard"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// maxBodyBytes bounds how much request JSON a client can make the
// server buffer.
const maxBodyBytes = 8 << 20

// Config controls the serving layer. Zero values for the serving knobs
// select the documented defaults; Core carries the engine config
// (Core.Threads is the number of dispatcher slots, Core.BatchSize the
// chunking granularity of the determinism contract).
type Config struct {
	// Core is the engine configuration behind the slots.
	Core core.Config
	// Backend selects the ring backend; empty picks io_uring when the
	// environment supports it, the portable pread pool otherwise.
	Backend uring.Backend
	// QueueDepth bounds the admission queue in jobs (chunks). A full
	// queue fast-fails new requests with 429 instead of queuing
	// unboundedly. Behind a router it also bounds the jobs in flight.
	// Default 256.
	QueueDepth int
	// BatchWindow is how long the dispatcher waits for more jobs after
	// a group's first job before flushing a partial micro-batch.
	// Default 2ms.
	BatchWindow time.Duration
	// MaxBatchTargets flushes a micro-batch as soon as it holds this
	// many targets. Default Core.BatchSize.
	MaxBatchTargets int
	// MaxTargetsPerRequest rejects oversized requests with 400.
	// Default 4 × Core.BatchSize.
	MaxTargetsPerRequest int
	// MaxFanoutLayers / MaxFanout bound per-request fanout shapes
	// (frontier explosion guard). Defaults 8 and 256.
	MaxFanoutLayers int
	MaxFanout       int
	// DefaultTimeout is the per-request deadline when the client sends
	// none; MaxTimeout caps client-requested deadlines. Defaults 10s
	// and 60s.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
}

// DefaultConfig returns the serving defaults over the engine defaults.
func DefaultConfig() Config {
	return Config{
		Core:           core.DefaultConfig(),
		QueueDepth:     256,
		BatchWindow:    2 * time.Millisecond,
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     60 * time.Second,
	}
}

func (c *Config) fillDefaults() {
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxBatchTargets == 0 {
		c.MaxBatchTargets = c.Core.BatchSize
	}
	if c.MaxTargetsPerRequest == 0 {
		c.MaxTargetsPerRequest = 4 * c.Core.BatchSize
	}
	if c.MaxFanoutLayers == 0 {
		c.MaxFanoutLayers = 8
	}
	if c.MaxFanout == 0 {
		c.MaxFanout = 256
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.Backend == "" {
		if uring.Probe().Ring {
			c.Backend = uring.BackendIOURing
		} else {
			c.Backend = uring.BackendPool
		}
	}
}

func (c *Config) validate() error {
	if c.QueueDepth < 1 {
		return fmt.Errorf("serve: queue depth %d must be positive", c.QueueDepth)
	}
	if c.BatchWindow < 0 {
		return fmt.Errorf("serve: batch window %v must be non-negative", c.BatchWindow)
	}
	if c.MaxBatchTargets < 1 {
		return fmt.Errorf("serve: max batch targets %d must be positive", c.MaxBatchTargets)
	}
	if c.MaxTargetsPerRequest < 1 {
		return fmt.Errorf("serve: max targets per request %d must be positive", c.MaxTargetsPerRequest)
	}
	return nil
}

// Server is the running service: HTTP front end + bounded admission
// queue + micro-batching dispatcher + Core.Threads dispatcher slots.
// A slot runs each job on a worker leased from a shard.Local (New), or
// scatters it over a partition through a shard.Router (NewRouter).
// That step is the only one the two differ in, besides the /v1/shard/*
// endpoints a single node also answers. Serve with Serve, stop with
// Shutdown.
type Server struct {
	cfg Config
	met *metrics
	// Exactly one of local and rt is set, and eng is that one. local
	// also answers the shard protocol (/v1/shard/*) over the same
	// sampler, so a single-node server can serve as one shard of a
	// partition — or as the sole shard of a 1-partition — behind a
	// router.
	local *shard.Local
	rt    *shard.Router
	eng   interface {
		Stats() core.IOStats
		Retired() int64
		Close() error
	}
	// routed holds one token per routed job in flight (nil on a single
	// node); its capacity, QueueDepth, bounds them.
	routed chan struct{}
	// ds is the single-node dataset (nil behind a router).
	ds          *storage.Dataset
	numNodes    int64
	hasFeatures bool

	queue        chan *job
	groups       chan group
	slots        sync.WaitGroup
	quit         chan struct{}
	dispatchDone chan struct{}

	http     *http.Server
	draining atomic.Bool
	// handlers tracks in-flight HTTP handlers. Shutdown waits on it
	// before stopping the dispatcher, so no handler can enqueue a job
	// after the dispatcher's final drain — the hole that used to leak
	// the queue_depth gauge on a forced drain.
	handlers sync.WaitGroup
	// baseCtx force-cancels every in-flight request when a drain
	// deadline expires.
	baseCtx    context.Context
	cancelBase context.CancelFunc
	shutOnce   sync.Once
	shutErr    error
}

// New validates the config, builds the sampler (hot cache included when
// budgeted) and the shard.Local that leases its workers, and starts the
// dispatcher. The server is live once Serve is called on a listener.
func New(ds *storage.Dataset, cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sampler, err := core.New(ds, cfg.Core, cfg.Backend)
	if err != nil {
		return nil, err
	}
	local := shard.NewLocalFrom(ds, sampler)
	return start(&Server{
		cfg:         cfg,
		local:       local,
		eng:         local,
		ds:          ds,
		numNodes:    ds.NumNodes(),
		hasFeatures: ds.HasFeatures(),
	}), nil
}

// NewRouter validates that the engines tile the graph (shard.NewRouter
// does the partition checks) and returns a server whose slots sample
// each job by scattering its layers to the engines. It holds no graph
// bytes and no RNG, so any number of router replicas can front the
// same shards; the response for (targets, fanouts, seed, strategy) is
// byte-identical — digest included — to New over the unpartitioned
// dataset (DESIGN.md §12). The engines are owned by the server from
// here on: Shutdown closes them.
func NewRouter(engines []shard.Engine, cfg Config) (*Server, error) {
	def := core.DefaultConfig()
	if len(cfg.Core.Fanouts) == 0 {
		cfg.Core.Fanouts = def.Fanouts
	}
	if cfg.Core.BatchSize == 0 {
		cfg.Core.BatchSize = def.BatchSize
	}
	if cfg.Core.Threads == 0 {
		cfg.Core.Threads = def.Threads
	}
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if !core.ValidStrategy(cfg.Core.Strategy) {
		return nil, fmt.Errorf("serve: unknown default strategy %q", cfg.Core.Strategy)
	}
	rt, err := shard.NewRouter(engines)
	if err != nil {
		return nil, err
	}
	return start(&Server{
		cfg:         cfg,
		rt:          rt,
		eng:         rt,
		routed:      make(chan struct{}, cfg.QueueDepth),
		numNodes:    rt.NumNodes(),
		hasFeatures: rt.HasFeatures(),
	}), nil
}

// start wires the HTTP routes and starts the dispatcher and its slots.
func start(s *Server) *Server {
	s.met = newMetrics()
	s.queue = make(chan *job, s.cfg.QueueDepth)
	s.groups = make(chan group)
	s.quit = make(chan struct{})
	s.dispatchDone = make(chan struct{})
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	go s.dispatch()
	s.slots.Add(s.cfg.Core.Threads)
	for range s.cfg.Core.Threads {
		go s.slot()
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sample", s.handleSample)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.local != nil {
		mux.HandleFunc("GET /v1/shard/info", s.handleShardInfo)
		mux.HandleFunc("POST /v1/shard/layer", s.handleShardLayer)
		mux.HandleFunc("POST /v1/shard/features", s.handleShardFeatures)
	}
	s.http = &http.Server{Handler: mux}
	return s
}

// Config returns the server's effective (default-filled) config.
func (s *Server) Config() Config { return s.cfg }

// Router returns the scatter/gather router behind a NewRouter server
// (nil on a single node).
func (s *Server) Router() *shard.Router { return s.rt }

// IOStats returns the merged ring-level I/O counters: every worker the
// shard.Local leased, retired ones included, or the router's engines
// summed (zeros from remote engines — their counters live in their own
// servers' /metrics).
func (s *Server) IOStats() core.IOStats { return s.eng.Stats() }

// Serve accepts connections on ln until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve(ln net.Listener) error { return s.http.Serve(ln) }

// Shutdown drains gracefully: stop admitting, let in-flight requests
// finish through the pipeline, then stop the dispatcher and close the
// engine. When ctx expires first, outstanding requests are
// force-canceled and connections closed — workers still never die
// mid-batch. Safe to call once; later calls return the first result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		s.draining.Store(true)
		// Drain HTTP first: Shutdown waits for active handlers, and every
		// handler waits for its jobs, so the queue empties through the
		// slots before the pipeline is stopped.
		err := s.http.Shutdown(ctx)
		if err != nil {
			// Deadline expired mid-drain: cancel every in-flight request
			// (handlers unblock via their contexts) and force connections
			// closed.
			s.cancelBase()
			s.http.Close()
		}
		// Every handler that could enqueue jobs did handlers.Add before
		// its draining check; once Wait returns, no new job can enter the
		// queue, so stopping the dispatcher cannot strand a later one.
		s.handlers.Wait()
		close(s.quit)
		<-s.dispatchDone
		// Abandonment sweep: anything still queued was admitted without a
		// consumer left to run it. Release each job's queue_depth
		// increment and report it, so the gauge provably returns to zero
		// and no request waits forever on a chunk nobody will run.
		for {
			select {
			case j := <-s.queue:
				s.met.queueDepth.Add(-1)
				s.met.canceledJobs.Add(1)
				j.finish(nil, context.Canceled)
				continue
			default:
			}
			break
		}
		s.slots.Wait()
		if cerr := s.eng.Close(); err == nil {
			err = cerr
		}
		s.cancelBase()
		s.shutErr = err
	})
	return s.shutErr
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w, s.eng.Stats(), s.eng.Retired(), s.cfg.Core.Threads, s.cfg.QueueDepth)
}

// sampleRequest is the POST /v1/sample body.
type sampleRequest struct {
	// Targets are the nodes to sample neighborhoods for.
	Targets []uint32 `json:"targets"`
	// Fanouts are the per-layer sample counts, outermost first; empty
	// uses the server's configured fanouts.
	Fanouts []int `json:"fanouts,omitempty"`
	// Seed drives the request's sampling randomness; equal requests
	// with equal seeds get byte-identical responses.
	Seed uint64 `json:"seed"`
	// Strategy names the draw strategy for this request ("uniform",
	// "weighted", "walk"); empty uses the server's configured default.
	// Unknown names are rejected with 400 before any work is queued.
	Strategy string `json:"strategy,omitempty"`
	// Features runs the feature stage per batch: each response batch
	// carries the deduplicated node union and its raw f32 feature
	// vectors (base64 in JSON). Also settable via the ?features=true
	// query parameter. Requires a dataset with a feature file (400
	// otherwise).
	Features bool `json:"features,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline
	// (capped at the server's MaxTimeout).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

type layerJSON struct {
	Targets   []uint32 `json:"targets"`
	Starts    []int64  `json:"starts"`
	Neighbors []uint32 `json:"neighbors"`
}

type batchJSON struct {
	Layers []layerJSON `json:"layers"`
	// Feature payload (present only when the request asked for
	// features): the batch's deduplicated node union, the per-node
	// vector width, and the raw little-endian f32 vectors back to back
	// in FeatNodes order — []byte, so encoding/json renders base64.
	FeatNodes  []uint32 `json:"feat_nodes,omitempty"`
	FeatureDim int      `json:"feature_dim,omitempty"`
	Features   []byte   `json:"features,omitempty"`
	Digest     string   `json:"digest"`
}

// sampleResponse is the POST /v1/sample reply: one batch per
// Core.BatchSize chunk of the request's targets (a request at or under
// the chunk size gets exactly one).
type sampleResponse struct {
	Batches []batchJSON `json:"batches"`
	// Digest folds the per-batch digests (FNV-style), hex-encoded —
	// uint64s don't survive JSON number precision.
	Digest    string  `json:"digest"`
	Sampled   int64   `json:"sampled_entries"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) badRequest(w http.ResponseWriter, msg string) {
	s.met.badRequests.Add(1)
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: msg})
}

// checkTargets validates every target against the graph's node count.
// The comparison is deliberately 64-bit: narrowing NumNodes to uint32
// first would make a manifest with ≥ 2^32 nodes wrap, and targets
// would be accepted or rejected against the count's low 32 bits.
func checkTargets(targets []uint32, numNodes int64) error {
	for i, v := range targets {
		if int64(v) >= numNodes {
			return fmt.Errorf("target[%d] = %d out of range (graph has %d nodes)", i, v, numNodes)
		}
	}
	return nil
}

// validateSample is the whole admission check of POST /v1/sample:
// it decodes the body, resolves the ?features query flag, the default
// fanouts and the default strategy into the returned request, and
// returns the per-request timeout — or the message for a 400.
func (c *Config) validateSample(r *http.Request, numNodes int64, hasFeatures bool) (sampleRequest, time.Duration, error) {
	var req sampleRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(&req); err != nil {
		return req, 0, fmt.Errorf("malformed JSON: %v", err)
	}
	if len(req.Targets) == 0 {
		return req, 0, fmt.Errorf("request needs at least one target")
	}
	if len(req.Targets) > c.MaxTargetsPerRequest {
		return req, 0, fmt.Errorf("request has %d targets, limit %d", len(req.Targets), c.MaxTargetsPerRequest)
	}
	if err := checkTargets(req.Targets, numNodes); err != nil {
		return req, 0, err
	}
	if q := r.URL.Query().Get("features"); q != "" {
		on, err := strconv.ParseBool(q)
		if err != nil {
			return req, 0, fmt.Errorf("features query parameter must be a boolean: %v", err)
		}
		req.Features = req.Features || on
	}
	if req.Features && !hasFeatures {
		return req, 0, fmt.Errorf("features requested but the dataset has no feature file")
	}
	if len(req.Fanouts) == 0 {
		req.Fanouts = c.Core.Fanouts
	}
	if len(req.Fanouts) > c.MaxFanoutLayers {
		return req, 0, fmt.Errorf("%d fanout layers, limit %d", len(req.Fanouts), c.MaxFanoutLayers)
	}
	for i, f := range req.Fanouts {
		if f < 1 || f > c.MaxFanout {
			return req, 0, fmt.Errorf("fanout[%d] = %d out of range [1,%d]", i, f, c.MaxFanout)
		}
	}
	if !core.ValidStrategy(req.Strategy) {
		return req, 0, fmt.Errorf("unknown strategy %q (known: %v)", req.Strategy, core.StrategyNames())
	}
	if req.Strategy == "" {
		// Resolve the default here, before the name can fan out to
		// shards: every shard must replay under the same explicit name.
		req.Strategy = c.Core.Strategy
	}
	if req.TimeoutMS < 0 {
		// A negative timeout is a client bug, not a request for the
		// default — rejecting beats silently substituting one.
		return req, 0, fmt.Errorf("timeout_ms %d must be non-negative", req.TimeoutMS)
	}
	timeout := c.DefaultTimeout
	if req.TimeoutMS > 0 {
		// Cap before converting: a huge timeout_ms would overflow the
		// Duration product into a negative deadline.
		timeout = c.MaxTimeout
		if req.TimeoutMS <= c.MaxTimeout.Milliseconds() {
			timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		}
	}
	return req, timeout, nil
}

// validateLayer is the admission check of POST /v1/shard/layer: it
// decodes the body and parses its RNG state, and rejects shapes the
// shard must not sample — or returns the message for a 400.
func (c *Config) validateLayer(r *http.Request, numNodes int64) (shard.LayerRequest, uint64, error) {
	var req shard.LayerRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(&req); err != nil {
		return req, 0, fmt.Errorf("malformed JSON: %v", err)
	}
	state, err := shard.ParseState(req.RNGState)
	if err != nil {
		return req, 0, err
	}
	if req.Layer < 0 || req.Fanout < 1 || req.Fanout > c.MaxFanout {
		return req, 0, fmt.Errorf("layer %d / fanout %d out of range (fanout limit %d)", req.Layer, req.Fanout, c.MaxFanout)
	}
	if len(req.Frontier) == 0 {
		return req, 0, fmt.Errorf("layer request needs a non-empty frontier")
	}
	if req.Strategy == "" || !core.ValidStrategy(req.Strategy) {
		// The router must pin an explicit strategy: resolving "" against
		// this shard's local default could disagree with its peers.
		return req, 0, fmt.Errorf("shard layer requests need an explicit strategy (known: %v), got %q", core.StrategyNames(), req.Strategy)
	}
	if err := checkTargets(req.Frontier, numNodes); err != nil {
		return req, 0, err
	}
	return req, state, nil
}

// validateFeatures is the admission check of POST /v1/shard/features:
// it decodes the body and rejects requests the shard cannot serve — no
// feature file, no nodes, or a node outside the shard's range [lo, hi)
// — returning the message for a 400.
func validateFeatures(r *http.Request, lo, hi int64, hasFeatures bool) (shard.FeaturesRequest, error) {
	var req shard.FeaturesRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(&req); err != nil {
		return req, fmt.Errorf("malformed JSON: %v", err)
	}
	if !hasFeatures {
		return req, fmt.Errorf("shard has no feature file")
	}
	if len(req.Nodes) == 0 {
		return req, fmt.Errorf("features request needs at least one node")
	}
	for i, v := range req.Nodes {
		if int64(v) < lo || int64(v) >= hi {
			return req, fmt.Errorf("nodes[%d] = %d outside this shard's range [%d,%d)", i, v, lo, hi)
		}
	}
	return req, nil
}

// buildResponse assembles the wire response from ordered batches.
func buildResponse(batches []*core.Batch, t0 time.Time) sampleResponse {
	resp := sampleResponse{Batches: make([]batchJSON, len(batches))}
	var folded uint64
	for i, b := range batches {
		bj := batchJSON{Layers: make([]layerJSON, len(b.Layers))}
		for li := range b.Layers {
			l := &b.Layers[li]
			bj.Layers[li] = layerJSON{Targets: l.Targets, Starts: l.Starts, Neighbors: l.Neighbors}
		}
		if b.FeatureDim > 0 {
			bj.FeatNodes = b.FeatNodes
			bj.FeatureDim = b.FeatureDim
			bj.Features = b.Features
		}
		d := b.Digest()
		bj.Digest = fmt.Sprintf("%016x", d)
		folded = folded*0x100000001b3 ^ d
		resp.Sampled += b.TotalSampled()
		resp.Batches[i] = bj
	}
	resp.Digest = fmt.Sprintf("%016x", folded)
	resp.ElapsedMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	return resp
}

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	s.handlers.Add(1)
	defer s.handlers.Done()
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	if s.draining.Load() {
		s.met.rejectedDraining.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server draining"})
		return
	}
	if s.ds != nil && s.ds.IsSharded() {
		s.badRequest(w, fmt.Sprintf("dataset is shard %d/%d: whole-graph sampling needs a router over the full partition (this server answers /v1/shard/*)",
			s.ds.ShardIndex(), s.ds.NumShards()))
		return
	}
	req, timeout, verr := s.cfg.validateSample(r, s.numNodes, s.hasFeatures)
	if verr != nil {
		s.badRequest(w, verr.Error())
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	// A forced drain cancels every in-flight request through baseCtx.
	stopAfter := context.AfterFunc(s.baseCtx, cancel)
	defer stopAfter()
	// Jobs carry a child of the handler context: the first failing
	// chunk cancels it (request.jobDone), so sibling chunks are skipped
	// by the slots — while the handler keeps waiting on rq.done and
	// reports the real error, not its own cancellation.
	jobCtx, jobCancel := context.WithCancel(ctx)
	defer jobCancel()

	t0 := time.Now()
	s.met.requests.Add(1)
	if req.Features {
		s.met.featureRequests.Add(1)
	}

	// Shard into the engine's mini-batch granularity. Chunk i samples
	// under sample.Mix(seed, i) — the same derivation core.RunEpoch
	// uses per batch — which is what makes the response independent of
	// coalescing, worker identity, slot count and shard count.
	chunkSize := s.cfg.Core.BatchSize
	numChunks := (len(req.Targets) + chunkSize - 1) / chunkSize
	rq := newRequest(numChunks, jobCancel)
	for ci := 0; ci < numChunks; ci++ {
		lo := ci * chunkSize
		hi := min(lo+chunkSize, len(req.Targets))
		j := &job{
			ctx:      jobCtx,
			targets:  req.Targets[lo:hi],
			fanouts:  req.Fanouts,
			seed:     sample.Mix(req.Seed, uint64(ci)),
			features: req.Features,
			strategy: req.Strategy,
			enq:      time.Now(),
			chunk:    ci,
			req:      rq,
		}
		select {
		case s.queue <- j:
			s.met.queueDepth.Add(1)
		default:
			// Admission control: the bounded queue is full — fast-fail
			// rather than queue unboundedly. Cancel the request context
			// so chunks already admitted are skipped, not sampled.
			cancel()
			s.met.rejectedFull.Add(1)
			writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "sampling queue full, retry later"})
			return
		}
	}

	select {
	case <-rq.done:
	case <-ctx.Done():
		s.failCanceled(w, ctx)
		return
	}
	batches, err := rq.result()
	if err != nil {
		// Jobs can also surface the request's own cancellation.
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.failCanceled(w, ctx)
			return
		}
		s.met.sampleErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "sampling failed: " + err.Error()})
		return
	}

	resp := buildResponse(batches, t0)
	s.met.responsesOK.Add(1)
	s.met.requestLat.Observe(time.Since(t0).Nanoseconds())
	writeJSON(w, http.StatusOK, resp)
}

// Shard protocol handlers: this server as one engine of a partition.
// They lease workers from the same shard.Local as the dispatcher
// slots, but per call instead of riding the micro-batching queue —
// layer calls are already router-batched and must not coalesce with
// anything.

func (s *Server) handleShardInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.local.Info())
}

func (s *Server) handleShardLayer(w http.ResponseWriter, r *http.Request) {
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	if s.draining.Load() {
		s.met.rejectedDraining.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server draining"})
		return
	}
	req, state, err := s.cfg.validateLayer(r, s.numNodes)
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	s.met.shardCalls.Add(1)
	layer, nextState, err := s.local.SampleLayer(r.Context(), req.Frontier, core.LayerParams{
		Layer: req.Layer, Fanout: req.Fanout, Strategy: req.Strategy, RNGState: state,
	})
	if err != nil {
		s.met.sampleErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "shard layer failed: " + err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, shard.LayerResponse{
		Targets:   layer.Targets,
		Starts:    layer.Starts,
		Neighbors: layer.Neighbors,
		RNGState:  shard.EncodeState(nextState),
	})
}

func (s *Server) handleShardFeatures(w http.ResponseWriter, r *http.Request) {
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	if s.draining.Load() {
		s.met.rejectedDraining.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server draining"})
		return
	}
	lo, hi := s.ds.ShardRange()
	req, err := validateFeatures(r, lo, hi, s.ds.HasFeatures())
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	s.met.shardCalls.Add(1)
	feats, err := s.local.Features(r.Context(), req.Nodes)
	if err != nil {
		s.met.sampleErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "shard features failed: " + err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, shard.FeaturesResponse{Features: feats})
}

// failCanceled maps a dead request context to its status: 504 for a
// deadline, 503 for everything else (client gone, forced drain).
func (s *Server) failCanceled(w http.ResponseWriter, ctx context.Context) {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.met.deadlineExceeded.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "deadline exceeded"})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "request canceled"})
}
