// Command serve runs the online sampling service: an HTTP front end
// that coalesces concurrent sampling requests into the micro-batches
// the ring workers are built for, with admission control and a
// Prometheus metrics surface (see DESIGN.md §8).
//
//	POST /v1/sample  — {"targets":[...],"fanouts":[...],"seed":N,"features":bool,"strategy":"..."}
//	GET  /healthz    — liveness (503 while draining)
//	GET  /metrics    — Prometheus text format
//
// "strategy" picks the draw strategy per request — "uniform"
// (default), "weighted", or "walk" (DESIGN.md §11); unknown names are
// rejected 400 before any work is queued.
//
// With ?features=true (or "features":true in the body) each returned
// batch carries the sampled nodes' raw little-endian f32 vectors,
// fetched through the same ring pipeline as the adjacency reads. The
// dataset must have a feature file (-feature-dim on the temporary
// graph); -feature-cache-mb pins the hottest nodes' vectors in memory.
//
// SIGINT/SIGTERM drain gracefully: in-flight requests finish, new ones
// are refused, and the final I/O counters are flushed to stderr. A
// second signal (or -drain-timeout expiring) force-cancels what is
// left.
//
// With -bench-json the command skips serving and instead runs the
// closed-loop load sweep (exp.ServeLoad) against an in-process server,
// writing the machine-readable summary the bench harness tracks.
//
// Sharded serving (DESIGN.md §12): -shards N partitions the dataset by
// node range into N shards, runs every shard in-process, and serves
// the same /v1/sample API through the scatter/gather router — responses
// are byte-identical to a single-node run. -router url1,url2 instead
// fronts already-running shard servers (each a plain `serve -data
// <shard-dir>` whose dataset is one shard) over HTTP. -bench-shard-json
// runs the shard sweep (exp.ShardSweep): conformance at every shard
// count, then closed-loop throughput.
//
// Usage:
//
//	go run ./cmd/serve -data benchdata/bench/ogbn-papers-div20000 -addr :8080 -threads 8
//	go run ./cmd/serve -addr 127.0.0.1:8080        # temporary R-MAT graph
//	go run ./cmd/serve -bench-json benchdata/BENCH_serve.json
//	go run ./cmd/serve -shards 4                   # partitioned, router-fronted
//	go run ./cmd/serve -router http://s0:8080,http://s1:8080
//	go run ./cmd/serve -bench-shard-json benchdata/BENCH_shard.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ringsampler/internal/exp"
	"ringsampler/internal/gen"
	"ringsampler/internal/serve"
	"ringsampler/internal/shard"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address")
		data         = fs.String("data", "", "dataset directory (empty: generate a temporary R-MAT graph)")
		nodes        = fs.Int64("nodes", 50_000, "node count for the temporary graph (with empty -data)")
		edges        = fs.Int64("edges", 800_000, "edge count for the temporary graph (with empty -data)")
		threads      = fs.Int("threads", 0, "dispatcher slots; on a single node each runs one job at a time on a leased worker (0: config default)")
		batch        = fs.Int("batch", 0, "engine mini-batch size / chunking granularity (0: config default)")
		cacheMB      = fs.Int64("cache-mb", 0, "hot-neighbor cache budget in MiB (0: cache off)")
		featMB       = fs.Int64("feature-cache-mb", 0, "hot-node feature cache budget in MiB (0: cache off)")
		featureDim   = fs.Int("feature-dim", 0, "per-node f32 feature dimension for the temporary graph (with empty -data; 0: no features)")
		queue        = fs.Int("queue", 0, "admission queue bound in jobs; full queue fast-fails 429 (0: default 256)")
		batchWindow  = fs.Duration("batch-window", 0, "max wait for more jobs before flushing a partial micro-batch (0: default 2ms)")
		maxBatch     = fs.Int("max-batch", 0, "flush a micro-batch at this many targets (0: engine batch size)")
		seed         = fs.Uint64("seed", 1, "seed for the temporary graph")
		backend      = fs.String("backend", "auto", "ring backend: auto, io_uring, pool, sim")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "max graceful-drain wait on SIGINT/SIGTERM")
		benchJSON    = fs.String("bench-json", "", "run the closed-loop load sweep instead of serving; write the JSON summary to this file")
		benchShard   = fs.String("bench-shard-json", "", "run the shard conformance+throughput sweep instead of serving; write the JSON summary to this file")
		benchQuick   = fs.Bool("bench-quick", false, "shrink the load sweep to a smoke-test size")
		shards       = fs.Int("shards", 0, "partition the dataset into this many node-range shards and serve through the scatter/gather router (0: single-node)")
		routerURLs   = fs.String("router", "", "comma-separated shard server base URLs to front as a router (no local dataset)")
		uringFixed   = fs.Bool("uring-fixed", false, "register worker arenas and read via IORING_OP_READ_FIXED (emulated on pool/sim)")
		uringReg     = fs.Bool("uring-regfiles", false, "register the edge file and submit with IOSQE_FIXED_FILE (real backend only)")
		uringSQP     = fs.Bool("uring-sqpoll", false, "create SQPOLL rings: kernel-thread submission (real backend only)")
		odirect      = fs.Bool("odirect", false, "open the edge file O_DIRECT (falls back to buffered with a logged reason when unsupported)")
		depth        = fs.Int("depth", 0, "cap in-flight reads per worker (0: bounded only by the ring)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cacheMB < 0 {
		return fmt.Errorf("-cache-mb %d must be non-negative", *cacheMB)
	}
	if *featMB < 0 {
		return fmt.Errorf("-feature-cache-mb %d must be non-negative", *featMB)
	}
	if *featureDim < 0 {
		return fmt.Errorf("-feature-dim %d must be non-negative", *featureDim)
	}
	if *featureDim > 0 && *data != "" {
		return fmt.Errorf("-feature-dim only applies to the temporary graph; %s already fixes its features", *data)
	}
	be, err := pickBackend(*backend)
	if err != nil {
		return err
	}
	if *routerURLs != "" && (*shards != 0 || *data != "" || *benchJSON != "" || *benchShard != "") {
		return fmt.Errorf("-router fronts remote shard servers and combines with none of -shards/-data/-bench-json/-bench-shard-json")
	}
	if *shards < 0 || *shards == 1 {
		return fmt.Errorf("-shards %d: need 0 (single-node) or ≥ 2", *shards)
	}

	cfg := serve.DefaultConfig()
	cfg.Backend = be
	cfg.Core.CacheBudgetBytes = *cacheMB << 20
	cfg.Core.FeatureCacheBudgetBytes = *featMB << 20
	cfg.Core.FixedBuffers = *uringFixed
	cfg.Core.RegisteredFiles = *uringReg
	cfg.Core.SQPoll = *uringSQP
	cfg.Core.Depth = *depth
	if *threads > 0 {
		cfg.Core.Threads = *threads
	}
	if *batch > 0 {
		cfg.Core.BatchSize = *batch
	}
	if *queue > 0 {
		cfg.QueueDepth = *queue
	}
	if *batchWindow > 0 {
		cfg.BatchWindow = *batchWindow
	}
	if *maxBatch > 0 {
		cfg.MaxBatchTargets = *maxBatch
	}

	var srv *serve.Server
	if *routerURLs != "" {
		// Pure router mode: resolve each shard's identity over HTTP and
		// serve the scatter/gather front end — no local graph bytes.
		var engines []shard.Engine
		for _, u := range strings.Split(*routerURLs, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			eng, err := shard.NewRemote(context.Background(), u, nil)
			if err != nil {
				return err
			}
			engines = append(engines, eng)
			info := eng.Info()
			fmt.Fprintf(out, "shard %d/%d at %s: nodes [%d,%d)\n", info.Index, info.Total, u, info.Lo, info.Hi)
		}
		if srv, err = serve.NewRouter(engines, cfg); err != nil {
			return err
		}
		return listenAndServe(out, srv, *addr, *drainTimeout)
	}

	dir := *data
	if dir == "" {
		tmp, err := os.MkdirTemp("", "ringsampler-serve-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = filepath.Join(tmp, "g")
		if *featureDim > 0 {
			fmt.Fprintf(out, "generating temporary R-MAT graph (%d nodes, %d edges, %d-dim features) ...\n", *nodes, *edges, *featureDim)
		} else {
			fmt.Fprintf(out, "generating temporary R-MAT graph (%d nodes, %d edges) ...\n", *nodes, *edges)
		}
		if _, err := gen.GenerateWith(dir, "serve-tmp", "rmat", *nodes, *edges, *seed, gen.Options{FeatureDim: *featureDim}); err != nil {
			return err
		}
	}
	ds, err := storage.OpenWith(dir, storage.OpenOptions{Direct: *odirect})
	if err != nil {
		return err
	}
	defer ds.Close()

	if *benchShard != "" {
		ds.Close()
		return runShardBench(out, dir, cfg, *benchShard, *benchQuick)
	}
	// The shape lines every local mode prints (the load sweep skips the
	// listener, so they cannot wait for it).
	fmt.Fprintf(out, "dataset %s: %d nodes, %d edges; backend %s\n", dir, ds.NumNodes(), ds.NumEdges(), cfg.Backend)
	if ds.HasFeatures() {
		fmt.Fprintf(out, "features: %d-dim f32 per node; request them with POST /v1/sample?features=true\n", ds.FeatureDim())
	}
	if ds.HasLabels() {
		fmt.Fprintf(out, "labels: %d classes per node (training datasets carry the full label file)\n", ds.NumClasses())
	}
	if *benchJSON != "" {
		return runBench(out, ds, cfg, *benchJSON, *benchQuick)
	}

	if *shards >= 2 {
		// Sharded-local mode: partition by node range, run every shard
		// in-process, serve through the router. Responses stay
		// byte-identical to the single-node server over the same files.
		tmp, err := os.MkdirTemp("", "ringsampler-shards-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		fmt.Fprintf(out, "partitioning %s into %d shards ...\n", dir, *shards)
		dirs, err := gen.Partition(dir, tmp, *shards)
		if err != nil {
			return err
		}
		ds.Close() // the shards carry their own handles
		engines := make([]shard.Engine, len(dirs))
		for i, sdir := range dirs {
			sds, err := storage.OpenWith(sdir, storage.OpenOptions{Direct: *odirect})
			if err != nil {
				return err
			}
			defer sds.Close()
			scfg := cfg.Core
			if !sds.HasFeatures() {
				scfg.FeatureCacheBudgetBytes = 0
			}
			eng, err := shard.NewLocal(sds, scfg, cfg.Backend)
			if err != nil {
				return err
			}
			engines[i] = eng
			lo, hi := sds.ShardRange()
			fmt.Fprintf(out, "shard %d/%d: nodes [%d,%d)\n", i, len(dirs), lo, hi)
		}
		if srv, err = serve.NewRouter(engines, cfg); err != nil {
			return err
		}
		return listenAndServe(out, srv, *addr, *drainTimeout)
	}

	if ds.IsSharded() {
		lo, hi := ds.ShardRange()
		fmt.Fprintf(out, "dataset is shard %d/%d (nodes [%d,%d)): serving /v1/shard/* for a router\n",
			ds.ShardIndex(), ds.NumShards(), lo, hi)
	}
	if srv, err = serve.New(ds, cfg); err != nil {
		return err
	}
	return listenAndServe(out, srv, *addr, *drainTimeout)
}

// listenAndServe listens on addr, reports the server's shape and runs
// serveLoop.
func listenAndServe(out io.Writer, srv *serve.Server, addr string, drainTimeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Shutdown(context.Background())
		return err
	}
	if rt := srv.Router(); rt != nil {
		fmt.Fprintf(out, "routing %d shards: %d nodes, %d edges\n", rt.Shards(), rt.NumNodes(), rt.NumEdges())
	}
	eff := srv.Config()
	fmt.Fprintf(out, "serving on http://%s (%d slots, queue %d, window %v)\n",
		ln.Addr(), eff.Core.Threads, eff.QueueDepth, eff.BatchWindow)
	return serveLoop(out, srv, ln, drainTimeout)
}

// serveLoop serves until SIGINT/SIGTERM, then drains gracefully. The
// first signal stops admission and lets in-flight requests finish
// (bounded by drainTimeout); a second signal force-cancels.
func serveLoop(out io.Writer, srv *serve.Server, ln net.Listener, drainTimeout time.Duration) error {
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		return err
	case <-sigCtx.Done():
	}
	stop() // restore default handling: a second signal kills the drain
	fmt.Fprintf(out, "signal received, draining (timeout %v) ...\n", drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	shutErr := srv.Shutdown(ctx)
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	st := srv.IOStats()
	fmt.Fprintf(out, "drained; final io %+v\n", st)
	if shutErr != nil {
		return fmt.Errorf("drain incomplete, outstanding requests were canceled: %w", shutErr)
	}
	return nil
}

// runBench runs the closed-loop offered-load sweep in-process and
// writes benchdata/BENCH_serve.json-shaped output.
func runBench(out io.Writer, ds *storage.Dataset, cfg serve.Config, path string, quick bool) error {
	lc := exp.ServeLoadConfig{
		Serve:             cfg,
		Clients:           []int{1, 4, 16, 64},
		RequestsPerClient: 32,
		TargetsPerRequest: 256,
		Fanouts:           []int{10, 10, 5},
		Seed:              7,
	}
	if quick {
		lc.Clients = []int{1, 4, 16}
		lc.RequestsPerClient = 8
		lc.TargetsPerRequest = 64
		lc.Fanouts = []int{5, 5}
	}
	res, err := exp.ServeLoad(ds, lc)
	if err != nil {
		return err
	}
	for _, p := range res.Points {
		fmt.Fprintf(out, "clients %3d: %6.1f req/s  p50 %7.2fms  p99 %7.2fms  rejected %.1f%%  (%d ok / %d total in %.2fs)\n",
			p.Clients, p.Throughput, p.P50MS, p.P99MS, 100*p.RejectionRate, p.OK, p.Requests, p.Seconds)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "load sweep written to %s\n", path)
	return nil
}

// runShardBench runs the shard conformance + throughput sweep over the
// dataset directory and writes benchdata/BENCH_shard.json-shaped
// output. Every shard count is digest-checked against the single-node
// baseline before it is timed; a divergence aborts the sweep.
func runShardBench(out io.Writer, dir string, cfg serve.Config, path string, quick bool) error {
	sc := exp.ShardSweepConfig{
		Serve:             cfg,
		Shards:            []int{1, 2, 4},
		Clients:           16,
		RequestsPerClient: 16,
		TargetsPerRequest: 256,
		Fanouts:           []int{10, 10, 5},
		Seed:              7,
	}
	if quick {
		sc.Shards = []int{1, 2}
		sc.Clients = 4
		sc.RequestsPerClient = 4
		sc.TargetsPerRequest = 64
		sc.Fanouts = []int{5, 5}
	}
	res, err := exp.ShardSweep(dir, sc)
	if err != nil {
		return err
	}
	for _, p := range res.Points {
		fmt.Fprintf(out, "shards %d: conformance %d/%d ok; %6.1f req/s  p50 %7.2fms  p99 %7.2fms  (%d ok / %d total in %.2fs)\n",
			p.Shards, p.ConformanceRequests, p.ConformanceRequests, p.Throughput, p.P50MS, p.P99MS, p.OK, p.Requests, p.Seconds)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "shard sweep written to %s\n", path)
	return nil
}

func pickBackend(name string) (uring.Backend, error) {
	switch strings.ToLower(name) {
	case "auto":
		if uring.Probe().Ring {
			return uring.BackendIOURing, nil
		}
		return uring.BackendPool, nil
	case "io_uring":
		return uring.BackendIOURing, nil
	case "pool":
		return uring.BackendPool, nil
	case "sim":
		return uring.BackendSim, nil
	default:
		return "", fmt.Errorf("unknown backend %q", name)
	}
}
