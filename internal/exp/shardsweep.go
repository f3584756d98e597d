package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"ringsampler/internal/core"
	"ringsampler/internal/gen"
	"ringsampler/internal/sample"
	"ringsampler/internal/serve"
	"ringsampler/internal/shard"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// ShardSweepConfig drives the sharded-serving sweep: for each shard
// count the dataset is partitioned (count 1 runs today's single-node
// server), a front end is booted on a loopback listener, and two
// phases run — a sequential conformance pass asserting every shard
// count returns digest-identical responses for a fixed request matrix,
// then a closed-loop throughput measurement.
type ShardSweepConfig struct {
	// Serve configures both the single-node server and, via its Core,
	// every shard engine and the router front end.
	Serve serve.Config
	// Shards are the partition sizes to sweep, e.g. {1, 2, 4}.
	Shards []int
	// Clients is the closed-loop concurrency of the throughput phase;
	// RequestsPerClient how many requests each client issues.
	Clients           int
	RequestsPerClient int
	// TargetsPerRequest is the request size; Fanouts the per-layer
	// sample counts (empty: the server's configured fanouts).
	TargetsPerRequest int
	Fanouts           []int
	// Seed derives the conformance matrix and every load request.
	Seed uint64
}

// ShardSweepPoint is one shard count's results.
type ShardSweepPoint struct {
	Shards int `json:"shards"`
	// Conformance: how many matrix requests were digest-checked against
	// the 1-shard baseline (the sweep errors out on any mismatch, so a
	// written point always passed).
	ConformanceRequests int `json:"conformance_requests"`
	// Throughput phase.
	OK         int     `json:"ok"`
	Requests   int     `json:"requests"`
	Seconds    float64 `json:"seconds"`
	Throughput float64 `json:"throughput_rps"`
	P50MS      float64 `json:"p50_ms"`
	P99MS      float64 `json:"p99_ms"`
}

// ShardSweepResult is the machine-readable sweep summary
// (benchdata/BENCH_shard.json in CI).
type ShardSweepResult struct {
	Backend    string            `json:"backend"`
	Threads    int               `json:"threads"`
	Clients    int               `json:"clients"`
	PerClient  int               `json:"requests_per_client"`
	Targets    int               `json:"targets_per_request"`
	Strategies []string          `json:"strategies"`
	Features   bool              `json:"features"`
	Points     []ShardSweepPoint `json:"points"`
}

// ShardSweep runs the sweep over the dataset in dir. It needs the
// directory rather than an open dataset because each shard count > 1
// physically partitions the files into a temporary directory. Any
// conformance divergence is an error, not a data point: a sharded
// deployment that answers differently from a single node is broken,
// not slow.
func ShardSweep(dir string, cfg ShardSweepConfig) (*ShardSweepResult, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("exp: shard sweep needs at least one shard count")
	}
	if cfg.Shards[0] != 1 {
		return nil, fmt.Errorf("exp: shard sweep needs shard count 1 first (the conformance baseline), got %v", cfg.Shards)
	}
	if cfg.Clients <= 0 || cfg.RequestsPerClient <= 0 || cfg.TargetsPerRequest <= 0 {
		return nil, fmt.Errorf("exp: shard sweep needs positive clients/requests/targets, got %d/%d/%d",
			cfg.Clients, cfg.RequestsPerClient, cfg.TargetsPerRequest)
	}
	ds, err := storage.Open(dir)
	if err != nil {
		return nil, err
	}
	hasFeatures := ds.HasFeatures()
	numNodes := ds.NumNodes()
	ds.Close()

	strategies := []string{core.StrategyUniform, core.StrategyWeighted, core.StrategyWalk}
	res := &ShardSweepResult{
		Clients:    cfg.Clients,
		PerClient:  cfg.RequestsPerClient,
		Targets:    cfg.TargetsPerRequest,
		Strategies: strategies,
		Features:   hasFeatures,
	}

	// The fixed conformance matrix: strategies × features over one
	// deterministic target set.
	rng := sample.NewRNG(sample.Mix(cfg.Seed, 0xC0))
	matrixTargets := UniformTargets(&rng, numNodes, cfg.TargetsPerRequest)
	featureCases := []bool{false}
	if hasFeatures {
		featureCases = append(featureCases, true)
	}

	baseline := map[string]string{} // "strategy/features" -> digest
	for _, n := range cfg.Shards {
		if n < 1 {
			return nil, fmt.Errorf("exp: shard count %d must be positive", n)
		}
		point, err := shardSweepPoint(dir, cfg, n, numNodes, strategies, featureCases, matrixTargets, baseline)
		if err != nil {
			return nil, fmt.Errorf("exp: shard sweep at %d shards: %w", n, err)
		}
		res.Backend = string(cfg.Serve.Backend)
		res.Threads = cfg.Serve.Core.Threads
		res.Points = append(res.Points, *point)
	}
	return res, nil
}

// shardSweepPoint boots the front end for one shard count, runs the
// conformance matrix (filling baseline at count 1, checking against it
// after), then the closed-loop throughput phase.
func shardSweepPoint(dir string, cfg ShardSweepConfig, n int, numNodes int64, strategies []string, featureCases []bool, matrixTargets []uint32, baseline map[string]string) (*ShardSweepPoint, error) {
	be := cfg.Serve.Backend
	if be == "" {
		if uring.Probe().Ring {
			be = uring.BackendIOURing
		} else {
			be = uring.BackendPool
		}
		cfg.Serve.Backend = be
	}

	var fe *serve.Server
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	if n == 1 {
		ds, err := storage.Open(dir)
		if err != nil {
			return nil, err
		}
		closers = append(closers, func() { ds.Close() })
		srv, err := serve.New(ds, cfg.Serve)
		if err != nil {
			closeAll()
			return nil, err
		}
		fe = srv
	} else {
		tmp, err := os.MkdirTemp("", "ringsampler-shards-")
		if err != nil {
			return nil, err
		}
		closers = append(closers, func() { os.RemoveAll(tmp) })
		dirs, err := gen.Partition(dir, tmp, n)
		if err != nil {
			closeAll()
			return nil, err
		}
		engines := make([]shard.Engine, len(dirs))
		for i, sdir := range dirs {
			sds, err := storage.Open(sdir)
			if err != nil {
				closeAll()
				return nil, err
			}
			closers = append(closers, func() { sds.Close() })
			scfg := cfg.Serve.Core
			if !sds.HasFeatures() {
				scfg.FeatureCacheBudgetBytes = 0
			}
			eng, err := shard.NewLocal(sds, scfg, be)
			if err != nil {
				closeAll()
				return nil, err
			}
			engines[i] = eng
		}
		// The router server owns the engines; the datasets stay ours.
		srv, err := serve.NewRouter(engines, cfg.Serve)
		if err != nil {
			for _, e := range engines {
				e.Close()
			}
			closeAll()
			return nil, err
		}
		fe = srv
	}
	defer closeAll()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go fe.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		fe.Shutdown(ctx)
	}()
	url := "http://" + ln.Addr().String() + "/v1/sample"
	client := &http.Client{Timeout: 2 * time.Minute}

	// Phase A: conformance. Digest equality against the 1-shard
	// baseline, per strategy × features.
	point := &ShardSweepPoint{Shards: n}
	for _, strat := range strategies {
		for _, features := range featureCases {
			key := fmt.Sprintf("%s/features=%v", strat, features)
			digest, err := postForDigest(client, url, map[string]any{
				"targets":  matrixTargets,
				"fanouts":  cfg.Fanouts,
				"seed":     sample.Mix(cfg.Seed, 0xD1),
				"strategy": strat,
				"features": features,
			})
			if err != nil {
				return nil, fmt.Errorf("conformance %s: %w", key, err)
			}
			if n == 1 {
				baseline[key] = digest
			} else if digest != baseline[key] {
				return nil, fmt.Errorf("conformance %s: %d-shard digest %s != single-node %s",
					key, n, digest, baseline[key])
			}
			point.ConformanceRequests++
		}
	}

	// Phase B: closed-loop throughput. Every client re-posts the moment
	// its previous request returns; offered load is the concurrency.
	type tally struct {
		ok   int
		lats []time.Duration
		err  error
	}
	tallies := make([]tally, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tl := &tallies[c]
			hc := &http.Client{Timeout: 2 * time.Minute}
			rng := sample.NewRNG(sample.Mix(cfg.Seed, uint64(n)<<32|uint64(c)))
			for r := 0; r < cfg.RequestsPerClient; r++ {
				targets := UniformTargets(&rng, numNodes, cfg.TargetsPerRequest)
				body, err := json.Marshal(map[string]any{
					"targets": targets,
					"fanouts": cfg.Fanouts,
					"seed":    sample.Mix(cfg.Seed, uint64(c)<<32|uint64(r)),
				})
				if err != nil {
					tl.err = err
					return
				}
				t0 := time.Now()
				resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					tl.err = err
					return
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					tl.ok++
					tl.lats = append(tl.lats, time.Since(t0))
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	var lats []time.Duration
	for c := range tallies {
		tl := &tallies[c]
		if tl.err != nil {
			return nil, tl.err
		}
		point.OK += tl.ok
		lats = append(lats, tl.lats...)
	}
	point.Requests = cfg.Clients * cfg.RequestsPerClient
	point.Seconds = elapsed
	if elapsed > 0 {
		point.Throughput = float64(point.OK) / elapsed
	}
	sortDurations(lats)
	point.P50MS = quantileMS(lats, 0.50)
	point.P99MS = quantileMS(lats, 0.99)
	return point, nil
}

// postForDigest posts one request and returns the response digest.
func postForDigest(client *http.Client, url string, req map[string]any) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		Digest string `json:"digest"`
		Error  string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, out.Error)
	}
	return out.Digest, nil
}

// sortDurations is a tiny helper so the quantile code reads clearly.
func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}
