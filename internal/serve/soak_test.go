package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ringsampler/internal/core"
	"ringsampler/internal/gen"
	"ringsampler/internal/sample"
	"ringsampler/internal/shard"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// hookRing calls onWait before every Wait and onClose on Close, each
// when set.
type hookRing struct {
	uring.Ring
	onWait, onClose func()
}

func (r *hookRing) Wait(min int) ([]uring.CQE, error) {
	if r.onWait != nil {
		r.onWait()
	}
	return r.Ring.Wait(min)
}

func (r *hookRing) Close() error {
	if r.onClose != nil {
		r.onClose()
	}
	return r.Ring.Close()
}

// TestServeWorkerIDsUnique drives /v1/sample and /v1/shard/layer of one
// server and asserts that no two live workers ever share an id: WrapRing
// hooks key fault plans and ring traces on that id, so a dispatcher
// worker and a shard-endpoint worker must not collide. The first
// worker's ring stalls its first batch until a layer call has been
// answered, so both endpoints hold a worker at once. Features stay
// off, so every worker opens exactly one ring.
func TestServeWorkerIDsUnique(t *testing.T) {
	ds := testDataset(t)
	var mu sync.Mutex
	live := make(map[int]bool)
	created := 0
	var clashes []int
	held, release := make(chan struct{}), make(chan struct{})
	cfg := DefaultConfig()
	cfg.Backend = uring.BackendSim
	cfg.Core.Threads = 1
	cfg.BatchWindow = time.Millisecond
	cfg.Core.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
		mu.Lock()
		defer mu.Unlock()
		hr := &hookRing{Ring: r, onClose: func() {
			mu.Lock()
			delete(live, workerID)
			mu.Unlock()
		}}
		if created == 0 {
			var once sync.Once
			hr.onWait = func() {
				once.Do(func() {
					close(held)
					<-release
				})
			}
		}
		created++
		if live[workerID] {
			clashes = append(clashes, workerID)
		}
		live[workerID] = true
		return hr, nil
	}
	_, base := startServer(t, ds, cfg)
	client := &http.Client{Timeout: 30 * time.Second}

	sampled := make(chan string, 1)
	go func() {
		body, _ := json.Marshal(sampleRequest{Targets: []uint32{1, 2, 3, 500}, Fanouts: []int{4, 3}, Seed: 5})
		st, data := post(client, base+"/v1/sample", body)
		sampled <- fmt.Sprintf("status %d: %s", st, data)
	}()
	<-held
	body, _ := json.Marshal(shard.LayerRequest{
		Frontier: []uint32{4, 7, 99}, Layer: 0, Fanout: 5,
		Strategy: core.StrategyUniform, RNGState: shard.EncodeState(core.ChunkSeedState(3)),
	})
	st, data := post(client, base+"/v1/shard/layer", body)
	close(release)
	if st != http.StatusOK {
		t.Fatalf("layer call: status %d: %s", st, data)
	}
	if got := <-sampled; !strings.HasPrefix(got, "status 200") {
		t.Fatalf("sample call: %s", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if created < 2 {
		t.Fatalf("only %d workers created; the scenario needs both endpoints to lease", created)
	}
	if len(clashes) > 0 {
		t.Fatalf("worker ids %v handed to two live workers at once", clashes)
	}
}

// TestServeStatsMonotoneWhileLeased: /metrics counters must not step
// backwards while the worker that earned them is leased. Request A
// leaves reads on the only worker; request B then holds that worker
// mid-batch while the counters are read.
func TestServeStatsMonotoneWhileLeased(t *testing.T) {
	ds := testDataset(t)
	var armed atomic.Bool
	held, release := make(chan struct{}), make(chan struct{})
	cfg := DefaultConfig()
	cfg.Backend = uring.BackendSim
	cfg.Core.Threads = 1
	cfg.BatchWindow = time.Millisecond
	var once sync.Once
	cfg.Core.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
		return &hookRing{Ring: r, onWait: func() {
			if armed.Load() {
				once.Do(func() {
					close(held)
					<-release
				})
			}
		}}, nil
	}
	srv, base := startServer(t, ds, cfg)
	client := &http.Client{Timeout: 30 * time.Second}

	body, _ := json.Marshal(sampleRequest{Targets: []uint32{1, 2, 3, 500}, Fanouts: []int{4, 3}, Seed: 5})
	if st, data := post(client, base+"/v1/sample", body); st != http.StatusOK {
		t.Fatalf("request A: status %d: %s", st, data)
	}
	before := srv.IOStats().Reads
	if before == 0 {
		t.Fatal("request A recorded no reads")
	}
	armed.Store(true)
	sampled := make(chan int, 1)
	go func() {
		st, _ := post(client, base+"/v1/sample", body)
		sampled <- st
	}()
	<-held
	during := srv.IOStats().Reads
	close(release)
	if st := <-sampled; st != http.StatusOK {
		t.Fatalf("request B: status %d", st)
	}
	if during < before {
		t.Fatalf("reads fell from %d to %d while the worker was leased", before, during)
	}
}

// post sends body and returns the status and response bytes (status 0
// on a transport error).
func post(client *http.Client, url string, body []byte) (int, []byte) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// openFDs counts this process's open file descriptors, or returns -1
// when /proc is absent.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestServeSoakDrainBaseline sends about 2,000 mixed /v1/sample
// requests — features on and off, all three strategies, some with
// deadlines too short to meet — to a single-node server on a
// fault-injecting sim ring, then to a router over two Local shards,
// and drains each. After every drain the goroutine count and the open
// fd count must come back to what they were before the server started.
func TestServeSoakDrainBaseline(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	if _, err := gen.GenerateWith(dir, "soak", "rmat", 2_000, 30_000, 11, gen.Options{FeatureDim: testFeatureDim}); err != nil {
		t.Fatal(err)
	}
	requests := 2000
	if testing.Short() {
		requests = 300
	}
	cfg := DefaultConfig()
	cfg.Backend = uring.BackendSim
	cfg.Core.Threads = 2
	cfg.Core.BatchSize = 16
	cfg.Core.MaxIORetries = 64
	cfg.Core.FeatureCacheBudgetBytes = 8 << 10
	cfg.Core.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
		return uring.NewFault(r, uring.FaultPlan{
			Seed: sample.Mix(13, uint64(workerID)), ShortReadRate: 0.1, TransientRate: 0.05, DelayRate: 0.1, MaxDelay: 3,
		})
	}
	cfg.BatchWindow = time.Millisecond

	ds := openShard(t, dir)
	dirs, err := gen.Partition(dir, filepath.Join(t.TempDir(), "p2"), 2)
	if err != nil {
		t.Fatal(err)
	}
	sds := []*storage.Dataset{openShard(t, dirs[0]), openShard(t, dirs[1])}

	soak := func(label string, build func() (*Server, error)) {
		t.Helper()
		runtime.GC()
		goroutines, fds := runtime.NumGoroutine(), openFDs()
		srv, err := build()
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve(ln) }()
		url := "http://" + ln.Addr().String() + "/v1/sample"
		tr := &http.Transport{MaxIdleConnsPerHost: 8}
		client := &http.Client{Transport: tr, Timeout: 30 * time.Second}

		var next, ok, late atomic.Int64
		var wg sync.WaitGroup
		fail := make(chan string, 8)
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(requests) {
						return
					}
					rng := sample.NewRNG(sample.Mix(77, uint64(i)))
					// One request in ten is large with a 1 ms deadline, so
					// some expire in the queue or mid-chunk.
					short := i%10 == 7
					n, fanouts := 1+rng.Uint32n(40), []int{4, 3}
					if short {
						n, fanouts = 64, []int{10, 8}
					}
					targets := make([]uint32, n)
					for j := range targets {
						targets[j] = rng.Uint32n(uint32(ds.NumNodes()))
					}
					req := sampleRequest{
						Targets:  targets,
						Fanouts:  fanouts,
						Seed:     uint64(i),
						Strategy: []string{core.StrategyUniform, core.StrategyWeighted, core.StrategyWalk}[i%3],
						Features: i%4 == 1,
					}
					if short {
						req.TimeoutMS = 1
					}
					body, _ := json.Marshal(req)
					st, data := post(client, url, body)
					switch {
					case st == http.StatusOK:
						ok.Add(1)
					case short && st == http.StatusGatewayTimeout:
						late.Add(1)
					default:
						select {
						case fail <- fmt.Sprintf("%s: request %d: status %d: %s", label, i, st, data):
						default:
						}
						return
					}
				}
			}()
		}
		wg.Wait()
		close(fail)
		for f := range fail {
			t.Fatal(f)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("%s: drain: %v", label, err)
		}
		if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
			t.Fatalf("%s: Serve returned %v", label, err)
		}
		tr.CloseIdleConnections()
		t.Logf("%s: %d ok, %d past their deadline", label, ok.Load(), late.Load())

		var g, f int
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			g, f = runtime.NumGoroutine(), openFDs()
			if g <= goroutines && f <= fds {
				return
			}
			if time.Now().After(deadline) {
				break
			}
		}
		if g > goroutines {
			buf := make([]byte, 1<<16)
			t.Errorf("%s: %d goroutines after drain, %d before start\n%s", label, g, goroutines, buf[:runtime.Stack(buf, true)])
		}
		if fds >= 0 && f > fds {
			t.Errorf("%s: %d open fds after drain, %d before start", label, f, fds)
		}
	}

	soak("single node", func() (*Server, error) { return New(ds, cfg) })
	soak("router over 2 Local shards", func() (*Server, error) {
		engines := make([]shard.Engine, len(sds))
		for i, s := range sds {
			eng, err := shard.NewLocal(s, cfg.Core, cfg.Backend)
			if err != nil {
				return nil, err
			}
			engines[i] = eng
		}
		return NewRouter(engines, cfg)
	})
}
