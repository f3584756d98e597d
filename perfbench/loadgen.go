package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ringsampler/internal/storage"
)

// request is one generated POST /v1/sample call. Everything in it is
// drawn from the seed before the timed window.
type request struct {
	at       time.Duration // scheduled send time, from the phase start
	targets  []uint32
	seed     uint64
	features bool
	body     []byte
}

// serveFanouts are the per-request fanouts of the serve workloads.
var serveFanouts = []int{10, 5}

const serveTargets = 64

// degreeSampler draws nodes with probability proportional to degree+1,
// so hot nodes recur across requests.
type degreeSampler struct{ cum []int64 }

func newDegreeSampler(ds *storage.Dataset) *degreeSampler {
	n := ds.NumNodes()
	cum := make([]int64, n)
	var acc int64
	for v := int64(0); v < n; v++ {
		acc += ds.Degree(uint32(v)) + 1
		cum[v] = acc
	}
	return &degreeSampler{cum: cum}
}

func (d *degreeSampler) draw(rng *rand.Rand) uint32 {
	x := rng.Int64N(d.cum[len(d.cum)-1])
	return uint32(sort.Search(len(d.cum), func(i int) bool { return d.cum[i] > x }))
}

// poisson returns arrival offsets of a Poisson process at rate per
// second over dur.
func poisson(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}

// makeRequests builds the request bodies of a phase whose requests are
// scheduled at arrivals. One request in four asks for features.
func makeRequests(rng *rand.Rand, ds *degreeSampler, arrivals []time.Duration) ([]request, error) {
	reqs := make([]request, len(arrivals))
	for i, at := range arrivals {
		q := request{at: at, seed: rng.Uint64(), features: i%4 == 3, targets: make([]uint32, serveTargets)}
		for k := range q.targets {
			q.targets[k] = ds.draw(rng)
		}
		body, err := json.Marshal(struct {
			Targets  []uint32 `json:"targets"`
			Fanouts  []int    `json:"fanouts"`
			Seed     uint64   `json:"seed"`
			Features bool     `json:"features,omitempty"`
		}{q.targets, serveFanouts, q.seed, q.features})
		if err != nil {
			return nil, err
		}
		q.body = body
		reqs[i] = q
	}
	return reqs, nil
}

// outcome is what happened to one request. Times are from the phase
// start.
type outcome struct {
	sent, done time.Duration
	status     int
	err        error
	digest     string
	bytes      int
}

func (o outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// loadgen sends requests on at most conns keep-alive connections, each
// owned by one sender goroutine, so a stall on the server delays every
// request scheduled behind it.
type loadgen struct {
	client *http.Client
	url    string
	conns  int
}

func newLoadgen(url string, conns int) *loadgen {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loadgen{client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, url: url, conns: conns}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// run sends reqs on their schedule and returns once every one has
// completed. Each sender takes the next request in schedule order and
// sends it when due, so when every connection is busy a request waits,
// and its latency counts from its scheduled time.
func (g *loadgen) run(reqs []request) []outcome {
	return g.drive(reqs, true, 0)
}

// saturate keeps every connection busy for dur: each sender sends the
// next request as soon as its last one is answered, so the server runs
// at the most it can answer on these connections. It cycles through
// reqs, so outcome i belongs to reqs[i%len(reqs)], and returns the
// outcomes of the requests it sent, in order.
func (g *loadgen) saturate(reqs []request, dur time.Duration) []outcome {
	return g.drive(reqs, false, dur)
}

// drive runs one sender per connection over reqs in order: paced, each
// request waits for its scheduled time; unpaced, senders cycle through
// reqs and stop taking requests after dur.
func (g *loadgen) drive(reqs []request, paced bool, dur time.Duration) []outcome {
	type sent struct {
		i int
		o outcome
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	got := make([][]sent, g.conns)
	start := time.Now()
	for c := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer // reused, so reading responses makes no garbage for the server's GC
			for paced || time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				if paced && i >= len(reqs) {
					return
				}
				q := reqs[i%len(reqs)]
				if d := q.at - time.Since(start); paced && d > 0 {
					time.Sleep(d)
				}
				got[c] = append(got[c], sent{i, g.send(start, q, &buf)})
			}
		}()
	}
	wg.Wait()
	n := int(next.Load())
	if paced {
		n = min(n, len(reqs))
	}
	out := make([]outcome, n)
	for _, ss := range got {
		for _, s := range ss {
			out[s.i] = s.o
		}
	}
	return out
}

// windows is how many equal windows a phase is split into for its
// windowed statistics; taking the median window keeps a burst of CPU
// steal in one window from moving the result.
const windows = 5

// windowOf returns which of the windows between warm and dur t falls
// in.
func windowOf(t, warm, dur time.Duration) int {
	return min(int((t-warm)/((dur-warm)/windows)), windows-1)
}

// completionRate is the median, over the windows between warm and dur,
// of the requests answered per second in each window; outs are timed
// from the phase start.
func completionRate(outs []outcome, warm, dur time.Duration) float64 {
	counts := make([]float64, windows)
	for _, o := range outs {
		if !o.ok() || o.done < warm || o.done >= dur {
			continue
		}
		counts[windowOf(o.done, warm, dur)]++
	}
	width := (dur - warm) / windows
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return median(counts)
}

var digestKey = []byte(`"digest":"`)

func (g *loadgen) send(start time.Time, q request, buf *bytes.Buffer) outcome {
	o := outcome{sent: time.Since(start)}
	resp, err := g.client.Post(g.url, "application/json", bytes.NewReader(q.body))
	if err != nil {
		o.err, o.done = err, time.Since(start)
		return o
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	body := buf.Bytes()
	o.done, o.status, o.bytes, o.err = time.Since(start), resp.StatusCode, len(body), err
	if o.ok() {
		// The response's own digest is its last "digest" field (the
		// batches' digests come first); finding it avoids decoding the
		// whole body on the load generator's CPU.
		if k := bytes.LastIndex(body, digestKey); k >= 0 && k+len(digestKey)+16 <= len(body) {
			o.digest = string(body[k+len(digestKey) : k+len(digestKey)+16])
		} else {
			o.err = fmt.Errorf("response has no digest")
		}
	}
	return o
}

// phaseStats summarises one phase, skipping requests scheduled in its
// warm-up.
type phaseStats struct {
	n, failed           int
	lat, late           []float64 // ms, from the scheduled time
	tail                float64   // median over the windows of each window's tailQ latency
	bytes               float64
	backlogMid, backlog int // scheduled but unsent, at mid-phase and at the end
}

func summarise(reqs []request, outs []outcome, warm, dur time.Duration) phaseStats {
	var s phaseStats
	per := make([][]float64, windows) // latencies by the window of their scheduled time
	for i, q := range reqs {
		o := outs[i]
		if q.at < warm {
			continue
		}
		s.n++
		if !o.ok() {
			s.failed++
			continue
		}
		s.lat = append(s.lat, float64((o.done-q.at).Nanoseconds())/1e6)
		k := windowOf(q.at, warm, dur)
		per[k] = append(per[k], s.lat[len(s.lat)-1])
		s.late = append(s.late, float64((o.sent-q.at).Nanoseconds())/1e6)
		s.bytes += float64(o.bytes)
	}
	var tails []float64
	for _, w := range per {
		if len(w) > 0 {
			tails = append(tails, quantile(w, tailQ))
		}
	}
	s.tail = median(tails)
	s.backlogMid = backlogAt(reqs, outs, (warm+dur)/2)
	s.backlog = backlogAt(reqs, outs, dur)
	return s
}

// backlogAt counts requests scheduled by t that had not been sent by t.
func backlogAt(reqs []request, outs []outcome, t time.Duration) int {
	n := 0
	for i, q := range reqs {
		if q.at <= t && outs[i].sent > t {
			n++
		}
	}
	return n
}
