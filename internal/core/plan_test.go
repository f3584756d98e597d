package core

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"ringsampler/internal/gen"
	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// tpick is one planned pick: a global entry index and the stage-buffer
// byte it lands at.
type tpick struct{ entry, bufPos int64 }

// seqPicks plans entries at back-to-back buffer positions, as a layer
// with no cache hits does.
func seqPicks(stride int64, entries ...int64) []tpick {
	out := make([]tpick, len(entries))
	for i, e := range entries {
		out[i] = tpick{e, int64(i) * stride}
	}
	return out
}

// entryRange returns the n entries lo, lo+1, ...
func entryRange(lo, n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = lo + int64(i)
	}
	return out
}

// planPicks runs picks through a planner with a 4 KiB page, whatever
// the host's page size, so expectations are host-independent.
func planPicks(stride, base int64, align int, picks []tpick) *planner {
	p := newPlanner(stride, base, align)
	p.page = 4096
	for _, pk := range picks {
		p.add(pk.entry, pk.bufPos)
	}
	return &p
}

// pagesOf adds the pages file bytes [lo, hi) touch to set.
func pagesOf(set map[int64]bool, lo, hi, page int64) {
	for pg := lo / page; pg <= (hi-1)/page; pg++ {
		set[pg] = true
	}
}

// checkPlan asserts the planner's contract against one read per pick:
// every pick lands exactly once at its own buffer position, nothing
// else is written, the plan touches exactly the pages the per-pick
// reads would, each run's gap is the span its segments leave
// uncovered, and no gather read's window exceeds a page.
func checkPlan(t *testing.T, p *planner, picks []tpick) {
	t.Helper()
	landed := make(map[int64]int64) // buffer position -> file offset
	runPages := make(map[int64]bool)
	for ri := range p.runs {
		r := &p.runs[ri]
		covered := make(map[int64]bool)
		for _, s := range p.segsOf(r) {
			if s.spanOff < 0 || s.spanOff+s.n > r.span || s.n <= 0 || s.n%p.stride != 0 {
				t.Fatalf("run %d: segment %+v outside span %d", ri, s, r.span)
			}
			for k := int64(0); k < s.n; k += p.stride {
				pos := s.bufPos + k
				if _, dup := landed[pos]; dup {
					t.Fatalf("run %d: buffer position %d written twice", ri, pos)
				}
				landed[pos] = r.off + s.spanOff + k
				covered[s.spanOff+k] = true
			}
		}
		if want := r.span - int64(len(covered))*p.stride; r.gap != want {
			t.Fatalf("run %d: gap %d, want %d", ri, r.gap, want)
		}
		if !r.direct() && p.window(r.off, r.off+r.span) > p.page {
			t.Fatalf("run %d: gather window %d over the %d cap", ri, p.window(r.off, r.off+r.span), p.page)
		}
		pagesOf(runPages, r.off, r.off+r.span, p.page)
	}
	pickPages := make(map[int64]bool)
	for _, pk := range picks {
		want := (pk.entry - p.base) * p.stride
		if got, ok := landed[pk.bufPos]; !ok || got != want {
			t.Fatalf("pick %+v: lands file offset %d (planned %v), want %d", pk, got, ok, want)
		}
		pagesOf(pickPages, want, want+p.stride, p.page)
	}
	if len(landed) != len(picks) {
		t.Fatalf("plan writes %d entries, want %d", len(landed), len(picks))
	}
	if !maps.Equal(runPages, pickPages) {
		t.Fatalf("plan touches pages %v, one read per pick touches %v", runPages, pickPages)
	}
}

func TestPlanCoalesce(t *testing.T) {
	cases := []struct {
		name         string
		stride, base int64
		align        int
		picks        []tpick
		runs, direct int
	}{
		{name: "same page", stride: 4, picks: seqPicks(4, 0, 10, 20), runs: 1},
		{name: "next page", stride: 4, picks: seqPicks(4, 1000, 1030), runs: 1},
		{name: "skipped page", stride: 4, picks: seqPicks(4, 0, 2100), runs: 2, direct: 2},
		{name: "span fills the cap", stride: 4, picks: seqPicks(4, 0, 1023), runs: 1},
		{name: "span over the cap", stride: 4, picks: seqPicks(4, 0, 1024), runs: 2, direct: 2},
		{name: "contiguous", stride: 4, picks: seqPicks(4, 5, 6, 7), runs: 1, direct: 1},
		{
			name: "contiguous past a page stays direct", stride: 4,
			picks: seqPicks(4, entryRange(1000, 1100)...), runs: 1, direct: 1,
		},
		{
			name: "cache hit between two picks of one span", stride: 4,
			picks: []tpick{{5, 0}, {6, 8}, {9, 12}}, runs: 1,
		},
		{
			name: "weighted duplicates", stride: 4,
			picks: seqPicks(4, 7, 7, 9, 9, 9, 12), runs: 1,
		},
		{name: "shard entryBase", stride: 4, base: 1 << 20, picks: seqPicks(4, 1<<20+3, 1<<20+900, 1<<20+1100, 1<<20+5000), runs: 3, direct: 2},
		{name: "feature stride 24 straddling a page", stride: 24, picks: seqPicks(24, 100, 170, 171), runs: 1},
		{name: "feature stride 64", stride: 64, picks: seqPicks(64, 0, 63, 64, 70, 200), runs: 3, direct: 1},
		{name: "unsorted FetchFeatures input", stride: 64, picks: seqPicks(64, 50, 10, 60, 0, 3), runs: 3, direct: 1},
		{name: "unsorted pick filling a gap", stride: 4, picks: seqPicks(4, 0, 20, 10), runs: 1},
		{name: "O_DIRECT window within the cap", stride: 4, align: 512, picks: seqPicks(4, 0, 1000), runs: 1},
		{name: "O_DIRECT window over the cap", stride: 4, align: 512, picks: seqPicks(4, 100, 1100), runs: 2, direct: 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := planPicks(c.stride, c.base, c.align, c.picks)
			checkPlan(t, p, c.picks)
			direct := 0
			for i := range p.runs {
				if p.runs[i].direct() {
					direct++
				}
			}
			if len(p.runs) != c.runs || direct != c.direct {
				t.Fatalf("planned %d runs (%d direct), want %d (%d direct): %+v", len(p.runs), direct, c.runs, c.direct, p.runs)
			}
		})
	}
}

// TestPlanCoalesceProperty checks the planner contract over random
// ascending pick streams: gaps of every size, duplicate picks, cache
// hits skipping buffer positions, and every stride the engine uses.
func TestPlanCoalesceProperty(t *testing.T) {
	rng := sample.NewRNG(12)
	for iter := 0; iter < 500; iter++ {
		stride := []int64{4, 24, 64}[rng.Intn(3)]
		base := int64(rng.Intn(3)) * 4096
		align := []int{0, 0, 512, 4096}[rng.Intn(4)]
		maxGap := []int{1, 8, 64, 2048}[rng.Intn(4)]
		var picks []tpick
		entry, pos := base+int64(rng.Intn(100)), int64(0)
		for n := 1 + rng.Intn(300); n > 0; n-- {
			if rng.Intn(8) == 0 {
				pos += stride // a cache hit takes this buffer slot
			}
			picks = append(picks, tpick{entry, pos})
			pos += stride
			if rng.Intn(6) != 0 { // otherwise a duplicate pick
				entry += 1 + int64(rng.Intn(maxGap))
			}
		}
		t.Run(fmt.Sprintf("%d/stride=%d/align=%d", iter, stride, align), func(t *testing.T) {
			checkPlan(t, planPicks(stride, base, align, picks), picks)
		})
	}
}

// splitRing cuts the first completed gather read short by 6 bytes —
// mid-entry for 4-byte edge entries — and checks that the worker
// resubmits exactly the tail, into the same scratch slot.
type splitRing struct {
	uring.Ring
	gather func(id uint64) bool // set once the worker exists

	dst map[uint64][]byte // id -> destination of its latest prep
	off map[uint64]int64

	cut, resumed bool
	cutID        uint64
	wantOff      int64
	wantDst      []byte
	bad          string
}

func (s *splitRing) PrepRead(id uint64, off int64, buf []byte) bool {
	if s.cut && !s.resumed && id == s.cutID {
		s.resumed = true
		if off != s.wantOff || len(buf) != len(s.wantDst) || &buf[0] != &s.wantDst[0] {
			s.bad = fmt.Sprintf("resubmitted off %d len %d at %p, want off %d len %d at %p",
				off, len(buf), &buf[0], s.wantOff, len(s.wantDst), &s.wantDst[0])
		}
	}
	s.dst[id], s.off[id] = buf, off
	return s.Ring.PrepRead(id, off, buf)
}

func (s *splitRing) Wait(min int) ([]uring.CQE, error) {
	cqes, err := s.Ring.Wait(min)
	for i := range cqes {
		c := &cqes[i]
		if !s.cut && c.Res > 6 && int(c.Res) == len(s.dst[c.ID]) && s.gather(c.ID) {
			s.cut, s.cutID = true, c.ID
			s.wantOff, s.wantDst = s.off[c.ID]+6, s.dst[c.ID][6:]
			c.Res = 6
		}
	}
	return cqes, err
}

// TestGatherShortReadResumes: a short read that splits a gather span
// mid-entry resumes from the exact byte it stopped at, into the same
// scratch slot, and the batch is byte-identical to a clean run.
func TestGatherShortReadResumes(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Seed = 42
	targets := testTargets(ds, 128)
	ref := sampleOnce(t, ds, cfg, uring.BackendSim, targets)

	backends := []uring.Backend{uring.BackendSim, uring.BackendPool}
	if uring.Probe().Ring {
		backends = append(backends, uring.BackendIOURing)
	}
	for _, be := range backends {
		t.Run(string(be), func(t *testing.T) {
			var sr *splitRing
			c := cfg
			c.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
				sr = &splitRing{Ring: r, dst: make(map[uint64][]byte), off: make(map[uint64]int64)}
				return sr, nil
			}
			s, err := New(ds, c, be)
			if err != nil {
				t.Fatal(err)
			}
			w, err := s.NewWorker(0)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			sr.gather = func(id uint64) bool { return !w.edge.plan.runs[id].direct() }
			got, err := w.SampleBatch(targets)
			if err != nil {
				t.Fatal(err)
			}
			assertBatchesEqual(t, ref, got, string(be))
			if got.Digest() != ref.Digest() {
				t.Fatal("digest differs after a split gather read")
			}
			if !sr.cut || !sr.resumed {
				t.Fatalf("no gather read was split and resumed (cut=%v resumed=%v)", sr.cut, sr.resumed)
			}
			if sr.bad != "" {
				t.Fatal(sr.bad)
			}
			if st := w.IOStats(); st.ShortReads == 0 || st.Retries == 0 || st.GapBytes == 0 {
				t.Fatalf("stats %+v: want a short read, a retry and gap bytes", st)
			}
		})
	}
}

// TestSlotPoolExhaustedUnderDelays: with completions held back by the
// fault ring, gather reads lease every scratch slot and staging has to
// wait for completions; that wait must never look like a stalled ring,
// and the samples and features must match a clean run.
func TestSlotPoolExhaustedUnderDelays(t *testing.T) {
	dir := sizedFeatureDatasetDir(t, 20_000, 300_000)
	cfg := DefaultConfig()
	cfg.Seed = 42
	targets := testTargets(openDS(t, dir, false), 1024)
	opts := BatchOpts{Fanouts: cfg.Fanouts, Seed: cfg.Seed, Features: true}
	ref, err := newFeatWorker(t, dir, cfg, uring.BackendSim).SampleBatchOpts(targets, opts)
	if err != nil {
		t.Fatal(err)
	}
	delays := uring.FaultPlan{Seed: 8, DelayRate: 0.9, MaxDelay: 5}
	for _, be := range []uring.Backend{uring.BackendSim, uring.BackendPool} {
		t.Run(string(be), func(t *testing.T) {
			c := cfg
			c.WrapRing = faultWrap(delays)
			w := newFeatWorker(t, dir, c, be)
			got, err := w.SampleBatchOpts(targets, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Digest() != ref.Digest() {
				t.Fatal("digest differs under delayed completions")
			}
			st := w.IOStats()
			if st.SlotWaits == 0 {
				t.Fatalf("scratch pool never ran dry (%+v); the test proves nothing", st)
			}
			if fs, _ := uring.Faults(w.edge.ring); fs.Delayed == 0 {
				t.Fatal("no completion was delayed")
			}
		})
	}
}

// FuzzPlanRuns plans fuzzed pick streams — steps back and forth through
// the edge or the feature file, some picks served from a cache or owned
// by another shard — issues the plan through a sim-backed worker, and
// checks the stage buffer against one read per pick.
func FuzzPlanRuns(f *testing.F) {
	dir := f.TempDir()
	if _, err := gen.GenerateWith(dir, "fuzz", "rmat", 4_000, 60_000, 5, gen.Options{FeatureDim: featConfDim}); err != nil {
		f.Fatal(err)
	}
	ds, err := storage.Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { ds.Close() })
	edges, err := os.ReadFile(filepath.Join(dir, storage.EdgesFile))
	if err != nil {
		f.Fatal(err)
	}
	feats, err := os.ReadFile(filepath.Join(dir, storage.FeaturesFile))
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(ds, DefaultConfig(), uring.BackendSim)
	if err != nil {
		f.Fatal(err)
	}
	w, err := s.NewWorker(0)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { w.Close() })
	if err := w.ensureFeat(); err != nil {
		f.Fatal(err)
	}
	// Seeds live in testdata/fuzz/FuzzPlanRuns.
	f.Fuzz(func(t *testing.T, steps []byte, cached, foreign uint64, feat bool) {
		r, file := &w.edge, edges
		if feat {
			r, file = &w.feat, feats
		}
		stride := r.plan.stride
		n := int64(len(file)) / stride
		if len(steps) > 2048 {
			steps = steps[:2048]
		}
		r.plan.reset()
		w.cachedPicks = w.cachedPicks[:0]
		var picks []tpick
		want := make([]byte, 0, int64(len(steps))*stride)
		entry := int64(0)
		for i, st := range steps {
			entry = ((entry+3*int64(int8(st)))%n + n) % n
			pos := int64(i) * stride
			rec := file[entry*stride : (entry+1)*stride]
			switch bit := uint64(1) << (i % 64); {
			case foreign&bit != 0:
				rec = make([]byte, stride)
				w.cachedPicks = append(w.cachedPicks, cachedPick{bufPos: pos, src: rec})
			case cached&bit != 0:
				w.cachedPicks = append(w.cachedPicks, cachedPick{bufPos: pos, src: rec})
			default:
				r.plan.add(entry, pos)
				picks = append(picks, tpick{entry, pos})
			}
			want = append(want, rec...)
		}
		checkPlan(t, &r.plan, picks)
		w.sizeBuf(int64(len(want)), r.plan.align)
		w.copyCached()
		if err := r.issue(w.buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.buf, want) {
			t.Fatalf("stage buffer differs from one read per pick")
		}
	})
}
