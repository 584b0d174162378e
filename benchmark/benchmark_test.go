package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"laminar/internal/core"
)

func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// testCorpus is small enough to embed in a few milliseconds.
func testCorpus(seed int64) *Corpus {
	c := newCorpus(seed, 200, 20)
	c.embed()
	return c
}

func TestSameSeedSameOpStream(t *testing.T) {
	gens := map[string]func(c *Corpus, seed int64) []Op{
		wlQueryRepeat:    func(c *Corpus, s int64) []Op { return genQueryRepeat(c, s, 300) },
		wlQueryUnique:    func(c *Corpus, s int64) []Op { return genQueryUnique(c, s, 300) },
		wlIngestChurn:    func(c *Corpus, s int64) []Op { return genIngestChurn(c, s, 300) },
		wlClusterScatter: func(c *Corpus, s int64) []Op { return genClusterScatter(c, s, 300) },
	}
	// Two independent builds of seed 1, so the corpus is under test too.
	first, again, other := testCorpus(1), testCorpus(1), testCorpus(2)
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a, b, c := streamBytes(gen(first, 1)), streamBytes(gen(again, 1)), streamBytes(gen(other, 2))
			if !bytes.Equal(a, b) {
				t.Error("the same seed gave two different op streams")
			}
			if bytes.Equal(a, c) {
				t.Error("seeds 1 and 2 gave the same op stream")
			}
		})
	}
}

func TestUniqueStreamNeverRepeatsAQuery(t *testing.T) {
	seen := map[string]bool{}
	for _, op := range genQueryUnique(testCorpus(1), 1, 150) {
		if op.Class == clsText {
			continue // a text query is distinct by target, and only 160 targets exist here
		}
		if op.Req.QueryEmbedding != nil {
			t.Fatalf("query_unique sent an embedding for %q", op.Req.Search)
		}
		if seen[op.Req.Search] {
			t.Fatalf("query text %q sent twice", op.Req.Search)
		}
		seen[op.Req.Search] = true
	}
}

func TestRepeatPoolOutgrowsTheCache(t *testing.T) {
	spec, _ := specByName(wlQueryRepeat)
	c := testCorpus(1)
	pool := newRepeatPool(newTestRand(1), spec.Mix, c.alicePEs(), poolSize)
	if poolSize <= spec.CacheSize {
		t.Errorf("pool (%d) must be larger than the server's cache (%d) or nothing is ever evicted", poolSize, spec.CacheSize)
	}
	for _, m := range spec.Mix {
		want := int(float64(poolSize)*m.Share + 0.5)
		if got := len(pool.byClass[m.Class]); got != want {
			t.Errorf("class %s: %d pooled requests, want %d", m.Class, got, want)
		}
	}
	distinct := map[string]bool{}
	for _, ops := range pool.byClass {
		for _, op := range ops {
			distinct[string(op.Body)] = true
		}
	}
	if len(distinct) != poolSize {
		t.Errorf("%d distinct request bodies in a pool of %d", len(distinct), poolSize)
	}
	for _, s := range workloadSpecs {
		var total float64
		for _, m := range s.Mix {
			total += m.Share
		}
		if len(s.Mix) > 0 && math.Abs(total-1) > 1e-9 {
			t.Errorf("%s: mix shares sum to %g", s.Name, total)
		}
	}
}

func TestIngestChurnNeverLosesASearchTarget(t *testing.T) {
	c := testCorpus(3)
	alice := c.alicePEs()
	stable := map[int]bool{}
	for _, p := range alice[:len(alice)/2] {
		stable[p.ID] = true
	}
	removedAt := map[string]int{}
	for i, op := range genIngestChurn(c, 3, 400) {
		switch {
		case op.Req != nil && !stable[op.Target.ID]:
			t.Fatalf("op %d searches for PE %d, which a removal may take away", i, op.Target.ID)
		case op.Class == clsRemove:
			if _, twice := removedAt[op.Name]; twice {
				t.Fatalf("op %d removes %s a second time", i, op.Name)
			}
			removedAt[op.Name] = i
		case op.Class == clsAdd:
			if at, was := removedAt[op.Name]; was && i-at < readdLag {
				t.Fatalf("op %d re-adds %s only %d ops after its removal", i, op.Name, i-at)
			}
		}
	}
}

// TestIngestChurnOutlastsTheCorpus generates a stream whose removals
// outnumber the corpus PEs set aside for removal several times over, which
// is where the full corpus stands from `-seconds 13` up (2,000 PEs set
// aside; 15% of the reference run's 29,716 ops are 4,457 removals), and
// replays it against a model of alice's PE set: every removal must name a
// PE that is registered, every registration one that is not.
func TestIngestChurnOutlastsTheCorpus(t *testing.T) {
	c := testCorpus(4)
	alice := c.alicePEs()
	setAside := len(alice) - len(alice)/2
	present := map[string]int{} // name -> the op that registered it
	for _, p := range alice {
		present[p.Name] = -readdLag
	}
	removals := 0
	for i, op := range genIngestChurn(c, 4, 3000) {
		switch op.Class {
		case clsRemove:
			at, ok := present[op.Name]
			if !ok {
				t.Fatalf("op %d removes %s, which is not registered", i, op.Name)
			}
			if i-at < readdLag {
				t.Fatalf("op %d removes %s only %d ops after its registration", i, op.Name, i-at)
			}
			delete(present, op.Name)
			removals++
		case clsAdd:
			if _, ok := present[op.Name]; ok {
				t.Fatalf("op %d registers %s, which is registered already", i, op.Name)
			}
			if op.Add == nil || op.Add.DescEmbedding == nil || op.Add.CodeEmbedding == nil {
				t.Fatalf("op %d registers %s without client embeddings", i, op.Name)
			}
			present[op.Name] = i
		}
	}
	if removals < 3*setAside {
		t.Fatalf("%d removals do not outlast the %d PEs set aside", removals, setAside)
	}
	if share := float64(removals) / 3000; math.Abs(share-0.15) > 0.03 {
		t.Errorf("removals are %.3f of the stream, want 0.15", share)
	}
	spec, _ := specByName(wlIngestChurn)
	if n := streamLength(spec, referenceSeconds); float64(n)*0.15 < 2000 {
		t.Errorf("the reference run's %d ops no longer outlast the corpus; this test's comment is stale", n)
	}
}

func TestPickTailWantsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		limit float64
		want  float64
	}{
		{2222, 99, 99}, // 22 beyond p99
		{999, 99, 98},  // 9.99 beyond p99, 19.98 beyond p98
		{1000, 99, 99}, // exactly 10 beyond
		{666, 98, 98},  // 13 beyond
		{20, 75, 50},   // only the median has 10 beyond
		{40, 75, 75},
		{340, 90, 90},
		{5, 99, 50}, // too few for any tail
		{100000, 90, 90},
	}
	for _, c := range cases {
		if got := pickTail(c.n, c.limit); got != c.want {
			t.Errorf("pickTail(%d, p%g) = p%g, want p%g", c.n, c.limit, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of [1 2 4] = %g, %g; want 1, 4", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of [1 2] = %g, %g; want 0.75, 2.25", q1, q3)
	}
	if got := iqr([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 5.5 {
		t.Errorf("iqr of 1..10 = %g, want 8.25-2.75 = 5.5", got)
	}
	if got := iqr([]float64{7}); got != 0 {
		t.Errorf("iqr of one value = %g, want 0", got)
	}
}

func TestOpenLoopChargesAStallToEveryOpDueDuringIt(t *testing.T) {
	const (
		rate    = 200.0
		stallAt = 10
		stall   = 200 * time.Millisecond
	)
	interval := time.Duration(float64(time.Second) / rate)
	ops := make([]Op, 80)
	for i := range ops {
		ops[i].Class = clsSemANN
		ops[i].Name = strconv.Itoa(i)
	}
	var mu sync.Mutex
	stub := func(_ int, op *Op) outcome {
		if op.Name == strconv.Itoa(stallAt) {
			time.Sleep(stall)
		}
		mu.Lock()
		defer mu.Unlock()
		return outcome{OK: true, Correct: true}
	}
	res := openLoop(ops, 0, rate, 400*time.Millisecond, 1, stub)
	if len(res.Samples) != 80 {
		t.Fatalf("sent %d ops, want 80", len(res.Samples))
	}
	due := int(stall / interval) // ops that came due while the server stalled
	for _, s := range res.Samples {
		behind := s.Index - stallAt
		switch {
		case behind < 0:
			if s.Latency > stall/2 {
				t.Errorf("op %d, sent before the stall, took %v", s.Index, s.Latency)
			}
		case behind <= due-5:
			// Due at stallAt+behind intervals, sent no earlier than the
			// stall's end: it waited for what was left of the stall.
			if want := stall - time.Duration(behind)*interval; s.Latency < want {
				t.Errorf("op %d came due %d intervals into the stall and is charged %v, want at least %v", s.Index, behind, s.Latency, want)
			}
		}
	}
	if backlogGrowing(res.StartDelay) {
		t.Error("a stall the schedule recovered from was reported as a growing backlog")
	}
}

func TestBacklogGrowing(t *testing.T) {
	flat := make([]time.Duration, 100)
	growing := make([]time.Duration, 100)
	for i := range growing {
		flat[i] = time.Millisecond
		growing[i] = time.Duration(i) * 10 * time.Millisecond
	}
	if backlogGrowing(flat) {
		t.Error("a steady 1 ms start delay reported as a growing backlog")
	}
	if !backlogGrowing(growing) {
		t.Error("start delays rising to a second not reported as a growing backlog")
	}
}

func TestClosedLoopReportsAnExhaustedStream(t *testing.T) {
	ops := make([]Op, 5)
	res := closedLoop(ops, 0, 50*time.Millisecond, 2, func(int, *Op) outcome { return outcome{OK: true} })
	if !res.Exhausted {
		t.Error("five ops lasted 50 ms of closed loop without the phase noticing")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: mP50, Unit: "ms", Better: "lower"}
	higher := metricDef{Name: mCapacity, Unit: "ops/s", Better: "higher"}
	share := metricDef{Name: mCorrect, Unit: "share", Better: "higher", Abs: true}
	cases := []struct {
		name      string
		def       metricDef
		allow     float64
		base, new []float64
		want      string
	}{
		{"same", lower, 0.10, []float64{10, 10.1, 9.9}, []float64{10, 10.2, 9.8}, verdictUnchanged},
		{"slower by 30%", lower, 0.10, []float64{10, 10.1, 9.9}, []float64{13, 13.1, 12.9}, verdictRegressed},
		{"slower by 20%", lower, 0.10, []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, verdictRegressed},
		{"slower by 20% on a cell widened to 25%", lower, 0.25, []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, verdictUnchanged},
		{"slower by 5%, inside the bound", lower, 0.10, []float64{10, 10.1, 9.9}, []float64{10.5, 10.6, 10.4}, verdictUnchanged},
		{"faster", lower, 0.10, []float64{10, 10.1, 9.9}, []float64{7, 7.1, 6.9}, verdictUnchanged},
		{"noisy, overlapping", lower, 0.10, []float64{10, 14, 7}, []float64{11, 15, 8}, verdictUnresolved},
		{"noisy, but every run better", lower, 0.10, []float64{10, 14, 8}, []float64{5, 7, 4}, verdictUnchanged},
		{"capacity down 30%", higher, 0.10, []float64{100, 101, 99}, []float64{70, 71, 69}, verdictRegressed},
		{"capacity up", higher, 0.10, []float64{100, 101, 99}, []float64{130, 131, 129}, verdictUnchanged},
		{"one run a side", lower, 0.10, []float64{10}, []float64{12}, verdictRegressed},
		// Shares are held to an absolute difference, whatever their size.
		{"correct_share 0.99 to 0.95", share, 0.01, []float64{0.99, 0.991, 0.989}, []float64{0.95, 0.951, 0.949}, verdictRegressed},
		{"correct_share 0.990 to 0.985", share, 0.01, []float64{0.99, 0.991, 0.989}, []float64{0.985, 0.986, 0.984}, verdictUnchanged},
		{"correct_share up", share, 0.01, []float64{0.95, 0.951, 0.949}, []float64{0.99, 0.991, 0.989}, verdictUnchanged},
		{"a small share, absolutely", share, 0.01, []float64{0.02, 0.021, 0.019}, []float64{0.015, 0.016, 0.014}, verdictUnchanged},
		{"shares all over the place", share, 0.01, []float64{0.99, 0.95, 0.97}, []float64{0.98, 0.94, 0.96}, verdictUnresolved},
	}
	for _, c := range cases {
		if got := judgeRow(c.def, c.allow, c.base, c.new).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestAllowancesAreTheIssuesUnlessWidened pins what compare allows: the
// issue's bounds, and a reason beside every cell that departs from them.
func TestAllowancesAreTheIssuesUnlessWidened(t *testing.T) {
	want := map[string]struct {
		allow float64
		abs   bool
	}{
		mSetup: {0.20, false}, mP50: {0.10, false}, mTail: {0.10, false}, mCapacity: {0.10, false},
		mCPU: {0.10, false}, mRSS: {0.10, false}, mWithin: {0.01, true}, mCorrect: {0.01, true},
		mFailedShare: {0.001, true}, mDisk: {0.05, false},
	}
	if len(comparedDefs) != len(want) {
		t.Errorf("compare judges %d metrics, the issue names %d", len(comparedDefs), len(want))
	}
	byName := map[string]metricDef{}
	for _, def := range comparedDefs {
		byName[def.Name] = def
		if w := want[def.Name]; def.Allow != w.allow || def.Abs != w.abs {
			t.Errorf("%s: compare allows %g (absolute: %v), the issue %g (absolute: %v)", def.Name, def.Allow, def.Abs, w.allow, w.abs)
		}
		if def.Name != mFailedShare && !def.Abs && def.Bound < def.Allow {
			t.Errorf("%s: the driver's cross-seed bound %g is tighter than compare's same-seed %g", def.Name, def.Bound, def.Allow)
		}
	}
	for cell, w := range widened {
		def, ok := byName[cell[0]]
		if _, isWorkload := specByName(cell[1]); !ok || !isWorkload {
			t.Errorf("widened cell %v names no metric or no workload", cell)
			continue
		}
		if 1.25*w.Seen <= def.Allow || w.Allow < 1.25*w.Seen || w.Allow-1.25*w.Seen >= 0.05 || w.Why == "" {
			t.Errorf("widened cell %v: allowed %g for a measured %g against the metric's %g; want the next 5%% step past 1.25 times the measurement, and a reason", cell, w.Allow, w.Seen, def.Allow)
		}
		if got := allowFor(def, cell[1]); got != w.Allow {
			t.Errorf("allowFor(%v) = %g, want %g", cell, got, w.Allow)
		}
	}
	if got := allowFor(byName[mDisk], wlFlowRun); got != 0.05 {
		t.Errorf("an unwidened cell is allowed %g, want the metric's 0.05", got)
	}
}

func TestCompareFlagsAnyRiseInFailures(t *testing.T) {
	run := func(failed int) *Result {
		return &Result{Workload: wlQueryRepeat, Attempted: 10000, Failed: failed, E2E: map[string]float64{mP50: 1}}
	}
	rows := compareRuns([]*Result{run(0), run(0)}, []*Result{run(1), run(1)})
	var buf bytes.Buffer
	if !printCompare(&buf, rows) {
		t.Errorf("one failed op in ten thousand, where the base had none, must regress:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), mFailedShare) {
		t.Error("compare printed no failed_share row")
	}
	rows = compareRuns([]*Result{run(0)}, []*Result{run(0)})
	if printCompare(&buf, rows) {
		t.Error("identical runs regressed")
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int) int64 { return int64(n) * int64(time.Millisecond) }
	spans := []Span{
		{ID: 1, Op: 0, Layer: "server", Name: "handler", StartNS: 0, EndNS: ms(10)},
		{ID: 2, Parent: 1, Op: 0, Layer: "registry", Name: "hybrid", StartNS: ms(10), EndNS: ms(17)},
		{ID: 3, Parent: 2, Op: 0, Layer: "index", Name: "search", StartNS: ms(17), EndNS: ms(19)},
		{ID: 4, Parent: 2, Op: 0, Layer: "lexical", Name: "search", StartNS: ms(19), EndNS: ms(22)},
		{ID: 5, Parent: 1, Op: 0, Layer: "qcache", Name: "get", StartNS: ms(22), EndNS: ms(23)},
		// A second op whose replayed child outlasted its parent.
		{ID: 6, Op: 1, Layer: "server", Name: "handler", StartNS: ms(30), EndNS: ms(32)},
		{ID: 7, Parent: 6, Op: 1, Layer: "registry", Name: "semantic", StartNS: ms(32), EndNS: ms(35)},
		// A side measurement belongs to no tree.
		{ID: 8, Op: 1, Layer: "cluster", Name: "resp_peer", StartNS: ms(40), EndNS: ms(90), Side: true},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 2 * time.Millisecond, // 10 - 7 - 1
		2: 2 * time.Millisecond, // 7 - 2 - 3
		3: 2 * time.Millisecond, 4: 3 * time.Millisecond, 5: time.Millisecond,
		6: 0, // 2 - 3, floored
		7: 3 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %v, want %v", id, self[id], w)
		}
	}
	if _, ok := self[8]; ok {
		t.Error("a side span was given a self time")
	}
	perOp, byTime, sumRatio, overOps := layerShares(spans)
	// Op 0 is 10 ms: server 2, registry 2, index 2, lexical 3, qcache 1.
	// Op 1 is 3 ms of registry under a 2 ms handler.
	if got, want := perOp["server"], (0.2+0)/2; math.Abs(got-want) > 1e-9 {
		t.Errorf("server takes %g of an op, want %g", got, want)
	}
	if got, want := perOp["registry"], (0.2+1)/2; math.Abs(got-want) > 1e-9 {
		t.Errorf("registry takes %g of an op, want %g", got, want)
	}
	if got, want := byTime["registry"], 5.0/13; math.Abs(got-want) > 1e-9 {
		t.Errorf("registry takes %g of all time, want %g", got, want)
	}
	if _, ok := perOp["cluster"]; ok {
		t.Error("a side span counted towards the shares")
	}
	if want := 13.0 / 12; math.Abs(sumRatio-want) > 1e-9 {
		t.Errorf("layers sum to %g of the outermost spans, want %g", sumRatio, want)
	}
	// Op 0's layers sum to its handler exactly, op 1's to 1.5 times it.
	if overOps != 0.5 {
		t.Errorf("%g of the ops overshot their outermost span, want 0.5", overOps)
	}
}

// TestTwinMatchesTheRegistry catches drift between the registry's call
// tree and the copy of it the traced replay spells out: at recall target
// 1.0, where the clustered index is exact, the standalone legs fused and
// reranked by the twin must return what Store.SemanticSearchBoth,
// CompletionSearch and HybridSearch return for the same request.
func TestTwinMatchesTheRegistry(t *testing.T) {
	c := testCorpus(6)
	snap := snapshotPath(t.TempDir(), "registry")
	if _, err := c.saveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	tw, err := newTwin(c, snap, 0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	ids := func(hits []core.SearchHit) []hitRef {
		out := make([]hitRef, len(hits))
		for i, h := range hits {
			out[i] = hitRef{h.Kind, h.ID}
		}
		return out
	}
	targets := c.alicePEs()
	for _, class := range []string{clsSemANN, clsCodeANN, clsHybrid, clsReranked} {
		for k := 0; k < 12; k++ {
			// Server-side and client-side embedding take the same path below
			// the cache; alternate them.
			op := searchOp(class, targets[(k*13)%len(targets)], fmt.Sprintf("n%d", k), k%2 == 0)
			fromRegistry, fromLegs := tw.replaySearch(nil, 0, k, &op)
			if len(fromRegistry) == 0 {
				t.Fatalf("%s query %d: the registry returned nothing", class, k)
			}
			if got, want := ids(fromLegs), ids(fromRegistry); !reflect.DeepEqual(got, want) {
				t.Errorf("%s query %d: the twin's legs return %v, the registry %v", class, k, got, want)
			}
		}
	}
}

func TestTracerRecordsParentAndTimes(t *testing.T) {
	tr := newTracer()
	root := tr.span(0, 7, "server", "handler", func() { time.Sleep(2 * time.Millisecond) })
	kid := tr.span(root, 7, "registry", "semantic", func() { time.Sleep(time.Millisecond) })
	if root != 1 || kid != 2 || tr.spans[1].Parent != root || tr.spans[1].Op != 7 {
		t.Fatalf("spans recorded as %+v", tr.spans)
	}
	if d := tr.spans[0].duration(); d < 2*time.Millisecond {
		t.Errorf("a 2 ms call recorded as %v", d)
	}
	if tr.spans[1].StartNS < tr.spans[0].EndNS {
		t.Error("the replayed child started before its parent ended")
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP laminar_cache_hits_total Query-cache lookups answered from cache.
# TYPE laminar_cache_hits_total counter
laminar_cache_hits_total{cache="local"} 40
laminar_cache_hits_total{cache="coordinator"} 2
laminar_index_probe_shards_sum{index="desc"} 120
laminar_index_probe_shards_sum{index="code"} 30
laminar_registry_pes 5000
laminar_http_requests_total{route="POST /registry/{user}/search",code="200"} 77
`
	sc, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		got, want float64
	}{
		{sc.sum("laminar_cache_hits_total"), 42},
		{sc.sum("laminar_cache_hits_total", `cache="local"`), 40},
		{sc.sum("laminar_index_probe_shards_sum"), 150},
		{sc.sum("laminar_registry_pes"), 5000},
		{sc.sum("laminar_http_requests_total", `code="200"`), 77},
		{sc.sum("laminar_absent"), 0},
	}
	for i, c := range checks {
		if c.got != c.want {
			t.Errorf("check %d: got %g, want %g", i, c.got, c.want)
		}
	}
	later, _ := parseMetrics(strings.NewReader(`laminar_cache_hits_total{cache="local"} 100` + "\n"))
	d := scrapeDelta{before: []*scrape{sc}, after: []*scrape{later}}
	if got := d.sum("laminar_cache_hits_total", `cache="local"`); got != 60 {
		t.Errorf("delta = %g, want 60", got)
	}
}

func TestJudge(t *testing.T) {
	reply := []byte(`{"hits":[{"kind":"pe","id":4},{"kind":"workflow","id":9}]}`)
	target := &Op{Check: checkTarget, Target: hitRef{"workflow", 9}}
	if !judge(target, reply, nil) {
		t.Error("the planted target is in the reply but the op was judged wrong")
	}
	target.Target = hitRef{"pe", 9}
	if judge(target, reply, nil) {
		t.Error("a hit of the wrong kind was taken for the target")
	}
	exact := &Op{Check: checkExact, Exact: []hitRef{{"pe", 4}, {"workflow", 9}}}
	if !judge(exact, reply, nil) {
		t.Error("an identical hit list was judged wrong")
	}
	exact.Exact = []hitRef{{"workflow", 9}, {"pe", 4}}
	if judge(exact, reply, nil) {
		t.Error("a reordered hit list was judged equal")
	}
	degraded := []byte(`{"hits":[{"kind":"pe","id":4},{"kind":"workflow","id":9}],"degraded":true}`)
	exact.Exact = []hitRef{{"pe", 4}, {"workflow", 9}}
	if judge(exact, degraded, nil) {
		t.Error("a degraded reply was judged right")
	}
}

func TestExactTopIsAFullScan(t *testing.T) {
	c := testCorpus(5)
	p := c.alicePEs()[3]
	top := c.exactTop(userAlice, p.DescEmb, searchLimit)
	if len(top) != searchLimit || top[0] != (hitRef{"pe", p.ID}) {
		t.Fatalf("a PE's own embedding does not rank it first: %v", top)
	}
	for _, h := range top {
		if h.Kind == "pe" && c.PEs[h.ID-1].Owner != userAlice {
			t.Errorf("alice's scan returned bob's PE %d", h.ID)
		}
	}
}

func TestUniqueTokens(t *testing.T) {
	c := newCorpus(9, 3000, 300)
	seen := map[string]bool{}
	for _, p := range c.PEs {
		for _, tok := range []string{p.Ident, p.Release, p.Name} {
			if seen[tok] {
				t.Fatalf("token %q used twice", tok)
			}
			seen[tok] = true
		}
		if strings.Contains(p.Description, p.Ident) || !strings.Contains(p.Source, p.Ident) {
			t.Fatalf("PE %s: the identifier must be in the code and not in the description", p.Name)
		}
	}
	for _, w := range c.Workflows {
		if seen[w.Name] || seen[w.Release] {
			t.Fatalf("workflow %s shares a token with a PE", w.Name)
		}
	}
}

// TestManifest holds BENCHMARK.json to the code and to the limits the
// benchmark driver enforces before it runs anything.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(manifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(raw)) != string(want) {
		t.Error("BENCHMARK.json is not what `go run ./benchmark manifest` prints; regenerate it")
	}
	m := manifest()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the driver's limits", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		check(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end-to-end metric %+v is outside the driver's limits", d)
		}
		hasSetup = hasSetup || (d.Name == mSetup && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the driver takes 1 to 128", len(m.PerLayer))
	}
	for _, d := range m.PerLayer {
		check(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound != 0 {
			t.Errorf("per-layer metric %+v is outside the driver's limits", d)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
}

func TestPhasesKeepTheReferenceProportions(t *testing.T) {
	warm, open, closed := phases(27)
	if warm != 3*time.Second || open != 15*time.Second || closed != 9*time.Second {
		t.Errorf("27 s splits into %v, %v, %v; want 3 s, 15 s, 9 s", warm, open, closed)
	}
	warm, open, closed = phases(10)
	if total := warm + open + closed; total < 9990*time.Millisecond || total > 10*time.Second {
		t.Errorf("10 s splits into %v", total)
	}
}
