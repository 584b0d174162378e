package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"laminar/internal/client"
	"laminar/internal/cluster"
	"laminar/internal/codec"
	"laminar/internal/core"
	"laminar/internal/dataflow"
	"laminar/internal/engine"
	"laminar/internal/index"
	"laminar/internal/lexical"
	"laminar/internal/pype"
	"laminar/internal/qcache"
	"laminar/internal/registry"
	"laminar/internal/search"
	"laminar/internal/server"
	"laminar/internal/vecmath"
)

// The traced run replays a fixed sample of a workload's generated ops,
// in-process and on one goroutine, through the layers' public functions,
// and records a span around each call. The program itself carries no
// spans yet, so nesting is by replay: after the outermost call (the HTTP
// handler) returns, the calls it is known to make are made again on the
// same inputs against a twin of its state, and recorded as its children.
// A parent's self time is therefore its duration minus its children's
// durations, not an interval subtraction.

// The traced run replays traceSampleOps ops of a workload's stream after
// replaying traceWarmOps untraced, so the sample sees the caches the way
// the timed phases do, not the way a cold server does.
const (
	traceSampleOps = 1000
	traceWarmOps   = 2000
)

// traceWindow fits the warm-up and the sample into a stream of n ops.
func traceWindow(n int) (warm, sample int) {
	warm, sample = traceWarmOps, traceSampleOps
	if warm > n/2 {
		warm = n / 2
	}
	if sample > n-warm {
		sample = n - warm
	}
	return warm, sample
}

// Span is one recorded call.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for the outermost call of an op
	Op      int    `json:"op"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Side marks a measurement kept for a per-layer metric that is not
	// part of the op's call tree (the second cluster transport, say).
	Side bool `json:"side,omitempty"`
}

func (s Span) duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span runs fn and records it; it returns the span's id for its children.
// A nil tracer just runs fn: that is the bare replay tracing is compared
// with.
func (t *tracer) span(parent, op int, layer, name string, fn func()) int {
	if t == nil {
		fn()
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name})
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.spans[id-1].StartNS, t.spans[id-1].EndNS = int64(start), int64(end)
	return id
}

// side records a measurement outside the call tree.
func (t *tracer) side(op int, layer, name string, fn func()) time.Duration {
	id := t.span(0, op, layer, name, fn)
	t.spans[id-1].Side = true
	return t.spans[id-1].duration()
}

// selfTimes returns each span's duration minus its children's, floored
// at zero: a replayed child can outlast the parent it was replayed from.
func selfTimes(spans []Span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if !s.Side {
			self[s.ID] = s.duration()
		}
	}
	for _, s := range spans {
		if !s.Side && s.Parent != 0 {
			self[s.Parent] -= s.duration()
		}
	}
	for id, d := range self {
		if d < 0 {
			self[id] = 0
		}
	}
	return self
}

// overshootLimit is how far the layers' self times of one op may sum past
// the op's outermost span before the op counts as overshot.
const overshootLimit = 1.15

// layerShares answers "where does an op go" two ways. perOp is the mean,
// over ops, of each layer's share of that op's time by self time: it
// follows the typical op, so it says where the p50 goes. byTime is each
// layer's share of all ops' time together: it follows the expensive ops,
// so it says where the CPU goes.
//
// Self times sum to the outermost span exactly unless a replayed child
// outlasted its parent and the floor hid the difference, so the sums can
// only overshoot. sumRatio is the overshoot of all ops together (summed
// self time over summed outermost spans, 1 when every child fit); overOps
// is the share of ops that overshot by more than overshootLimit each.
func layerShares(spans []Span) (perOp, byTime map[string]float64, sumRatio, overOps float64) {
	self := selfTimes(spans)
	type opAcc struct {
		byLayer     map[string]time.Duration
		total, root time.Duration
	}
	ops := map[int]*opAcc{}
	totalByLayer := map[string]time.Duration{}
	var roots, all time.Duration
	for _, s := range spans {
		if s.Side {
			continue
		}
		acc := ops[s.Op]
		if acc == nil {
			acc = &opAcc{byLayer: map[string]time.Duration{}}
			ops[s.Op] = acc
		}
		acc.byLayer[s.Layer] += self[s.ID]
		acc.total += self[s.ID]
		totalByLayer[s.Layer] += self[s.ID]
		all += self[s.ID]
		if s.Parent == 0 {
			acc.root += s.duration()
			roots += s.duration()
		}
	}
	perOp, byTime = map[string]float64{}, map[string]float64{}
	if all == 0 || roots == 0 {
		return perOp, byTime, 0, 0
	}
	counted, over := 0, 0
	for _, acc := range ops {
		if acc.total == 0 {
			continue
		}
		counted++
		if float64(acc.total) > overshootLimit*float64(acc.root) {
			over++
		}
		for layer, d := range acc.byLayer {
			perOp[layer] += float64(d) / float64(acc.total)
		}
	}
	for layer := range perOp {
		perOp[layer] /= float64(counted)
	}
	for layer, d := range totalByLayer {
		byTime[layer] = float64(d) / float64(all)
	}
	return perOp, byTime, float64(all) / float64(roots), float64(over) / float64(counted)
}

// setSpanMetric stores, under metric, the median duration of the spans
// with one of the names, and how many there were.
func setSpanMetric(res *Result, spans []Span, metric string, unit time.Duration, names ...string) {
	setSpanMedian(res, spans, metric, unit, Span.duration, names)
}

// setSelfMetric is setSpanMetric over self times.
func setSelfMetric(res *Result, spans []Span, metric string, unit time.Duration, names ...string) {
	self := selfTimes(spans)
	setSpanMedian(res, spans, metric, unit, func(s Span) time.Duration { return self[s.ID] }, names)
}

func setSpanMedian(res *Result, spans []Span, metric string, unit time.Duration, value func(Span) time.Duration, names []string) {
	var xs []float64
	for _, s := range spans {
		for _, name := range names {
			if s.Name == name {
				xs = append(xs, float64(value(s))/float64(unit))
			}
		}
	}
	if len(xs) > 0 {
		res.Layer[metric] = median(xs)
		res.Samples[metric] = len(xs)
	}
}

// finishTrace derives the layer shares, keeps the spans on the result and
// reports the tracing overhead: how much longer the outermost calls took
// with recording and child replays around them than in a bare replay of
// the same ops.
func finishTrace(res *Result, tr *tracer, untraced time.Duration) {
	res.Spans = tr.spans
	perOp, byTime, sumRatio, overOps := layerShares(tr.spans)
	for _, layer := range layerNames {
		res.Layer["share."+layer] = perOp[layer]
		res.Layer["timeshare."+layer] = byTime[layer]
	}
	res.Layer["trace.span_sum_ratio"] = sumRatio
	res.Layer["trace.overshot_ops_share"] = overOps
	var traced time.Duration
	for _, s := range tr.spans {
		if s.Parent == 0 && !s.Side {
			traced += s.duration()
		}
	}
	if untraced > 0 {
		res.Layer["trace.overhead_share"] = float64(traced-untraced) / float64(untraced)
	}
	res.Info["trace_ops"] = countRoots(tr.spans)
}

func countRoots(spans []Span) int {
	n := 0
	for _, s := range spans {
		if s.Parent == 0 && !s.Side {
			n++
		}
	}
	return n
}

// writeSpans writes a run's spans to benchmark/out/trace-<workload>.json.
func writeSpans(res *Result) error {
	if len(res.Spans) == 0 {
		return nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []Span `json:"spans"`
	}{res.Workload, res.Seed, res.Spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+res.Workload+".json"), raw, 0o644)
}

// outDir is where the benchmark leaves records and traces.
const outDir = "benchmark/out"

// loadStore opens a store the way laminar-server does: index kind first,
// then the snapshot, so the trained structure restores.
func loadStore(snapshot string, recallTarget float64) (*registry.Store, error) {
	st := registry.NewStore()
	st.ConfigureIndex(clusteredFactory(recallTarget))
	if err := st.Load(snapshot); err != nil {
		return nil, err
	}
	if !st.IndexesRestored() {
		return nil, fmt.Errorf("snapshot %s did not restore its trained indexes", snapshot)
	}
	return st, nil
}

// serve runs one op through a handler and reports the status.
func serve(h http.Handler, op *Op) int {
	req := httptest.NewRequest(op.Method, op.Path, bytes.NewReader(op.Body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// twin is the state the child replays run against: a second registry in
// lockstep with the one behind the handler, plus standalone copies of
// the structures the registry keeps inside.
type twin struct {
	store     *registry.Store
	aliceID   int
	cache     *qcache.Cache[[]core.SearchHit]
	desc      *index.Clustered
	code      *index.Clustered
	wf        *index.Clustered
	peLex     *lexical.Index
	wfLex     *lexical.Index
	pes       map[int]core.PERecord
	wfs       map[int]core.WorkflowRecord
	visiblePE map[int]bool
	visibleWF map[int]bool
}

// lexDoc mirrors the registry's lexical document of a PE: name,
// description and decoded code.
func lexDoc(name, description, peCode string) string {
	code := peCode
	if env, err := codec.Decode(peCode); err == nil {
		code = env.Name + "\n" + env.Source + "\n" + strings.Join(env.Imports, "\n")
	}
	return name + "\n" + description + "\n" + code
}

// newTwin loads the replay registry and builds the standalone indexes
// over the same records, all at one recall target.
func newTwin(corpus *Corpus, snapshot string, cacheSize int, recallTarget float64) (*twin, error) {
	st, err := loadStore(snapshot, recallTarget)
	if err != nil {
		return nil, err
	}
	alice, err := st.UserByName(userAlice)
	if err != nil {
		return nil, err
	}
	tw := &twin{
		store: st, aliceID: alice.UserID,
		cache: qcache.New[[]core.SearchHit](qcache.Options{MaxEntries: cacheSize}),
		desc:  index.NewClustered(clusteredConfig(recallTarget)), code: index.NewClustered(clusteredConfig(recallTarget)),
		wf:    index.NewClustered(clusteredConfig(recallTarget)),
		peLex: lexical.New(), wfLex: lexical.New(),
		pes: map[int]core.PERecord{}, wfs: map[int]core.WorkflowRecord{},
		visiblePE: map[int]bool{}, visibleWF: map[int]bool{},
	}
	for _, p := range corpus.PEs {
		tw.desc.Upsert(p.ID, p.DescEmb)
		tw.code.Upsert(p.ID, p.CodeEmb)
		tw.peLex.Upsert(p.ID, lexDoc(p.Name, p.Description, p.Code))
		tw.pes[p.ID] = core.PERecord{PEID: p.ID, PEName: p.Name, Description: p.Description, PECode: p.Code}
		tw.visiblePE[p.ID] = p.Owner == userAlice
	}
	for _, w := range corpus.Workflows {
		tw.wf.Upsert(w.ID, w.DescEmb)
		tw.wfLex.Upsert(w.ID, w.Name+"\n"+w.Name+"\n"+w.Description)
		tw.wfs[w.ID] = core.WorkflowRecord{WorkflowID: w.ID, WorkflowName: w.Name, EntryPoint: w.Name, Description: w.Description}
		tw.visibleWF[w.ID] = w.Owner == userAlice
	}
	parallel(3, func(i int) { []*index.Clustered{tw.desc, tw.code, tw.wf}[i].TrainNow() })
	return tw, nil
}

func (tw *twin) peHits(cands []index.Candidate) []core.SearchHit {
	return search.HitsFromCandidates(cands, func(id int) (core.PERecord, bool) {
		pe, ok := tw.pes[id]
		return pe, ok
	})
}

func (tw *twin) wfHits(cands []index.Candidate) []core.SearchHit {
	return search.WorkflowHitsFromCandidates(cands, func(id int) (core.WorkflowRecord, bool) {
		wf, ok := tw.wfs[id]
		return wf, ok
	})
}

func (tw *twin) seePE(id int) bool { return tw.visiblePE[id] }
func (tw *twin) seeWF(id int) bool { return tw.visibleWF[id] }

// cacheKey is the key the server's local query cache files a request
// under: who asked, the resolved mode, the query's identity and limit.
func cacheKey(userID int, req *core.SearchRequest) uint64 {
	return qcache.NewKey().Int(userID).String(req.Mode).String(string(req.QueryType)).
		String(string(req.SearchType)).Int(req.Limit).String(req.Search).Floats(req.QueryEmbedding).Sum()
}

// annLeg replays the vector legs of a semantic query for PEs and
// workflows and their merge, as children of parent.
func (tw *twin) annLeg(tr *tracer, parent, op int, emb []float32, pool int, code bool) []core.SearchHit {
	var peC, wfC []index.Candidate
	if code {
		tr.span(parent, op, "index", "index.search", func() { peC = tw.code.Search(emb, pool, tw.seePE) })
		return tw.peHits(peC)
	}
	tr.span(parent, op, "index", "index.search", func() { peC = tw.desc.Search(emb, pool, tw.seePE) })
	tr.span(parent, op, "index", "index.search", func() { wfC = tw.wf.Search(emb, pool, tw.seeWF) })
	peH, wfH := tw.peHits(peC), tw.wfHits(wfC)
	var merged []core.SearchHit
	tr.span(parent, op, "search", "search.merge", func() { merged = search.MergeRanked(peH, wfH, pool) })
	return merged
}

// replaySearch records the children of one search handler call. It
// returns what the registry answered and what the standalone legs,
// fused and reranked the way the registry is known to do it, came to: a
// unit test holds the two equal, so that a change to the registry's call
// tree cannot leave the trace reporting the old one. A cache hit and a
// text query have no legs and return nothing.
func (tw *twin) replaySearch(tr *tracer, root, i int, op *Op) (registryHits, legHits []core.SearchHit) {
	req := *op.Req
	if req.QueryType == core.QueryText {
		var pes []core.PERecord
		var wfs []core.WorkflowRecord
		tr.span(root, i, "registry", "registry.list", func() {
			pes = tw.store.PEsForUser(tw.aliceID)
			wfs = tw.store.WorkflowsForUser(tw.aliceID)
		})
		tr.span(root, i, "search", "search.text", func() { search.Text(req.Search, req.SearchType, pes, wfs, req.Limit) })
		return nil, nil
	}
	key := cacheKey(tw.aliceID, &req)
	tag := qcache.Tag{Epoch: tw.store.Epoch(), Gen: tw.store.IndexGeneration()}
	hit := false
	tr.span(root, i, "qcache", "qcache.get", func() { _, hit = tw.cache.Get(key, tag) })
	if hit {
		return nil, nil
	}
	emb := req.QueryEmbedding
	if emb == nil {
		tr.span(root, i, "embed", "embed.query", func() {
			if req.QueryType == core.QueryCode {
				emb = search.EmbedCode(req.Search)
			} else {
				emb = search.EmbedDescription(req.Search)
			}
		})
	}
	code := req.QueryType == core.QueryCode
	switch req.Mode {
	case core.ModeANN:
		reg := tr.span(root, i, "registry", "registry.semantic", func() {
			if code {
				registryHits = tw.store.CompletionSearch(tw.aliceID, emb, req.Limit)
			} else {
				registryHits = tw.store.SemanticSearchBoth(tw.aliceID, emb, req.Limit)
			}
		})
		legHits = tw.annLeg(tr, reg, i, emb, req.Limit, code)
	default:
		rerank := req.Mode == core.ModeReranked
		name := "registry.hybrid"
		if rerank {
			name = "registry.reranked"
		}
		reg := tr.span(root, i, "registry", name, func() {
			registryHits = tw.store.HybridSearch(tw.aliceID, registry.HybridQuery{
				Text: req.Search, Embedding: emb, Code: code, Type: req.SearchType, Limit: req.Limit, Rerank: rerank,
			})
		})
		// The registry widens both legs to four times the limit.
		pool := req.Limit * 4
		ann := tw.annLeg(tr, reg, i, emb, pool, code)
		var peC, wfC []index.Candidate
		tr.span(reg, i, "lexical", "lexical.search", func() { peC = tw.peLex.Search(req.Search, pool, tw.seePE) })
		tr.span(reg, i, "lexical", "lexical.search", func() { wfC = tw.wfLex.Search(req.Search, pool, tw.seeWF) })
		peH, wfH := tw.peHits(peC), tw.wfHits(wfC)
		var lex []core.SearchHit
		tr.span(reg, i, "search", "search.merge", func() { lex = search.MergeRanked(peH, wfH, pool) })
		if rerank {
			tr.span(reg, i, "search", "search.fuse", func() { legHits = search.FuseRRF(pool, ann, lex) })
			tr.span(reg, i, "search", "search.rerank", func() { legHits = search.Rerank(req.Search, legHits, req.Limit) })
		} else {
			tr.span(reg, i, "search", "search.fuse", func() { legHits = search.FuseRRF(req.Limit, ann, lex) })
		}
	}
	tr.span(root, i, "qcache", "qcache.put", func() { tw.cache.Put(key, tag, registryHits) })
	return registryHits, legHits
}

// replayWrite records the children of one add or remove handler call and
// keeps the twin in step with the registry behind the handler.
func (tw *twin) replayWrite(tr *tracer, root, i int, op *Op) error {
	if op.Adds {
		var rec *core.PERecord
		var err error
		reg := tr.span(root, i, "registry", "registry.add_pe", func() { rec, err = tw.store.AddPE(tw.aliceID, *op.Add) })
		if err != nil {
			return fmt.Errorf("replaying add of %s: %w", op.Name, err)
		}
		tr.span(reg, i, "index", "index.upsert", func() { tw.desc.Upsert(rec.PEID, rec.DescEmbedding) })
		tr.span(reg, i, "index", "index.upsert", func() { tw.code.Upsert(rec.PEID, rec.CodeEmbedding) })
		tr.span(reg, i, "lexical", "lexical.upsert", func() {
			tw.peLex.Upsert(rec.PEID, lexDoc(rec.PEName, rec.Description, rec.PECode))
		})
		tw.pes[rec.PEID] = core.PERecord{PEID: rec.PEID, PEName: rec.PEName, Description: rec.Description, PECode: rec.PECode}
		tw.visiblePE[rec.PEID] = true
		return nil
	}
	id := 0
	for pid, pe := range tw.pes {
		if pe.PEName == op.Name && tw.visiblePE[pid] {
			id = pid
			break
		}
	}
	var err error
	reg := tr.span(root, i, "registry", "registry.remove_pe", func() { err = tw.store.RemovePEByName(tw.aliceID, op.Name) })
	if err != nil {
		return fmt.Errorf("replaying remove of %s: %w", op.Name, err)
	}
	tr.span(reg, i, "index", "index.delete", func() { tw.desc.Delete(id); tw.code.Delete(id) })
	tr.span(reg, i, "lexical", "lexical.delete", func() { tw.peLex.Delete(id) })
	delete(tw.pes, id)
	delete(tw.visiblePE, id)
	return nil
}

// copySnapshot copies a snapshot's files (JSON, sidecar, journal) so a
// replay can start from the state the measured server started from.
func copySnapshot(snapshot, dstDir string) (string, error) {
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return "", err
	}
	matches, err := filepath.Glob(snapshot + "*")
	if err != nil {
		return "", err
	}
	for _, src := range matches {
		raw, err := os.ReadFile(src)
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dstDir, filepath.Base(src)), raw, 0o644); err != nil {
			return "", err
		}
	}
	return filepath.Join(dstDir, filepath.Base(snapshot)), nil
}

// newReplayServer builds the in-process server the handler spans run on.
func newReplayServer(snapshot string, spec workloadSpec) (*server.Server, error) {
	st, err := loadStore(snapshot, 0.9)
	if err != nil {
		return nil, err
	}
	return server.New(server.Config{Registry: st, CacheSize: spec.CacheSize}), nil
}

// traceSingleNode replays query_repeat, query_unique or ingest_churn.
// pristine is a copy of the snapshot taken before the measured server
// could save over it.
func traceSingleNode(cfg runConfig, spec workloadSpec, corpus *Corpus, pristine string, ops []Op, res *Result) error {
	warm, n := traceWindow(len(ops))
	ops = ops[:warm+n]
	// Bare replay first: the same ops through the handler, nothing else.
	bare, err := newReplayServer(pristine, spec)
	if err != nil {
		return err
	}
	var untraced time.Duration
	for i := range ops {
		t0 := time.Now()
		if code := serve(bare.Handler(), &ops[i]); code < 200 || code > 299 {
			return fmt.Errorf("bare replay: op %d (%s) got status %d", i, ops[i].Class, code)
		}
		if i >= warm {
			untraced += time.Since(t0)
		}
	}

	srv, err := newReplayServer(pristine, spec)
	if err != nil {
		return err
	}
	tw, err := newTwin(corpus, pristine, spec.CacheSize, 0.9)
	if err != nil {
		return err
	}
	// The warm-up ops take the same path, children included, so the twin
	// stays in step with the server; their spans are thrown away.
	tr := newTracer()
	for i := range ops {
		if i == warm {
			tr = newTracer()
		}
		op := &ops[i]
		status := 0
		root := tr.span(0, i, "server", "server.handler", func() { status = serve(srv.Handler(), op) })
		if status < 200 || status > 299 {
			return fmt.Errorf("traced replay: op %d (%s) got status %d", i, op.Class, status)
		}
		if op.Req != nil {
			tw.replaySearch(tr, root, i, op)
		} else if err := tw.replayWrite(tr, root, i, op); err != nil {
			return err
		}
	}
	traceStorage(tr, tw.store, pristine, len(ops), cfg.Workload == wlIngestChurn, res)
	spans := tr.spans
	setSpanMetric(res, spans, "server.handler_us", time.Microsecond, "server.handler")
	setSelfMetric(res, spans, "server.self_us", time.Microsecond, "server.handler")
	setSpanMetric(res, spans, "qcache.get_us", time.Microsecond, "qcache.get")
	setSpanMetric(res, spans, "qcache.put_us", time.Microsecond, "qcache.put")
	setSpanMetric(res, spans, "embed.query_us", time.Microsecond, "embed.query")
	setSpanMetric(res, spans, "index.search_us", time.Microsecond, "index.search")
	setSpanMetric(res, spans, "index.upsert_us", time.Microsecond, "index.upsert")
	setSpanMetric(res, spans, "lexical.search_us", time.Microsecond, "lexical.search")
	setSpanMetric(res, spans, "lexical.upsert_us", time.Microsecond, "lexical.upsert")
	setSpanMetric(res, spans, "search.fuse_us", time.Microsecond, "search.fuse")
	setSpanMetric(res, spans, "search.rerank_us", time.Microsecond, "search.rerank")
	setSpanMetric(res, spans, "search.text_ms", time.Millisecond, "search.text")
	setSpanMetric(res, spans, "search.merge_us", time.Microsecond, "search.merge")
	setSpanMetric(res, spans, "registry.semantic_us", time.Microsecond, "registry.semantic")
	setSpanMetric(res, spans, "registry.hybrid_us", time.Microsecond, "registry.hybrid")
	setSpanMetric(res, spans, "registry.reranked_us", time.Microsecond, "registry.reranked")
	setSelfMetric(res, spans, "registry.self_us", time.Microsecond, "registry.hybrid", "registry.reranked")
	setSpanMetric(res, spans, "registry.list_ms", time.Millisecond, "registry.list")
	setSpanMetric(res, spans, "registry.add_pe_us", time.Microsecond, "registry.add_pe")
	setSpanMetric(res, spans, "registry.remove_pe_us", time.Microsecond, "registry.remove_pe")
	kernelMetrics(corpus, res)
	finishTrace(res, tr, untraced)
	return nil
}

// traceStorage times the persistence calls on the replayed registry as
// side spans: a delta save of what the replay changed (when it changed
// anything), a full save, and a load of the result.
func traceStorage(tr *tracer, st *registry.Store, snapshot string, op int, changed bool, res *Result) {
	if changed {
		var err error
		d := tr.side(op, "storage", "storage.delta_save", func() { err = st.SaveDelta(snapshot) })
		if segs, bytes := st.DeltaChainInfo(); err == nil && segs == 1 {
			res.Layer["storage.delta_save_ms"] = toMS(d)
			writes := 0
			for _, s := range tr.spans {
				if s.Name == "registry.add_pe" || s.Name == "registry.remove_pe" {
					writes++
				}
			}
			res.Layer["storage.delta_bytes_per_record"] = ratio(float64(bytes), float64(writes))
		}
	}
	var err error
	d := tr.side(op, "storage", "storage.full_save", func() { err = st.Save(snapshot) })
	if err == nil {
		res.Layer["storage.full_save_ms"] = toMS(d)
	}
}

// kernelMetrics times the two scoring kernels on corpus vectors.
func kernelMetrics(corpus *Corpus, res *Result) {
	const rounds = 200000
	a, b := corpus.PEs[0].DescEmb, corpus.PEs[1].DescEmb
	qa, _ := vecmath.Quantize(a)
	qb, _ := vecmath.Quantize(b)
	var sinkF float64
	var sinkI int32
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		sinkF += vecmath.Dot(a, b)
	}
	res.Layer["vecmath.dot_ns"] = float64(time.Since(t0).Nanoseconds()) / rounds
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		sinkI += vecmath.DotQ8(qa, qb)
	}
	res.Layer["vecmath.dotq8_ns"] = float64(time.Since(t0).Nanoseconds()) / rounds
	res.Samples["vecmath.dot_ns"], res.Samples["vecmath.dotq8_ns"] = rounds, rounds
	kernelSink = sinkF + float64(sinkI)
}

// kernelSink keeps the compiler from discarding the timed kernel calls.
var kernelSink float64

// clientSearchMetric times searches through the client library against
// the live server: client-side embedding plus the round trip.
func clientSearchMetric(url string, corpus *Corpus, res *Result) error {
	cli := client.New(url)
	if err := cli.Login(userAlice, password); err != nil {
		return fmt.Errorf("client login: %w", err)
	}
	targets := corpus.alicePEs()
	var ms []float64
	for i := 0; i < 50; i++ {
		p := targets[(i*37)%len(targets)]
		t0 := time.Now()
		hits, err := cli.SearchRegistryLimit(semanticQuery(p), core.SearchBoth, core.QuerySemantic, searchLimit)
		if err != nil {
			return fmt.Errorf("client search: %w", err)
		}
		ms = append(ms, toMS(time.Since(t0)))
		if len(hits) == 0 {
			return fmt.Errorf("client search for %q returned nothing", p.Name)
		}
	}
	res.Layer["client.search_ms"] = median(ms)
	res.Samples["client.search_ms"] = len(ms)
	return nil
}

// traceColdStart replays the boot path in-process: load the snapshot and
// its journal, then answer the first query.
func traceColdStart(cfg runConfig, corpus *Corpus, snapshot string, journaled []*peSpec, deltaSaves []time.Duration, res *Result) error {
	const boots = 10
	spec, _ := specByName(wlColdStart)
	targets := append(append([]*peSpec(nil), corpus.alicePEs()[:boots]...), journaled[:boots]...)
	bootOnce := func(tr *tracer, i int) error {
		op := searchOp(clsSemANN, targets[(i*7)%len(targets)], "", true)
		var st *registry.Store
		var err error
		tr.span(0, i, "storage", "storage.load_chain", func() { st, err = loadStore(snapshot, 0.9) })
		if err != nil {
			return err
		}
		srv := server.New(server.Config{Registry: st, CacheSize: spec.CacheSize})
		status := 0
		tr.span(0, i, "server", "server.handler", func() { status = serve(srv.Handler(), &op) })
		if status != http.StatusOK {
			return fmt.Errorf("first query after in-process boot got status %d", status)
		}
		return nil
	}
	t0 := time.Now()
	for i := 0; i < boots; i++ {
		if err := bootOnce(nil, i); err != nil {
			return err
		}
	}
	untraced := time.Since(t0)
	tr := newTracer()
	for i := 0; i < boots; i++ {
		if err := bootOnce(tr, i); err != nil {
			return err
		}
	}
	// The restore of one trained index, replayed under each load: build
	// the description index the snapshot holds, snapshot it, and time
	// restoring it into a fresh index.
	trained := index.NewClustered(clusteredConfig(0.9))
	vecs := map[int][]float32{}
	for _, p := range append(append([]*peSpec(nil), corpus.PEs...), journaled...) {
		trained.Upsert(p.ID, p.DescEmb)
		vecs[p.ID] = p.DescEmb
	}
	trained.TrainNow()
	snap := trained.Snapshot()
	var restoreErr error
	for _, s := range tr.spans {
		if s.Name == "storage.load_chain" {
			fresh := index.NewClustered(clusteredConfig(0.9))
			tr.span(s.ID, s.Op, "index", "index.restore", func() { restoreErr = fresh.Restore(snap, vecs) })
		}
	}
	if restoreErr != nil {
		return fmt.Errorf("restoring the standalone index: %w", restoreErr)
	}
	spans := tr.spans
	setSpanMetric(res, spans, "storage.load_chain_ms", time.Millisecond, "storage.load_chain")
	setSpanMetric(res, spans, "index.restore_ms", time.Millisecond, "index.restore")
	setSpanMetric(res, spans, "server.handler_us", time.Microsecond, "server.handler")
	setSelfMetric(res, spans, "server.self_us", time.Microsecond, "server.handler")
	res.Layer["storage.delta_save_ms"] = toMS(medianDur(deltaSaves))
	res.Samples["storage.delta_save_ms"] = len(deltaSaves)
	kernelMetrics(corpus, res)
	finishTrace(res, tr, untraced)
	return nil
}

// traceClusterScatter replays scatter-gather in-process: three shard
// registries behind real loopback listeners, one coordinator over HTTP
// peers and one over RESP peers.
func traceClusterScatter(cfg runConfig, corpus *Corpus, shardSnaps map[string]string, ops []Op, res *Result) error {
	const sampleOps = 300 // each op costs several loopback round trips
	if len(ops) > sampleOps {
		ops = ops[:sampleOps]
	}
	type shard struct {
		name  string
		srv   *server.Server
		web   *httptest.Server
		resp  *cluster.RESPServer
		httpP *cluster.HTTPPeer
		respP *cluster.RESPPeer
	}
	var shards []*shard
	defer func() {
		for _, sh := range shards {
			sh.web.Close()
			_ = sh.resp.Close()
		}
	}()
	var httpShards, respShards []cluster.Shard
	for _, name := range shardNames {
		st, err := loadStore(shardSnaps[name], 1.0)
		if err != nil {
			return err
		}
		srv := server.New(server.Config{Registry: st})
		web := httptest.NewServer(srv.Handler())
		rs, err := cluster.ServeRESP("127.0.0.1:0", srv.ClusterSearchLocal)
		if err != nil {
			web.Close()
			return err
		}
		sh := &shard{name: name, srv: srv, web: web, resp: rs,
			httpP: cluster.NewHTTPPeer(name, web.URL), respP: cluster.NewRESPPeer(name, rs.Addr())}
		shards = append(shards, sh)
		httpShards = append(httpShards, cluster.Shard{Name: name, Primary: sh.httpP})
		respShards = append(respShards, cluster.Shard{Name: name, Primary: sh.respP})
	}
	coordHTTP, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Shards: httpShards})
	if err != nil {
		return err
	}
	coordRESP, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Shards: respShards})
	if err != nil {
		return err
	}
	newCoordServer := func() (*server.Server, error) {
		st := registry.NewStore()
		for _, u := range []string{userAlice, userBob} {
			if _, err := st.RegisterUser(u, password); err != nil {
				return nil, err
			}
		}
		return server.New(server.Config{Registry: st, Cluster: coordHTTP}), nil
	}
	bare, err := newCoordServer()
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := range ops {
		if code := serve(bare.Handler(), &ops[i]); code != http.StatusOK {
			return fmt.Errorf("bare replay: op %d got status %d", i, code)
		}
	}
	untraced := time.Since(t0)

	coord, err := newCoordServer()
	if err != nil {
		return err
	}
	ctx := context.Background()
	tr := newTracer()
	var httpHops, respHops, respCoord []float64
	for i := range ops {
		op := &ops[i]
		status := 0
		root := tr.span(0, i, "server", "server.handler", func() { status = serve(coord.Handler(), op) })
		if status != http.StatusOK {
			return fmt.Errorf("traced replay: op %d got status %d", i, status)
		}
		req := *op.Req
		var result cluster.Result
		co := tr.span(root, i, "cluster", "cluster.coord_search", func() { result = coordHTTP.Search(ctx, userAlice, req) })
		if result.Degraded {
			return fmt.Errorf("traced replay: op %d came back degraded (%v)", i, result.Failed)
		}
		// The coordinator waits for the slowest shard, so that shard's
		// handler is the step that blocks the result.
		shardOp := Op{Method: "POST", Path: op.Path, Body: mustJSON(req)}
		var slowest *shard
		var slowestDur time.Duration
		lists := make([][]core.SearchHit, len(shards))
		for k, sh := range shards {
			var hits []core.SearchHit
			var perr error
			viaHTTP := tr.side(i, "cluster", "cluster.http_peer", func() { hits, perr = sh.httpP.Search(ctx, userAlice, req) })
			if perr != nil {
				return perr
			}
			lists[k] = hits
			viaRESP := tr.side(i, "cluster", "cluster.resp_peer", func() { _, perr = sh.respP.Search(ctx, userAlice, req) })
			if perr != nil {
				return perr
			}
			handler := tr.side(i, "server", "shard.handler_probe", func() { serve(sh.srv.Handler(), &shardOp) })
			local := tr.side(i, "server", "shard.local_probe", func() { _, perr = sh.srv.ClusterSearchLocal(userAlice, req) })
			if perr != nil {
				return perr
			}
			httpHops = append(httpHops, float64(viaHTTP-handler)/float64(time.Microsecond))
			respHops = append(respHops, float64(viaRESP-local)/float64(time.Microsecond))
			if handler >= slowestDur {
				slowest, slowestDur = sh, handler
			}
		}
		sh := tr.span(co, i, "server", "shard.handler", func() { serve(slowest.srv.Handler(), &shardOp) })
		alice, err := slowest.srv.Registry().UserByName(userAlice)
		if err != nil {
			return err
		}
		tr.span(sh, i, "registry", "registry.shard_search", func() {
			if req.Mode == core.ModeANN {
				slowest.srv.Registry().SemanticSearchBoth(alice.UserID, req.QueryEmbedding, req.Limit)
			} else {
				slowest.srv.Registry().HybridSearch(alice.UserID, registry.HybridQuery{
					Text: req.Search, Embedding: req.QueryEmbedding, Type: req.SearchType, Limit: req.Limit,
				})
			}
		})
		tr.side(i, "cluster", "cluster.merge", func() {
			merged := lists[0]
			for _, l := range lists[1:] {
				merged = search.MergeRanked(merged, l, req.Limit)
			}
		})
		respCoord = append(respCoord, toMS(tr.side(i, "cluster", "cluster.resp_coord_search", func() { coordRESP.Search(ctx, userAlice, req) })))
	}
	spans := tr.spans
	setSpanMetric(res, spans, "server.handler_us", time.Microsecond, "server.handler")
	setSelfMetric(res, spans, "server.self_us", time.Microsecond, "server.handler")
	setSpanMetric(res, spans, "cluster.coord_search_ms", time.Millisecond, "cluster.coord_search")
	setSpanMetric(res, spans, "cluster.merge_us", time.Microsecond, "cluster.merge")
	setSpanMetric(res, spans, "registry.semantic_us", time.Microsecond, "registry.shard_search")
	res.Layer["cluster.http_hop_us"], res.Samples["cluster.http_hop_us"] = median(httpHops), len(httpHops)
	res.Layer["cluster.resp_hop_us"], res.Samples["cluster.resp_hop_us"] = median(respHops), len(respHops)
	res.Info["cluster_resp_coord_search_ms"] = median(respCoord)
	kernelMetrics(corpus, res)
	finishTrace(res, tr, untraced)
	return nil
}

// traceFlowRun replays workflow runs through the engine and, as its
// children, the three calls it makes: decode, build, enact.
func traceFlowRun(cfg runConfig, res *Result) error {
	const reps = 2
	type job struct {
		code    string
		mapping string
	}
	var jobs []job
	for _, wf := range flowWorkflows {
		imports, err := engine.DetectImports(wf.Source)
		if err != nil {
			return err
		}
		code, err := codec.Encode(codec.Envelope{Kind: codec.KindWorkflow, Name: wf.Name, Source: wf.Source, Imports: imports})
		if err != nil {
			return err
		}
		for _, m := range flowMappings {
			for r := 0; r < reps; r++ {
				jobs = append(jobs, job{code, m})
			}
		}
	}
	request := func(j job) core.ExecutionRequest {
		return core.ExecutionRequest{
			WorkflowCode: j.code, Input: flowRecords, Process: j.mapping,
			Args: map[string]any{"num": nproc()}, Seed: flowSeed,
		}
	}
	bare := engine.New(engine.Config{})
	t0 := time.Now()
	for _, j := range jobs {
		if _, err := bare.Execute(request(j)); err != nil {
			return fmt.Errorf("bare replay (%s): %w", j.mapping, err)
		}
	}
	untraced := time.Since(t0)

	eng := engine.New(engine.Config{})
	tr := newTracer()
	var highWater, waits int64
	perMapping := map[string][]float64{}
	for i, j := range jobs {
		var err error
		root := tr.span(0, i, "engine", "engine.execute", func() { _, err = eng.Execute(request(j)) })
		if err != nil {
			return fmt.Errorf("traced replay (%s): %w", j.mapping, err)
		}
		var env codec.Envelope
		tr.span(root, i, "codec", "codec.decode", func() { env, err = codec.Decode(j.code) })
		if err != nil {
			return err
		}
		var build *pype.BuildResult
		tr.span(root, i, "pype", "pype.build", func() { build, err = pype.BuildWorkflow(env.Source, pype.Options{Seed: flowSeed}) })
		if err != nil {
			return err
		}
		mapping, err := dataflow.ParseMapping(j.mapping)
		if err != nil {
			return err
		}
		var result *dataflow.Result
		id := tr.span(root, i, "dataflow", "dataflow.run", func() {
			result, err = dataflow.Run(build.Graph, dataflow.Options{Mapping: mapping, Iterations: flowRecords, Processes: nproc()})
		})
		if err != nil {
			return err
		}
		key := strings.ToLower(j.mapping)
		perMapping[key] = append(perMapping[key], toMS(tr.spans[id-1].duration()))
		if hw := result.QueueHighWater(); hw > highWater {
			highWater = hw
		}
		for _, pe := range build.Graph.PEs() {
			waits += result.BackpressureWaits(pe.Name())
		}
	}
	spans := tr.spans
	setSpanMetric(res, spans, "engine.execute_ms", time.Millisecond, "engine.execute")
	setSelfMetric(res, spans, "engine.self_ms", time.Millisecond, "engine.execute")
	setSpanMetric(res, spans, "pype.build_ms", time.Millisecond, "pype.build")
	setSpanMetric(res, spans, "codec.decode_us", time.Microsecond, "codec.decode")
	for key, ms := range perMapping {
		m := median(ms)
		res.Layer["dataflow.run_ms."+key] = m
		res.Layer["dataflow.records_per_s."+key] = ratio(flowRecords*1000, m)
		res.Samples["dataflow.run_ms."+key] = len(ms)
	}
	res.Layer["dataflow.queue_high_water"] = float64(highWater)
	res.Info["trace_backpressure_waits"] = waits
	finishTrace(res, tr, untraced)
	return nil
}
