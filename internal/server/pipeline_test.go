package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"laminar/internal/cluster"
	"laminar/internal/core"
	"laminar/internal/embed"
	"laminar/internal/engine"
	"laminar/internal/index"
	"laminar/internal/registry"
	"laminar/internal/search"
)

// metricSum scrapes srv's telemetry and sums every sample whose line starts
// with prefix (a family name, optionally with a leading label block).
func metricSum(t *testing.T, srv *Server, prefix string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Telemetry().Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	sum := 0.0
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// pipelineCorpus is the corpus of the batch ≡ single wall: PEs whose
// identifiers only the lexical leg can tell apart, plus workflows, all
// with real embeddings.
func pipelineCorpus() (pes []core.AddPERequest, wfs []core.AddWorkflowRequest) {
	topics := []string{"photon events", "seismic traces", "genome reads"}
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("stage_%03d", i)
		desc := fmt.Sprintf("filters %s in the stream, variant %d", topics[i%3], i)
		code := fmt.Sprintf("class %s(IterativePE):\n    def _process(self, x):\n        return x + %d", name, i)
		pes = append(pes, core.AddPERequest{
			PEID: i + 1, PEName: name, Description: desc, PECode: code,
			DescEmbedding: search.EmbedDescription(desc), CodeEmbedding: search.EmbedCode(code),
		})
	}
	for i := 0; i < 6; i++ {
		desc := fmt.Sprintf("workflow %d that filters %s end to end", i, topics[i%3])
		wfs = append(wfs, core.AddWorkflowRequest{
			WorkflowID: i + 1, WorkflowName: fmt.Sprintf("flow_%d", i), EntryPoint: "main",
			Description: desc, WorkflowCode: "opaque", DescEmbedding: search.EmbedDescription(desc),
		})
	}
	return pes, wfs
}

// bootNode starts one server with the test user registered and returns it
// with its base URL.
func bootNode(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Engine = engine.New(engine.Config{InstallDelayScale: 0})
	srv := New(cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if code, raw := doReq(t, http.MethodPost, addr+"/auth/register",
		core.RegisterUserRequest{UserName: "zz46", Password: "password"}, nil); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, raw)
	}
	return srv, addr
}

// seedNodes spreads the corpus round-robin over the nodes at addrs.
func seedNodes(t *testing.T, addrs ...string) {
	t.Helper()
	pes, wfs := pipelineCorpus()
	for i, pe := range pes {
		if code, raw := doReq(t, http.MethodPost, addrs[i%len(addrs)]+"/registry/zz46/pe/add", pe, nil); code != http.StatusCreated {
			t.Fatalf("add %s: %d %s", pe.PEName, code, raw)
		}
	}
	for i, wf := range wfs {
		if code, raw := doReq(t, http.MethodPost, addrs[i%len(addrs)]+"/registry/zz46/workflow/add", wf, nil); code != http.StatusCreated {
			t.Fatalf("add %s: %d %s", wf.WorkflowName, code, raw)
		}
	}
}

// batchShapes is every shape the wall covers: the three modes × semantic
// and code, over the kinds each can rank, with server-embedded and
// client-embedded queries.
func batchShapes() []core.SearchBatchRequest {
	semantic := []string{"filters photon events", "stage_007", "seismic traces workflow", "genome"}
	code := []string{"class stage_011(IterativePE):", "return x + 5", "def _process(self, x):"}
	semanticEmbs := make([][]float32, len(semantic))
	for i, q := range semantic {
		semanticEmbs[i] = search.EmbedDescription(q)
	}
	var shapes []core.SearchBatchRequest
	for _, mode := range []string{core.ModeANN, core.ModeHybrid, core.ModeReranked} {
		shapes = append(shapes,
			core.SearchBatchRequest{QueryType: core.QuerySemantic, Mode: mode, Queries: semantic, Limit: 5},
			core.SearchBatchRequest{QueryType: core.QuerySemantic, SearchType: core.SearchBoth, Mode: mode, Queries: semantic, QueryEmbeddings: semanticEmbs, Limit: 4},
			core.SearchBatchRequest{QueryType: core.QuerySemantic, SearchType: core.SearchWorkflows, Mode: mode, Queries: semantic, Limit: 3},
			core.SearchBatchRequest{QueryType: core.QueryCode, Mode: mode, Queries: code, Limit: 5},
		)
	}
	return shapes
}

// assertBatchMatchesSingle posts every shape as a batch and as one single
// search per query and holds the hit lists byte-equal. It returns how many
// queries it sent through each route.
func assertBatchMatchesSingle(t *testing.T, addr string) (queries int) {
	t.Helper()
	for _, shape := range batchShapes() {
		var batch core.SearchBatchResponse
		code, raw := doReq(t, http.MethodPost, addr+"/registry/zz46/search/batch", shape, &batch)
		if code != http.StatusOK || len(batch.Results) != len(shape.Queries) || batch.Degraded {
			t.Fatalf("batch %s/%s/%s: %d %s", shape.Mode, shape.QueryType, shape.SearchType, code, raw)
		}
		searchType := shape.SearchType
		if searchType == "" {
			searchType = core.SearchPEs // the batch route's default
		}
		for i, q := range shape.Queries {
			req := core.SearchRequest{Search: q, SearchType: searchType, QueryType: shape.QueryType, Mode: shape.Mode, Limit: shape.Limit}
			if shape.QueryEmbeddings != nil {
				req.QueryEmbedding = shape.QueryEmbeddings[i]
			}
			var single core.SearchResponse
			if code, raw := doReq(t, http.MethodPost, addr+"/registry/zz46/search", req, &single); code != http.StatusOK {
				t.Fatalf("single %+v: %d %s", req, code, raw)
			}
			got, _ := json.Marshal(batch.Results[i])
			want, _ := json.Marshal(single.Hits)
			if string(got) != string(want) {
				t.Fatalf("%s/%s/%s query %q: batch diverged from single search:\n got %s\nwant %s",
					shape.Mode, shape.QueryType, searchType, q, got, want)
			}
			if len(single.Hits) == 0 {
				t.Fatalf("%s/%s/%s query %q: no hits — the equivalence is vacuous", shape.Mode, shape.QueryType, searchType, q)
			}
			queries++
		}
	}
	return queries
}

// TestBatchMatchesSingleOnOneNode: with the cache on, a batch is
// byte-equal to its single searches in every mode, and both routes share
// the cache — the single searches that follow a batch are all hits, and a
// repeated batch is served from cache without touching the registry.
func TestBatchMatchesSingleOnOneNode(t *testing.T) {
	srv, addr := bootNode(t, Config{CacheSize: 256})
	seedNodes(t, addr)
	const hitsFamily = `laminar_cache_hits_total{cache="local"}`

	n := assertBatchMatchesSingle(t, addr)
	if hits := metricSum(t, srv, hitsFamily); hits != float64(n) {
		t.Fatalf("%v cache hits after %d single searches that each followed their batch; the routes do not share a cache", hits, n)
	}
	before := metricSum(t, srv, hitsFamily)
	lexical := metricSum(t, srv, "laminar_lexical_searches_total")
	shape := batchShapes()[4] // hybrid, semantic
	var first, second core.SearchBatchResponse
	doReq(t, http.MethodPost, addr+"/registry/zz46/search/batch", shape, &first)
	doReq(t, http.MethodPost, addr+"/registry/zz46/search/batch", shape, &second)
	if got := metricSum(t, srv, hitsFamily) - before; got != float64(2*len(shape.Queries)) {
		t.Fatalf("two repeats of a cached %d-query batch scored %v cache hits", len(shape.Queries), got)
	}
	if got := metricSum(t, srv, "laminar_lexical_searches_total"); got != lexical {
		t.Fatalf("a cached batch reached the registry: lexical searches %v → %v", lexical, got)
	}
	if !reflect.DeepEqual(first, second) || len(first.Results) != len(shape.Queries) {
		t.Fatalf("cached batch diverged:\n got %+v\nwant %+v", second, first)
	}
	if metricSum(t, srv, `laminar_cache_hits_total{cache="coordinator"}`) != 0 {
		t.Fatal("a node without a cluster fed the coordinator's cache series")
	}
}

// TestBatchHonoursTheServerDefaultMode: a batch that names no mode runs the
// server's -search-mode, as a single search does.
func TestBatchHonoursTheServerDefaultMode(t *testing.T) {
	_, addr := bootNode(t, Config{SearchMode: core.ModeHybrid})
	seedNodes(t, addr)
	post := func(mode string) core.SearchBatchResponse {
		var res core.SearchBatchResponse
		if code, raw := doReq(t, http.MethodPost, addr+"/registry/zz46/search/batch", core.SearchBatchRequest{
			Queries: []string{"stage_007", "stage_019"}, Mode: mode, Limit: 3,
		}, &res); code != http.StatusOK {
			t.Fatalf("batch mode %q: %d %s", mode, code, raw)
		}
		return res
	}
	byDefault, hybrid, ann := post(""), post(core.ModeHybrid), post(core.ModeANN)
	if !reflect.DeepEqual(byDefault, hybrid) {
		t.Fatalf("default-mode batch is not the hybrid batch:\n got %+v\nwant %+v", byDefault, hybrid)
	}
	if reflect.DeepEqual(byDefault, ann) {
		t.Fatal("hybrid and ann batches agree (RRF scores against cosine scores); the mode is not reaching the pipeline")
	}
}

// bootShardedCluster boots three shard nodes holding the corpus between
// them and a coordinator in front, over the named transport.
func bootShardedCluster(t *testing.T, transport string, cacheSize int) (coord *Server, addr string) {
	t.Helper()
	var shards []cluster.Shard
	var addrs []string
	for _, name := range []string{"a", "b", "c"} {
		srv, shardAddr := bootNode(t, Config{})
		addrs = append(addrs, shardAddr)
		var peer cluster.Peer = cluster.NewHTTPPeer(name, shardAddr)
		if transport == "resp" {
			rs, err := cluster.ServeRESP("127.0.0.1:0", srv.ClusterSearchLocal)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = rs.Close() })
			peer = cluster.NewRESPPeer(name, rs.Addr())
		}
		shards = append(shards, cluster.Shard{Name: name, Primary: peer})
	}
	seedNodes(t, addrs...)
	co, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return bootNode(t, Config{Cluster: co, CacheSize: cacheSize})
}

// TestBatchMatchesSingleThroughTheCoordinator: a coordinator scatters a
// batch like it scatters a single search — over HTTP and over RESP leaves
// — instead of answering from its own empty registry, and its one cache
// feeds the coordinator series.
func TestBatchMatchesSingleThroughTheCoordinator(t *testing.T) {
	for _, transport := range []string{"http", "resp"} {
		t.Run(transport, func(t *testing.T) {
			coord, addr := bootShardedCluster(t, transport, 0)
			n := assertBatchMatchesSingle(t, addr)
			if got := metricSum(t, coord, `laminar_cluster_searches_total{status="full"}`); got != float64(2*n) {
				t.Fatalf("%v full scatters for %d batched + %d single queries", got, n, n)
			}
		})
	}
	coord, addr := bootShardedCluster(t, "http", 256)
	n := assertBatchMatchesSingle(t, addr)
	if got := metricSum(t, coord, `laminar_cluster_searches_total{status="full"}`); got != float64(n) {
		t.Fatalf("caching coordinator scattered %v times for %d distinct queries", got, n)
	}
	if got := metricSum(t, coord, `laminar_cache_hits_total{cache="coordinator"}`); got != float64(n) {
		t.Fatalf("coordinator cache hits = %v, want %d", got, n)
	}
	if got := metricSum(t, coord, `laminar_cache_misses_total{cache="local"}`); got != 0 {
		t.Fatalf("a coordinator fed the local cache series (%v misses): a node has one cache", got)
	}
}

// TestCoordinatorSkipsCodeOverWorkflows: only PEs carry code embeddings,
// so the plan answers a code × workflow query with nothing — on a
// coordinator too, without spending a scatter on it.
func TestCoordinatorSkipsCodeOverWorkflows(t *testing.T) {
	coord, addr := bootShardedCluster(t, "http", 0)
	var res core.SearchResponse
	code, raw := doReq(t, http.MethodPost, addr+"/registry/zz46/search", core.SearchRequest{
		Search: "def _process(self, x):", SearchType: core.SearchWorkflows, QueryType: core.QueryCode,
	}, &res)
	if code != http.StatusOK || len(res.Hits) != 0 || res.Degraded {
		t.Fatalf("code × workflow: %d %s", code, raw)
	}
	var batch core.SearchBatchResponse
	code, raw = doReq(t, http.MethodPost, addr+"/registry/zz46/search/batch", core.SearchBatchRequest{
		Queries: []string{"x", "y"}, SearchType: core.SearchWorkflows, QueryType: core.QueryCode, Mode: core.ModeHybrid,
	}, &batch)
	if code != http.StatusOK || len(batch.Results) != 2 || len(batch.Results[0])+len(batch.Results[1]) != 0 {
		t.Fatalf("code × workflow batch: %d %s", code, raw)
	}
	if got := metricSum(t, coord, "laminar_cluster_searches_total"); got != 0 {
		t.Fatalf("the coordinator scattered %v times for queries with nothing to rank", got)
	}
	// The same shape over PEs does scatter — the counter is live.
	doReq(t, http.MethodPost, addr+"/registry/zz46/search", core.SearchRequest{
		Search: "def _process(self, x):", SearchType: core.SearchPEs, QueryType: core.QueryCode,
	}, &res)
	if got := metricSum(t, coord, "laminar_cluster_searches_total"); got != 1 || len(res.Hits) == 0 {
		t.Fatalf("code × pe: %v scatters, %d hits", got, len(res.Hits))
	}
}

// TestCancelledRequestStopsBeforeTheIndex: the executor checks the
// request's context between stages, so a query whose client is already
// gone never reaches the index walk.
func TestCancelledRequestStopsBeforeTheIndex(t *testing.T) {
	reg := registry.NewStore()
	reg.ConfigureIndex(func() index.VectorIndex {
		return index.NewClustered(index.ClusteredConfig{RecallTarget: 0.9})
	})
	srv, addr := bootNode(t, Config{Registry: reg, CacheSize: 16})
	seedNodes(t, addr)
	user, err := reg.UserByName("zz46")
	if err != nil {
		t.Fatal(err)
	}
	const stops = "laminar_index_query_stops_total"
	before := metricSum(t, srv, stops)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range []string{core.ModeANN, core.ModeHybrid, core.ModeReranked} {
		req := core.SearchRequest{Search: "filters photon events", QueryType: core.QuerySemantic, Mode: mode}
		if _, err := srv.searchOne(cancelled, user, req); !errors.Is(err, context.Canceled) {
			t.Fatalf("mode %s: cancelled search returned %v, want context.Canceled", mode, err)
		}
	}
	if got := metricSum(t, srv, stops); got != before {
		t.Fatalf("cancelled searches probed the index: %s %v → %v", stops, before, got)
	}
	if got := metricSum(t, srv, "laminar_lexical_searches_total"); got != 0 {
		t.Fatalf("cancelled searches ran the lexical leg %v times", got)
	}
	req := core.SearchRequest{Search: "filters photon events", QueryType: core.QuerySemantic}
	if res, err := srv.searchOne(context.Background(), user, req); err != nil || len(res.Hits) == 0 {
		t.Fatalf("live search: %+v, %v", res, err)
	}
	if got := metricSum(t, srv, stops); got <= before {
		t.Fatalf("a live search left %s at %v: the assertion above is vacuous", stops, got)
	}
	// What the cache already holds is served whoever asks.
	if res, err := srv.searchOne(cancelled, user, req); err != nil || len(res.Hits) == 0 {
		t.Fatalf("cached answer for a cancelled request: %+v, %v", res, err)
	}
}

// TestMisSizedQueryEmbeddingIs400: registration rejects an embedding that
// is not embed.Dim wide; so does every search route, instead of scoring
// the common prefix and ranking confidently and wrongly. Empty means
// absent: the server embeds the text.
func TestMisSizedQueryEmbeddingIs400(t *testing.T) {
	srv, addr := bootNode(t, Config{})
	seedNodes(t, addr)
	narrow := []float32{1, 0, 0}
	want := fmt.Sprintf("dimension 3, want %d", embed.Dim)

	code, raw := doReq(t, http.MethodPost, addr+"/registry/zz46/search", core.SearchRequest{
		Search: "filters photon events", QueryType: core.QuerySemantic, QueryEmbedding: narrow,
	}, nil)
	if code != http.StatusBadRequest || !strings.Contains(raw, `"queryEmbedding"`) || !strings.Contains(raw, want) {
		t.Fatalf("single search with a 3-wide embedding: %d %s", code, raw)
	}
	good := search.EmbedDescription("filters photon events")
	code, raw = doReq(t, http.MethodPost, addr+"/registry/zz46/search/batch", core.SearchBatchRequest{
		QueryEmbeddings: [][]float32{good, narrow},
	}, nil)
	if code != http.StatusBadRequest || !strings.Contains(raw, `"queryEmbeddings[1]"`) || !strings.Contains(raw, want) {
		t.Fatalf("batch with a 3-wide embedding: %d %s", code, raw)
	}
	// CSEARCH: the shard leaf builds the same plan.
	_, err := srv.ClusterSearchLocal("zz46", core.SearchRequest{QueryType: core.QueryCode, QueryEmbedding: narrow})
	var apiErr *core.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusBadRequest || apiErr.Param != "queryEmbedding" {
		t.Fatalf("shard leaf with a 3-wide embedding: %v", err)
	}

	var embedded, empty core.SearchResponse
	req := core.SearchRequest{Search: "filters photon events", SearchType: core.SearchPEs, QueryType: core.QuerySemantic}
	doReq(t, http.MethodPost, addr+"/registry/zz46/search", req, &embedded)
	explicit := map[string]any{"search": req.Search, "searchType": req.SearchType, "queryType": req.QueryType, "queryEmbedding": []float32{}}
	if code, raw := doReq(t, http.MethodPost, addr+"/registry/zz46/search", explicit, &empty); code != http.StatusOK {
		t.Fatalf("empty embedding: %d %s", code, raw)
	}
	if len(embedded.Hits) == 0 || !reflect.DeepEqual(empty, embedded) {
		t.Fatalf("an empty embedding is not an absent one:\n got %+v\nwant %+v", empty, embedded)
	}
}

// TestCacheHitAllocatesNothing pins the repeat-traffic fast path: planning
// a request and answering it from the cache costs one key hash and no
// allocation, for a ranked query and for a text query.
func TestCacheHitAllocatesNothing(t *testing.T) {
	srv, addr := bootNode(t, Config{CacheSize: 16})
	seedNodes(t, addr)
	for _, req := range []core.SearchRequest{
		{
			Search: "filters photon events", SearchType: core.SearchBoth, QueryType: core.QuerySemantic,
			QueryEmbedding: search.EmbedDescription("filters photon events"), Mode: core.ModeHybrid, Limit: 5,
		},
		{Search: "photon events", SearchType: core.SearchBoth, QueryType: core.QueryText, Limit: 5},
	} {
		if res, err := srv.ClusterSearchLocal("zz46", req); err != nil || len(res.Hits) == 0 {
			t.Fatalf("warm-up: %+v, %v", res, err)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := srv.ClusterSearchLocal("zz46", req); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("a %s cache hit allocates %v times", req.QueryType, allocs)
		}
	}
}

// TestOnePipeline is the drift gate of the query pipeline, in the style of
// TestIndexFlagsMatchDocumentedKnobs: it parses this package's non-test
// sources and fails when a second function starts resolving the search
// mode, calling the registry's search entry or the cluster scatter, or
// touching the query cache — the forks this package once had, which
// diverged into a batch route without mode, cache or scatter — or when
// query.go goes back to copying a user's listing or scanning it with
// search.Text, the text route that ran beside the pipeline instead of
// through it.
func TestOnePipeline(t *testing.T) {
	sources, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	// what → the functions it happens in.
	found := map[string]map[string]bool{}
	note := func(what, fn string) {
		if found[what] == nil {
			found[what] = map[string]bool{}
		}
		found[what][fn] = true
	}
	for _, source := range sources {
		if strings.HasSuffix(source, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), source, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch inner := exprString(sel.X); {
				case source == "query.go" && (inner == "search" && sel.Sel.Name == "Text" ||
					strings.HasSuffix(inner, ".reg") && (sel.Sel.Name == "PEsForUser" || sel.Sel.Name == "WorkflowsForUser")):
					t.Errorf("query.go: %s calls %s.%s — text queries scan in place inside reg.Search, behind the cache", fn.Name.Name, inner, sel.Sel.Name)
				case sel.Sel.Name == "SearchMode":
					note("mode resolution (cfg.SearchMode)", fn.Name.Name)
				case strings.HasSuffix(inner, ".reg") && strings.Contains(sel.Sel.Name, "Search"):
					note("registry search entry (reg.*Search*)", fn.Name.Name)
				case strings.HasSuffix(inner, ".Cluster") && sel.Sel.Name == "Search":
					note("cluster scatter (Cluster.Search)", fn.Name.Name)
				case strings.HasSuffix(inner, ".cache") && (sel.Sel.Name == "Get" || sel.Sel.Name == "Put"):
					note("query cache read/fill (cache.Get/Put)", fn.Name.Name)
				}
				return true
			})
		}
	}
	want := map[string][]string{
		// New validates the configured default at startup; plan resolves it.
		"mode resolution (cfg.SearchMode)":      {"New", "plan"},
		"registry search entry (reg.*Search*)":  {"execute"},
		"cluster scatter (Cluster.Search)":      {"execute"},
		"query cache read/fill (cache.Get/Put)": {"execute"},
	}
	for what, fns := range want {
		var got []string
		for fn := range found[what] {
			got = append(got, fn)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, fns) {
			t.Errorf("%s happens in %v, want exactly %v — route the new caller through the executor (query.go)", what, got, fns)
		}
	}
}

// exprString renders the selector chains TestOnePipeline matches on
// ("s.cfg.Cluster"); anything else renders empty.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return ""
}
