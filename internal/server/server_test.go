package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"laminar/internal/codec"
	"laminar/internal/core"
	"laminar/internal/embed"
	"laminar/internal/engine"
	"laminar/internal/search"
)

// startServer boots a server with an instant-install engine and creates the
// test user, returning the base URL.
func startServer(t *testing.T) string {
	t.Helper()
	srv := New(Config{Engine: engine.New(engine.Config{InstallDelayScale: 0})})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	code, _ := doReq(t, http.MethodPost, addr+"/auth/register",
		core.RegisterUserRequest{UserName: "zz46", Password: "password"}, nil)
	if code != http.StatusCreated {
		t.Fatalf("register status %d", code)
	}
	return addr
}

// doReq performs a JSON request, returning status and decoding into out.
func doReq(t *testing.T, method, url string, body any, out any) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 400 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s: %v (%s)", url, err, raw)
		}
	}
	return resp.StatusCode, string(raw)
}

const peSource = `
class EchoPE(IterativePE):
    def __init__(self):
        IterativePE.__init__(self)
    def _process(self, v):
        return v
`

func addTestPE(t *testing.T, addr, name string) core.PERecord {
	t.Helper()
	enc, err := codec.Encode(codec.Envelope{Kind: codec.KindPE, Name: name, Source: peSource})
	if err != nil {
		t.Fatal(err)
	}
	var rec core.PERecord
	code, raw := doReq(t, http.MethodPost, addr+"/registry/zz46/pe/add", core.AddPERequest{
		PEName: name, Description: "echoes values", PECode: enc,
	}, &rec)
	if code != http.StatusCreated {
		t.Fatalf("add PE: %d %s", code, raw)
	}
	return rec
}

func TestAuthEndpoints(t *testing.T) {
	addr := startServer(t)
	// login works
	var auth core.AuthResponse
	code, _ := doReq(t, http.MethodPost, addr+"/auth/login",
		core.LoginRequest{UserName: "zz46", Password: "password"}, &auth)
	if code != 200 || auth.Token == "" {
		t.Fatalf("login: %d %+v", code, auth)
	}
	// wrong password is the canonical Section 3.2.5 error
	code, raw := doReq(t, http.MethodPost, addr+"/auth/login",
		core.LoginRequest{UserName: "zz46", Password: "wrong"}, nil)
	if code != http.StatusUnauthorized || !strings.Contains(raw, "UnauthorizedError") {
		t.Fatalf("bad login: %d %s", code, raw)
	}
	// user listing
	var users []core.UserRecord
	code, _ = doReq(t, http.MethodGet, addr+"/auth/all", nil, &users)
	if code != 200 || len(users) != 1 {
		t.Fatalf("users: %d %+v", code, users)
	}
	// duplicate registration conflicts
	code, raw = doReq(t, http.MethodPost, addr+"/auth/register",
		core.RegisterUserRequest{UserName: "zz46", Password: "x"}, nil)
	if code != http.StatusConflict || !strings.Contains(raw, "ConflictError") {
		t.Fatalf("dup register: %d %s", code, raw)
	}
}

func TestPEEndpoints(t *testing.T) {
	addr := startServer(t)
	rec := addTestPE(t, addr, "EchoPE")

	var got core.PERecord
	code, _ := doReq(t, http.MethodGet, fmt.Sprintf("%s/registry/zz46/pe/id/%d", addr, rec.PEID), nil, &got)
	if code != 200 || got.PEName != "EchoPE" {
		t.Fatalf("by id: %d %+v", code, got)
	}
	code, _ = doReq(t, http.MethodGet, addr+"/registry/zz46/pe/name/EchoPE", nil, &got)
	if code != 200 || got.PEID != rec.PEID {
		t.Fatalf("by name: %d %+v", code, got)
	}
	var all []core.PERecord
	code, _ = doReq(t, http.MethodGet, addr+"/registry/zz46/pe/all", nil, &all)
	if code != 200 || len(all) != 1 {
		t.Fatalf("all: %d %+v", code, all)
	}
	// unknown id → standardized 404
	code, raw := doReq(t, http.MethodGet, addr+"/registry/zz46/pe/id/999", nil, nil)
	if code != 404 || !strings.Contains(raw, "NotFoundError") {
		t.Fatalf("missing: %d %s", code, raw)
	}
	// non-integer id → 400
	code, raw = doReq(t, http.MethodGet, addr+"/registry/zz46/pe/id/abc", nil, nil)
	if code != 400 || !strings.Contains(raw, "BadRequestError") {
		t.Fatalf("bad id: %d %s", code, raw)
	}
	// removal by both paths
	code, _ = doReq(t, http.MethodDelete, fmt.Sprintf("%s/registry/zz46/pe/remove/id/%d", addr, rec.PEID), nil, nil)
	if code != 200 {
		t.Fatalf("remove: %d", code)
	}
	rec2 := addTestPE(t, addr, "EchoPE2")
	code, _ = doReq(t, http.MethodDelete, addr+"/registry/zz46/pe/remove/name/EchoPE2", nil, nil)
	if code != 200 {
		t.Fatalf("remove by name: %d", code)
	}
	_ = rec2
}

func TestWorkflowEndpoints(t *testing.T) {
	addr := startServer(t)
	pe := addTestPE(t, addr, "EchoPE")
	enc, err := codec.Encode(codec.Envelope{Kind: codec.KindWorkflow, Name: "echo", Source: peSource})
	if err != nil {
		t.Fatal(err)
	}
	var wf core.WorkflowRecord
	code, raw := doReq(t, http.MethodPost, addr+"/registry/zz46/workflow/add", core.AddWorkflowRequest{
		WorkflowName: "Echo", EntryPoint: "echo", WorkflowCode: enc, PEIDs: []int{pe.PEID},
	}, &wf)
	if code != http.StatusCreated {
		t.Fatalf("add workflow: %d %s", code, raw)
	}

	var got core.WorkflowRecord
	code, _ = doReq(t, http.MethodGet, fmt.Sprintf("%s/registry/zz46/workflow/id/%d", addr, wf.WorkflowID), nil, &got)
	if code != 200 || got.EntryPoint != "echo" {
		t.Fatalf("by id: %d %+v", code, got)
	}
	code, _ = doReq(t, http.MethodGet, addr+"/registry/zz46/workflow/name/echo", nil, &got)
	if code != 200 {
		t.Fatalf("by name: %d", code)
	}
	var all []core.WorkflowRecord
	code, _ = doReq(t, http.MethodGet, addr+"/registry/zz46/workflow/all", nil, &all)
	if code != 200 || len(all) != 1 {
		t.Fatalf("all: %d %+v", code, all)
	}
	// PEs of the workflow, by id and name
	var pes []core.PERecord
	code, _ = doReq(t, http.MethodGet, fmt.Sprintf("%s/registry/zz46/workflow/pes/id/%d", addr, wf.WorkflowID), nil, &pes)
	if code != 200 || len(pes) != 1 {
		t.Fatalf("pes by id: %d %+v", code, pes)
	}
	code, _ = doReq(t, http.MethodGet, addr+"/registry/zz46/workflow/pes/name/echo", nil, &pes)
	if code != 200 || len(pes) != 1 {
		t.Fatalf("pes by name: %d %+v", code, pes)
	}
	// associate another PE
	pe2 := addTestPE(t, addr, "SecondPE")
	code, _ = doReq(t, http.MethodPut, fmt.Sprintf("%s/registry/zz46/workflow/%d/pe/%d", addr, wf.WorkflowID, pe2.PEID), nil, nil)
	if code != 200 {
		t.Fatalf("associate: %d", code)
	}
	code, _ = doReq(t, http.MethodGet, fmt.Sprintf("%s/registry/zz46/workflow/pes/id/%d", addr, wf.WorkflowID), nil, &pes)
	if code != 200 || len(pes) != 2 {
		t.Fatalf("after associate: %+v", pes)
	}
	// registry listing
	var listing core.RegistryListing
	code, _ = doReq(t, http.MethodGet, addr+"/registry/zz46/all", nil, &listing)
	if code != 200 || len(listing.PEs) != 2 || len(listing.Workflows) != 1 {
		t.Fatalf("listing: %+v", listing)
	}
	// removal
	code, _ = doReq(t, http.MethodDelete, addr+"/registry/zz46/workflow/remove/name/echo", nil, nil)
	if code != 200 {
		t.Fatalf("remove: %d", code)
	}
}

func TestSearchEndpointGETForm(t *testing.T) {
	addr := startServer(t)
	addTestPE(t, addr, "PrimeChecker")
	var resp core.SearchResponse
	code, _ := doReq(t, http.MethodGet, addr+"/registry/zz46/search/prime/type/pe", nil, &resp)
	if code != 200 || len(resp.Hits) != 1 || resp.Hits[0].Name != "PrimeChecker" {
		t.Fatalf("search: %d %+v", code, resp)
	}
	// unknown search type errors
	code, raw := doReq(t, http.MethodGet, addr+"/registry/zz46/search/x/type/bogus", nil, nil)
	if code != 400 || !strings.Contains(raw, "BadRequestError") {
		t.Fatalf("bad type: %d %s", code, raw)
	}
}

func TestUnknownUser404s(t *testing.T) {
	addr := startServer(t)
	code, raw := doReq(t, http.MethodGet, addr+"/registry/ghost/pe/all", nil, nil)
	if code != 404 || !strings.Contains(raw, "NotFoundError") {
		t.Fatalf("ghost user: %d %s", code, raw)
	}
}

func TestExecutionEndpoint(t *testing.T) {
	addr := startServer(t)
	source := `
class Producer(ProducerPE):
    def __init__(self):
        ProducerPE.__init__(self)
    def _process(self):
        return 7
`
	enc, err := codec.Encode(codec.Envelope{Kind: codec.KindWorkflow, Name: "sevens", Source: source})
	if err != nil {
		t.Fatal(err)
	}
	var resp core.ExecutionResponse
	code, raw := doReq(t, http.MethodPost, addr+"/execution/zz46/run", core.ExecutionRequest{
		WorkflowCode: enc, Input: 4, Process: "SIMPLE",
	}, &resp)
	if code != 200 {
		t.Fatalf("run: %d %s", code, raw)
	}
	if len(resp.Outputs["Producer.output"]) != 4 {
		t.Fatalf("outputs: %+v", resp.Outputs)
	}
	// no workflow selected
	code, raw = doReq(t, http.MethodPost, addr+"/execution/zz46/run", core.ExecutionRequest{}, nil)
	if code != 400 || !strings.Contains(raw, "BadRequestError") {
		t.Fatalf("empty run: %d %s", code, raw)
	}
}

// TestSemanticSearchViaIndex drives the index-backed semantic and code
// query paths: the GET form carries no client embedding, so the server
// embeds the query itself before probing the registry's vector index.
func TestSemanticSearchViaIndex(t *testing.T) {
	addr := startServer(t)
	for _, p := range []struct{ name, desc string }{
		{"PrimeChecker", "checks if a number is prime"},
		{"WordCounter", "counts the words in a text stream"},
		{"FileReader", "reads the contents of a file"},
	} {
		enc, err := codec.Encode(codec.Envelope{Kind: codec.KindPE, Name: p.name, Source: peSource})
		if err != nil {
			t.Fatal(err)
		}
		code, raw := doReq(t, http.MethodPost, addr+"/registry/zz46/pe/add", core.AddPERequest{
			PEName: p.name, Description: p.desc, PECode: enc,
			DescEmbedding: search.EmbedDescription(p.desc),
			CodeEmbedding: search.EmbedCode("def _process(self):\n    pass"),
		}, nil)
		if code != http.StatusCreated {
			t.Fatalf("add %s: %d %s", p.name, code, raw)
		}
	}
	var resp core.SearchResponse
	code, _ := doReq(t, http.MethodGet,
		addr+"/registry/zz46/search/checks+whether+a+number+is+prime/type/pe?query=semantic", nil, &resp)
	if code != 200 || len(resp.Hits) != 3 || resp.Hits[0].Name != "PrimeChecker" {
		t.Fatalf("semantic: %d %+v", code, resp)
	}
	// POST form threads an explicit limit down to the index's top-k heap.
	code, _ = doReq(t, http.MethodPost, addr+"/registry/zz46/search", core.SearchRequest{
		Search: "prime numbers", SearchType: core.SearchPEs, QueryType: core.QuerySemantic, Limit: 1,
	}, &resp)
	if code != 200 || len(resp.Hits) != 1 {
		t.Fatalf("limited semantic: %d %+v", code, resp)
	}
}

// TestSemanticSearchCoversWorkflows: workflows carry description embeddings
// of their own, so a semantic SearchBoth ranks PE and workflow hits in one
// cosine space, and a workflow-only semantic search probes just the
// workflow index.
func TestSemanticSearchCoversWorkflows(t *testing.T) {
	addr := startServer(t)
	enc, err := codec.Encode(codec.Envelope{Kind: codec.KindPE, Name: "PrimeChecker", Source: peSource})
	if err != nil {
		t.Fatal(err)
	}
	code, raw := doReq(t, http.MethodPost, addr+"/registry/zz46/pe/add", core.AddPERequest{
		PEName: "PrimeChecker", Description: "checks if a number is prime", PECode: enc,
		DescEmbedding: search.EmbedDescription("checks if a number is prime"),
	}, nil)
	if code != http.StatusCreated {
		t.Fatalf("add pe: %d %s", code, raw)
	}
	for _, w := range []struct{ name, desc string }{
		{"primePipeline", "produces numbers and checks them for primality"},
		{"wordPipeline", "streams a text corpus and counts its words"},
	} {
		code, raw = doReq(t, http.MethodPost, addr+"/registry/zz46/workflow/add", core.AddWorkflowRequest{
			WorkflowName: w.name, EntryPoint: w.name, Description: w.desc,
			WorkflowCode:  "WF-" + w.name,
			DescEmbedding: search.EmbedDescription(w.desc),
		}, nil)
		if code != http.StatusCreated {
			t.Fatalf("add workflow %s: %d %s", w.name, code, raw)
		}
	}

	// Workflow-only semantic search hits the workflow index.
	var resp core.SearchResponse
	code, _ = doReq(t, http.MethodGet,
		addr+"/registry/zz46/search/checking+numbers+for+primality/type/workflow?query=semantic", nil, &resp)
	if code != 200 || len(resp.Hits) != 2 || resp.Hits[0].Name != "primePipeline" {
		t.Fatalf("workflow semantic: %d %+v", code, resp)
	}
	for _, h := range resp.Hits {
		if h.Kind != "workflow" {
			t.Fatalf("workflow search returned kind %q: %+v", h.Kind, resp.Hits)
		}
	}

	// SearchBoth merges the two indexes by score; the prime PE and prime
	// workflow must both rank above the word-counting workflow.
	code, _ = doReq(t, http.MethodGet,
		addr+"/registry/zz46/search/checking+numbers+for+primality/type/both?query=semantic", nil, &resp)
	if code != 200 || len(resp.Hits) != 3 {
		t.Fatalf("both semantic: %d %+v", code, resp)
	}
	kinds := map[string]bool{}
	for _, h := range resp.Hits {
		kinds[h.Kind] = true
	}
	if !kinds["pe"] || !kinds["workflow"] {
		t.Fatalf("SearchBoth missing a kind: %+v", resp.Hits)
	}
	if resp.Hits[2].Name != "wordPipeline" {
		t.Fatalf("score merge misranked: %+v", resp.Hits)
	}
	for i := 1; i < len(resp.Hits); i++ {
		if resp.Hits[i].Score > resp.Hits[i-1].Score {
			t.Fatalf("merged hits not score-descending: %+v", resp.Hits)
		}
	}

	// Workflows carry no code embeddings: a workflow-only code query has
	// nothing to rank.
	code, _ = doReq(t, http.MethodGet,
		addr+"/registry/zz46/search/def+f/type/workflow?query=code", nil, &resp)
	if code != 200 || len(resp.Hits) != 0 {
		t.Fatalf("workflow code query: %d %+v", code, resp)
	}
}

// TestBodySizeLimit: a request body over Config.MaxBodyBytes must be
// refused with 413 and the standardized PayloadTooLargeError, on every
// body-accepting endpoint (they all funnel through decodeBody).
func TestBodySizeLimit(t *testing.T) {
	srv := New(Config{Engine: engine.New(engine.Config{InstallDelayScale: 0}), MaxBodyBytes: 512})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	code, raw := doReq(t, http.MethodPost, addr+"/auth/register", core.RegisterUserRequest{
		UserName: strings.Repeat("x", 2048), Password: "pw",
	}, nil)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d (%s), want 413", code, raw)
	}
	if !strings.Contains(raw, "PayloadTooLargeError") {
		t.Fatalf("oversize body error shape: %s", raw)
	}
	// A request under the limit still works.
	code, raw = doReq(t, http.MethodPost, addr+"/auth/register",
		core.RegisterUserRequest{UserName: "ok", Password: "pw"}, nil)
	if code != http.StatusCreated {
		t.Fatalf("normal register after limit config: %d %s", code, raw)
	}
}

// TestWriteErrUnwrapsWrappedAPIErrors: an APIError that picked up
// fmt.Errorf wrapping on its way out must keep its real status, not
// collapse to 500.
func TestWriteErrUnwrapsWrappedAPIErrors(t *testing.T) {
	rec := httptest.NewRecorder()
	writeErr(rec, fmt.Errorf("service layer context: %w", core.ErrNotFound("peId", "no PE with id %d", 9)))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("wrapped NotFound surfaced as %d, want 404", rec.Code)
	}
	var apiErr core.APIError
	if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil || apiErr.Type != "NotFoundError" {
		t.Fatalf("wrapped error body: %s (%v)", rec.Body.String(), err)
	}
}

// TestGracefulShutdown: Close must let an in-flight request finish (the
// historic http.Server.Close dropped it mid-response).
func TestGracefulShutdown(t *testing.T) {
	srv := New(Config{Engine: engine.New(engine.Config{InstallDelayScale: 0})})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Make the registry slow so the request is genuinely in flight when
	// Close lands.
	srv.Registry().SetLatency(300 * time.Millisecond)
	type result struct {
		code int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(addr + "/auth/all")
		if err != nil {
			done <- result{0, err}
			return
		}
		defer resp.Body.Close()
		_, _ = io.ReadAll(resp.Body)
		done <- result{resp.StatusCode, nil}
	}()
	time.Sleep(100 * time.Millisecond) // request is inside the handler now
	srv.Close()
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request dropped during shutdown: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request status %d during shutdown, want 200", r.code)
	}
}

// TestEmbeddingDimValidation: the registration endpoints enforce the
// bi-encoder contract — an embedding is either absent or exactly
// embed.Dim wide. A mis-sized vector must be named and refused with 400,
// not stored to silently score only its common prefix forever after.
func TestEmbeddingDimValidation(t *testing.T) {
	addr := startServer(t)
	enc, err := codec.Encode(codec.Envelope{Kind: codec.KindPE, Name: "DimPE", Source: peSource})
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]float32, embed.Dim+1)

	code, raw := doReq(t, http.MethodPost, addr+"/registry/zz46/pe/add", core.AddPERequest{
		PEName: "DimPE", Description: "d", PECode: enc, DescEmbedding: bad,
	}, nil)
	if code != 400 || !strings.Contains(raw, "BadRequestError") || !strings.Contains(raw, "descEmbedding") {
		t.Fatalf("oversize descEmbedding: %d %s", code, raw)
	}
	code, raw = doReq(t, http.MethodPost, addr+"/registry/zz46/pe/add", core.AddPERequest{
		PEName: "DimPE", Description: "d", PECode: enc, CodeEmbedding: bad[:3],
	}, nil)
	if code != 400 || !strings.Contains(raw, "codeEmbedding") {
		t.Fatalf("undersize codeEmbedding: %d %s", code, raw)
	}
	code, raw = doReq(t, http.MethodPost, addr+"/registry/zz46/workflow/add", core.AddWorkflowRequest{
		WorkflowName: "wfDim", EntryPoint: "e", WorkflowCode: "c", DescEmbedding: bad,
	}, nil)
	if code != 400 || !strings.Contains(raw, "descEmbedding") {
		t.Fatalf("workflow oversize descEmbedding: %d %s", code, raw)
	}

	// Exactly embed.Dim wide — and absent entirely — both register.
	code, raw = doReq(t, http.MethodPost, addr+"/registry/zz46/pe/add", core.AddPERequest{
		PEName: "DimPE", Description: "d", PECode: enc,
		DescEmbedding: search.EmbedDescription("d"),
		CodeEmbedding: search.EmbedCode("def f(): pass"),
	}, nil)
	if code != http.StatusCreated {
		t.Fatalf("exact-dim embeddings refused: %d %s", code, raw)
	}
	code, raw = doReq(t, http.MethodPost, addr+"/registry/zz46/pe/add", core.AddPERequest{
		PEName: "DimPE2", Description: "d", PECode: enc,
	}, nil)
	if code != http.StatusCreated {
		t.Fatalf("absent embeddings refused: %d %s", code, raw)
	}
}

// TestSearchBatchEndpoint: POST /search/batch answers one hit list per
// query, each identical to what the single-query search path returns —
// batching is an amortization, never a semantic change. This is the
// route's wire contract; pipeline_test.go holds batch ≡ single across
// every mode, through the cache and through a coordinator.
func TestSearchBatchEndpoint(t *testing.T) {
	addr := startServer(t)
	for _, p := range []struct{ name, desc string }{
		{"PrimeChecker", "checks if a number is prime"},
		{"WordCounter", "counts the words in a text stream"},
		{"FileReader", "reads the contents of a file"},
	} {
		enc, err := codec.Encode(codec.Envelope{Kind: codec.KindPE, Name: p.name, Source: peSource})
		if err != nil {
			t.Fatal(err)
		}
		code, raw := doReq(t, http.MethodPost, addr+"/registry/zz46/pe/add", core.AddPERequest{
			PEName: p.name, Description: p.desc, PECode: enc,
			DescEmbedding: search.EmbedDescription(p.desc),
			CodeEmbedding: search.EmbedCode("def _process(self):\n    pass"),
		}, nil)
		if code != http.StatusCreated {
			t.Fatalf("add %s: %d %s", p.name, code, raw)
		}
	}
	queries := []string{
		"checks whether a number is prime",
		"counting words in text",
		"reading a file from disk",
	}

	// Server-side embedding from query text.
	var batch core.SearchBatchResponse
	code, raw := doReq(t, http.MethodPost, addr+"/registry/zz46/search/batch", core.SearchBatchRequest{
		QueryType: core.QuerySemantic, Queries: queries, Limit: 2,
	}, &batch)
	if code != 200 || len(batch.Results) != len(queries) {
		t.Fatalf("batch: %d %s", code, raw)
	}
	for i, q := range queries {
		var single core.SearchResponse
		code, _ = doReq(t, http.MethodPost, addr+"/registry/zz46/search", core.SearchRequest{
			Search: q, SearchType: core.SearchPEs, QueryType: core.QuerySemantic, Limit: 2,
		}, &single)
		if code != 200 {
			t.Fatalf("single search %q: %d", q, code)
		}
		if !reflect.DeepEqual(batch.Results[i], single.Hits) {
			t.Fatalf("query %q: batch diverged from single search:\n got %+v\nwant %+v", q, batch.Results[i], single.Hits)
		}
	}
	if batch.Results[0][0].Name != "PrimeChecker" {
		t.Fatalf("batch misranked: %+v", batch.Results[0])
	}

	// Pre-embedded client-side batch takes the same path.
	embs := make([][]float32, len(queries))
	for i, q := range queries {
		embs[i] = search.EmbedDescription(q)
	}
	var preEmb core.SearchBatchResponse
	code, raw = doReq(t, http.MethodPost, addr+"/registry/zz46/search/batch", core.SearchBatchRequest{
		QueryType: core.QuerySemantic, QueryEmbeddings: embs, Limit: 2,
	}, &preEmb)
	if code != 200 || !reflect.DeepEqual(preEmb.Results, batch.Results) {
		t.Fatalf("pre-embedded batch diverged: %d %s", code, raw)
	}

	// Code-completion batches rank by code embeddings.
	var codeBatch core.SearchBatchResponse
	code, raw = doReq(t, http.MethodPost, addr+"/registry/zz46/search/batch", core.SearchBatchRequest{
		QueryType: core.QueryCode, Queries: []string{"def _process(self):"},
	}, &codeBatch)
	if code != 200 || len(codeBatch.Results) != 1 || len(codeBatch.Results[0]) == 0 {
		t.Fatalf("code batch: %d %s", code, raw)
	}

	// Degenerate and invalid requests are named 400s.
	code, raw = doReq(t, http.MethodPost, addr+"/registry/zz46/search/batch", core.SearchBatchRequest{}, nil)
	if code != 400 || !strings.Contains(raw, "BadRequestError") {
		t.Fatalf("empty batch: %d %s", code, raw)
	}
	code, raw = doReq(t, http.MethodPost, addr+"/registry/zz46/search/batch", core.SearchBatchRequest{
		QueryType: "nonsense", Queries: []string{"x"},
	}, nil)
	if code != 400 || !strings.Contains(raw, "query type") {
		t.Fatalf("bad query type: %d %s", code, raw)
	}
	// The batch route validates mode and search type exactly as the single
	// route does: same plan.
	for _, bad := range []core.SearchBatchRequest{
		{Mode: "bm25", Queries: []string{"x"}},
		{SearchType: "everything", Queries: []string{"x"}},
	} {
		code, raw = doReq(t, http.MethodPost, addr+"/registry/zz46/search/batch", bad, nil)
		if code != 400 || !strings.Contains(raw, "BadRequestError") {
			t.Fatalf("batch %+v: %d %s", bad, code, raw)
		}
	}
	// Unknown user 404s like every registry route.
	code, raw = doReq(t, http.MethodPost, addr+"/registry/nobody/search/batch", core.SearchBatchRequest{
		Queries: []string{"x"},
	}, nil)
	if code != 404 {
		t.Fatalf("unknown user batch: %d %s", code, raw)
	}
}
