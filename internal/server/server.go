// Package server implements Laminar's Server (Section 3.2): the layered
// Controller / Service / DAO architecture exposing every endpoint of
// Table 3 over JSON HTTP. Controllers parse requests and shape responses;
// the Service layer holds the business logic (resolving workflows for
// execution, running searches); the DAO layer is the registry store.
// Errors follow the standardized JSON format of Section 3.2.5.
//
// Searches have one path (query.go). The GET and POST forms of
// /registry/{user}/search, POST /registry/{user}/search/batch and the
// cluster shard leaf (ClusterSearchLocal) each hand plan a request and the
// queries it is asked over — a batch is N queries, a single search a batch
// of one — and plan returns it validated and concrete: types defaulted,
// mode resolved against the server's default, limit fixed, embedding
// widths checked. execute then runs cache lookup → embed → backend → cache
// fill under the request's context, where the backend is the cluster
// scatter on a coordinator (but for text queries, which its own registry
// answers) and registry.Store.Search everywhere else. No
// route resolves a mode, touches the cache or calls a backend itself, so
// none can lack what another has; TestOnePipeline holds that.
package server

import (
	"cmp"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"laminar/internal/cluster"
	"laminar/internal/core"
	"laminar/internal/dataflow"
	"laminar/internal/embed"
	"laminar/internal/engine"
	"laminar/internal/qcache"
	"laminar/internal/registry"
	"laminar/internal/telemetry"
)

// DefaultMaxBodyBytes caps request bodies when Config.MaxBodyBytes is 0.
// Generous for legitimate traffic — serialized PE/workflow code envelopes
// plus embeddings are tens of kilobytes — while keeping a hostile client
// from streaming gigabytes into a JSON decoder.
const DefaultMaxBodyBytes = 8 << 20

// shutdownGrace bounds how long Close waits for in-flight requests before
// forcing the listener down.
const shutdownGrace = 5 * time.Second

// Config assembles a server.
type Config struct {
	// Registry is the DAO layer; a fresh store is created when nil.
	Registry *registry.Store
	// Engine handles /execution requests; a default engine is created when
	// nil.
	Engine *engine.Engine
	// SearchMode is the default retrieval pipeline for semantic and code
	// queries when the request doesn't name one: core.ModeANN (the default
	// when empty), core.ModeHybrid or core.ModeReranked. Any other value
	// panics in New — a typo silently falling back to ANN would hide the
	// operator's intent.
	SearchMode string
	// MaxBodyBytes caps request body sizes (0 = DefaultMaxBodyBytes;
	// negative disables the limit).
	MaxBodyBytes int64
	// Telemetry is the metric registry the server (and its registry
	// store) report into; a fresh one is created when nil. Each server
	// needs its own — instrument names are registered once per telemetry
	// registry.
	Telemetry *telemetry.Registry
	// Metrics, when true, exposes the telemetry registry at GET /metrics
	// (Prometheus text format). Collection always runs — atomic counters
	// cost nothing worth flagging off — this only gates the endpoint.
	Metrics bool
	// MetricsAuthToken, when non-empty, requires scrapes to present it as
	// "Authorization: Bearer <token>"; other requests get 403.
	MetricsAuthToken string
	// MetricsAllow, when non-empty, lists CIDRs (e.g. "10.0.0.0/8") whose
	// source addresses may scrape without a token. Token and allowlist
	// compose as OR: either satisfies the guard. Both empty = open.
	MetricsAllow []string
	// Cluster, when set, makes this node a coordinator: semantic and code
	// searches — single, batched, or arriving through ClusterSearchLocal —
	// scatter-gather across the configured shards instead of probing the
	// local indexes. Text search and every other endpoint stay local.
	Cluster *cluster.Coordinator
	// CacheSize bounds the query-result cache in front of the query
	// pipeline, in entries (0 = caching off). A node has one cache.
	// Answers from this node's registry — all of them without Cluster,
	// the text ones with it — are tagged with the registry mutation epoch
	// and the vector indexes' retrain generation, so the cache can never
	// serve results computed against a world that has since changed. See
	// docs/search.md.
	CacheSize int
	// ClusterCacheTTL bounds staleness of a coordinator's cache: it cannot
	// observe its shards' mutation epochs, so its cached scatter results
	// expire by clock instead of by tag (0 = DefaultClusterCacheTTL;
	// negative = a coordinator caches nothing). Ignored without Cluster.
	ClusterCacheTTL time.Duration
	// DeltaMaxSegments and DeltaCompactRatio override the registry's
	// delta-journal compaction policy when > 0 (see
	// registry.DeltaPolicy and docs/storage.md).
	DeltaMaxSegments  int
	DeltaCompactRatio float64
}

// DefaultClusterCacheTTL bounds a coordinator's cache staleness when
// Config.ClusterCacheTTL is 0: long enough to absorb a hot-query burst,
// short enough that a shard-side write is visible within a beat.
const DefaultClusterCacheTTL = 2 * time.Second

// Server is the Laminar API server.
type Server struct {
	reg   *registry.Store
	eng   *engine.Engine
	mux   *http.ServeMux
	root  http.Handler // mux wrapped in the telemetry middleware
	cfg   Config
	httpS *http.Server
	addr  string

	telem       *telemetry.Registry
	httpReqs    *telemetry.CounterVec   // laminar_http_requests_total{route,code}
	httpLatency *telemetry.HistogramVec // laminar_http_request_seconds{route}

	// cache holds search results in front of the pipeline's backend
	// (query.go): tag-validated where this node's registry answered,
	// TTL-expired where a coordinator's scatter did. Nil when caching is
	// off.
	cache *qcache.Cache[[]core.SearchHit]

	// metricsAllow holds the parsed Config.MetricsAllow networks.
	metricsAllow []*net.IPNet
}

// New assembles the controller tree.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = registry.NewStore()
	}
	if cfg.Engine == nil {
		cfg.Engine = engine.New(engine.Config{})
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	s := &Server{reg: cfg.Registry, eng: cfg.Engine, cfg: cfg, mux: http.NewServeMux(), telem: cfg.Telemetry}
	s.httpReqs = s.telem.CounterVec("laminar_http_requests_total",
		"HTTP requests served, by matched route pattern and status code.", "route", "code")
	s.httpLatency = s.telem.HistogramVec("laminar_http_request_seconds",
		"HTTP request latency by matched route pattern.", telemetry.LatencyBuckets(), "route")
	// An owner that instrumented the store before handing it over (the
	// façade does, so its startup Load is counted) keeps its wiring.
	if !s.reg.Instrumented() {
		s.reg.SetTelemetry(s.telem)
	}
	// The execution engine's laminar_flow_* families register here too, at
	// startup, so /metrics advertises them (and the runbook sync holds)
	// before the first workflow runs.
	if !s.eng.Instrumented() {
		s.eng.SetTelemetry(s.telem)
	}
	// The laminar_cluster_* families register unconditionally — even a
	// plain single-node server advertises them (empty) on /metrics, which
	// is what keeps the docs/operations.md runbook sync that metrics-smoke
	// enforces valid for every deployment shape. A coordinator additionally
	// feeds them.
	clusterMetrics := cluster.NewMetrics(s.telem)
	if cfg.Cluster != nil {
		cfg.Cluster.SetMetrics(clusterMetrics)
	}
	// The laminar_cache_* families register unconditionally (same runbook
	// contract as the cluster families above), with both label values'
	// children from startup so a scrape shows zeros, not absence. A node
	// feeds one of them: it answers embedding queries either from its own
	// registry ("local") or by scatter ("coordinator"), never both. The
	// cache itself comes to life only with a CacheSize.
	cacheHits := s.telem.CounterVec("laminar_cache_hits_total",
		"Query-cache lookups answered from cache.", "cache")
	cacheMisses := s.telem.CounterVec("laminar_cache_misses_total",
		"Query-cache lookups that had to run the full retrieval pipeline.", "cache")
	cacheInvalidations := s.telem.CounterVec("laminar_cache_invalidations_total",
		"Query-cache entries dropped because their epoch/generation tag or TTL no longer matched.", "cache")
	cacheEvictions := s.telem.CounterVec("laminar_cache_evictions_total",
		"Query-cache entries evicted by the LRU capacity bound.", "cache")
	cacheEntries := s.telem.GaugeVec("laminar_cache_entries",
		"Live query-cache entries.", "cache")
	cacheMetrics := func(label string) qcache.Metrics {
		return qcache.Metrics{
			Hits:          cacheHits.With(label),
			Misses:        cacheMisses.With(label),
			Invalidations: cacheInvalidations.With(label),
			Evictions:     cacheEvictions.With(label),
			Entries:       cacheEntries.With(label),
		}
	}
	local, coordinator := cacheMetrics("local"), cacheMetrics("coordinator")
	opts := qcache.Options{MaxEntries: cfg.CacheSize, Metrics: local}
	if cfg.Cluster != nil {
		opts.Metrics = coordinator
		opts.TTL = cmp.Or(cfg.ClusterCacheTTL, DefaultClusterCacheTTL)
	}
	if opts.MaxEntries > 0 && opts.TTL >= 0 {
		s.cache = qcache.New[[]core.SearchHit](opts)
	}
	if cfg.DeltaMaxSegments > 0 || cfg.DeltaCompactRatio > 0 {
		s.reg.SetDeltaPolicy(registry.DeltaPolicy{
			MaxSegments:  cfg.DeltaMaxSegments,
			CompactRatio: cfg.DeltaCompactRatio,
		})
	}
	// Fail fast on a bad default search mode, same rationale as the CIDR
	// check below: configuration typos should stop the process, not
	// silently serve a different pipeline than the operator asked for.
	switch cfg.SearchMode {
	case "", core.ModeANN, core.ModeHybrid, core.ModeReranked:
	default:
		panic(fmt.Sprintf("server: bad -search-mode %q (want ann, hybrid or reranked)", cfg.SearchMode))
	}
	// Fail fast on an unparsable scrape allowlist: a typo silently skipped
	// would leave /metrics more open (or more closed) than configured.
	for _, cidr := range cfg.MetricsAllow {
		_, ipnet, err := net.ParseCIDR(strings.TrimSpace(cidr))
		if err != nil {
			panic(fmt.Sprintf("server: bad -metrics-allow CIDR %q: %v", cidr, err))
		}
		s.metricsAllow = append(s.metricsAllow, ipnet)
	}
	// Process-health gauges, evaluated at scrape time so idle servers pay
	// nothing between scrapes. See docs/operations.md for runbook guidance.
	s.telem.GaugeFunc("laminar_process_goroutines",
		"Live goroutines in the server process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	s.telem.GaugeFunc("laminar_process_heap_inuse_bytes",
		"Bytes of heap memory in active use (runtime MemStats HeapInuse).",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapInuse)
		})
	s.routes()
	s.root = s.instrument(s.mux)
	return s
}

// Registry exposes the DAO layer (tests, embedded mode).
func (s *Server) Registry() *registry.Store { return s.reg }

// Telemetry exposes the metric registry the server reports into (the
// /metrics endpoint serves exactly this).
func (s *Server) Telemetry() *telemetry.Registry { return s.telem }

// Handler returns the root HTTP handler (the controller tree wrapped in
// the per-route telemetry middleware).
func (s *Server) Handler() http.Handler { return s.root }

// instrument wraps the mux with per-route accounting: request counts by
// route pattern and status code, latency histograms by route pattern.
// The route label is the ServeMux pattern that matched ("POST
// /registry/{user}/search"), not the raw URL — bounded cardinality, and
// it aggregates across users by construction. Unmatched requests (404s
// from outside the route table) share one "unmatched" label.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		s.httpReqs.With(route, strconv.Itoa(rec.status)).Inc()
		s.httpLatency.With(route).ObserveSince(start)
	})
}

// statusRecorder captures the status code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Start listens on addr ("127.0.0.1:0" picks a free port) and serves in the
// background, returning the base URL.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.addr = "http://" + ln.Addr().String()
	s.httpS = &http.Server{Handler: s.root, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = s.httpS.Serve(ln) }()
	return s.addr, nil
}

// BaseURL returns the server root once started.
func (s *Server) BaseURL() string { return s.addr }

// Close stops the server gracefully: in-flight requests get up to
// shutdownGrace to complete (new connections are refused immediately);
// whatever is still running after that is cut off hard. The historic
// behavior — http.Server.Close dropping live requests mid-response — made
// every deployment restart a visible error for some client.
func (s *Server) Close() {
	if s.httpS == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := s.httpS.Shutdown(ctx); err != nil {
		_ = s.httpS.Close()
	}
}

// routes wires every Table 3 endpoint.
func (s *Server) routes() {
	// User controller
	s.mux.HandleFunc("GET /auth/all", s.handleUsers)
	s.mux.HandleFunc("POST /auth/login", s.handleLogin)
	s.mux.HandleFunc("POST /auth/register", s.handleRegister)

	// PE controller
	s.mux.HandleFunc("POST /registry/{user}/pe/add", s.withUser(s.handleAddPE))
	s.mux.HandleFunc("GET /registry/{user}/pe/all", s.withUser(s.handleAllPEs))
	s.mux.HandleFunc("GET /registry/{user}/pe/id/{id}", s.withUser(s.handlePEByID))
	s.mux.HandleFunc("GET /registry/{user}/pe/name/{name}", s.withUser(s.handlePEByName))
	s.mux.HandleFunc("DELETE /registry/{user}/pe/remove/id/{id}", s.withUser(s.handleRemovePEByID))
	s.mux.HandleFunc("DELETE /registry/{user}/pe/remove/name/{name}", s.withUser(s.handleRemovePEByName))

	// Workflow controller
	s.mux.HandleFunc("POST /registry/{user}/workflow/add", s.withUser(s.handleAddWorkflow))
	s.mux.HandleFunc("GET /registry/{user}/workflow/all", s.withUser(s.handleAllWorkflows))
	s.mux.HandleFunc("GET /registry/{user}/workflow/id/{id}", s.withUser(s.handleWorkflowByID))
	s.mux.HandleFunc("GET /registry/{user}/workflow/name/{name}", s.withUser(s.handleWorkflowByName))
	s.mux.HandleFunc("GET /registry/{user}/workflow/pes/id/{id}", s.withUser(s.handleWorkflowPEsByID))
	s.mux.HandleFunc("GET /registry/{user}/workflow/pes/name/{name}", s.withUser(s.handleWorkflowPEsByName))
	s.mux.HandleFunc("DELETE /registry/{user}/workflow/remove/id/{id}", s.withUser(s.handleRemoveWorkflowByID))
	s.mux.HandleFunc("DELETE /registry/{user}/workflow/remove/name/{name}", s.withUser(s.handleRemoveWorkflowByName))
	s.mux.HandleFunc("PUT /registry/{user}/workflow/{workflowId}/pe/{peId}", s.withUser(s.handleAssociatePE))

	// Registry controller
	s.mux.HandleFunc("GET /registry/{user}/all", s.withUser(s.handleRegistryAll))
	s.mux.HandleFunc("GET /registry/{user}/search/{search}/type/{type}", s.withUser(s.handleSearch))
	s.mux.HandleFunc("POST /registry/{user}/search", s.withUser(s.handleSearchPost))
	s.mux.HandleFunc("POST /registry/{user}/search/batch", s.withUser(s.handleSearchBatch))

	// Execution controller
	s.mux.HandleFunc("POST /execution/{user}/run", s.withUser(s.handleRun))

	// Observability. Flag-gated: a deployment that does not want the
	// operational surface reachable simply leaves it off; collection runs
	// either way. See docs/operations.md for the metric reference.
	if s.cfg.Metrics {
		s.mux.Handle("GET /metrics", s.guardMetrics(s.telem.Handler()))
	}
}

// guardMetrics wraps the /metrics endpoint in the optional scrape
// protection: a bearer token, a source-CIDR allowlist, or both (OR'd).
// With neither configured the endpoint stays open, as before.
func (s *Server) guardMetrics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		token := s.cfg.MetricsAuthToken
		if token == "" && len(s.metricsAllow) == 0 {
			next.ServeHTTP(w, r)
			return
		}
		if token != "" {
			got := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
			if subtle.ConstantTimeCompare([]byte(got), []byte(token)) == 1 {
				next.ServeHTTP(w, r)
				return
			}
		}
		if len(s.metricsAllow) > 0 {
			host, _, err := net.SplitHostPort(r.RemoteAddr)
			if err != nil {
				host = r.RemoteAddr
			}
			if ip := net.ParseIP(host); ip != nil {
				for _, n := range s.metricsAllow {
					if n.Contains(ip) {
						next.ServeHTTP(w, r)
						return
					}
				}
			}
		}
		writeJSON(w, http.StatusForbidden,
			&core.APIError{Type: "ForbiddenError", Code: http.StatusForbidden, Message: "metrics scrape rejected: present the bearer token or scrape from an allowed network"})
	})
}

// ---- plumbing ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr maps an error to the standardized JSON error body and the
// matching HTTP status. errors.As (not a bare type assertion) so an
// APIError that picked up wrapping layers on the way out of the service
// stack still reaches the client with its real status instead of a
// blanket 500; an oversize body surfaces as 413 even when it was detected
// somewhere other than decodeBody.
func writeErr(w http.ResponseWriter, err error) {
	var apiErr *core.APIError
	if errors.As(err, &apiErr) {
		writeJSON(w, apiErr.HTTPStatus(), apiErr)
		return
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			core.ErrTooLarge("body", "request body exceeds the %d-byte limit", tooBig.Limit))
		return
	}
	writeJSON(w, http.StatusInternalServerError, core.ErrInternal("%v", err))
}

// decodeBody parses a JSON request body under the configured size cap.
// Every body-accepting controller funnels through here, so no handler can
// forget the MaxBytesReader wrap (which also hard-stops the underlying
// read, protecting the connection, not just the decoder).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	limit := s.cfg.MaxBodyBytes
	if limit == 0 {
		limit = DefaultMaxBodyBytes
	}
	if limit > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return core.ErrTooLarge("body", "request body exceeds the %d-byte limit", tooBig.Limit)
		}
		return core.ErrBadRequest("body", "invalid JSON: %v", err)
	}
	return nil
}

// withUser resolves the {user} path segment to a user record before the
// controller body runs.
func (s *Server) withUser(h func(w http.ResponseWriter, r *http.Request, user *core.UserRecord)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("user")
		user, err := s.reg.UserByName(name)
		if err != nil {
			writeErr(w, err)
			return
		}
		h(w, r, user)
	}
}

func pathInt(r *http.Request, key string) (int, error) {
	raw := r.PathValue(key)
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, core.ErrBadRequest(key, "%q is not an integer id", raw)
	}
	return n, nil
}

// ---- User controller ----

func (s *Server) handleUsers(w http.ResponseWriter, r *http.Request) {
	users := s.reg.Users()
	// never expose password hashes
	writeJSON(w, http.StatusOK, users)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req core.RegisterUserRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	u, err := s.reg.RegisterUser(req.UserName, req.Password)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, core.AuthResponse{UserID: u.UserID, UserName: u.UserName})
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	var req core.LoginRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	u, token, err := s.reg.Login(req.UserName, req.Password)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, core.AuthResponse{UserID: u.UserID, UserName: u.UserName, Token: token})
}

// ---- PE controller ----

// checkEmbeddingDim enforces the bi-encoder registration contract at the
// controller: an embedding is either absent or exactly embed.Dim wide.
// A mis-sized vector would be stored verbatim and then silently score only
// its common prefix against every query — a correctness bug that looks
// like mysteriously-bad recall. Rejecting at the boundary names the field
// and the expected width instead. (The registry layer itself stays
// width-agnostic: its unit tests exercise small toy vectors.)
func checkEmbeddingDim(field string, v []float32) *core.APIError {
	if len(v) != 0 && len(v) != embed.Dim {
		return core.ErrBadRequest(field, "embedding has dimension %d, want %d", len(v), embed.Dim)
	}
	return nil
}

func (s *Server) handleAddPE(w http.ResponseWriter, r *http.Request, user *core.UserRecord) {
	var req core.AddPERequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if err := checkEmbeddingDim("codeEmbedding", req.CodeEmbedding); err != nil {
		writeErr(w, err)
		return
	}
	if err := checkEmbeddingDim("descEmbedding", req.DescEmbedding); err != nil {
		writeErr(w, err)
		return
	}
	pe, err := s.reg.AddPE(user.UserID, req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, pe)
}

func (s *Server) handleAllPEs(w http.ResponseWriter, r *http.Request, user *core.UserRecord) {
	writeJSON(w, http.StatusOK, s.reg.PEsForUser(user.UserID))
}

func (s *Server) handlePEByID(w http.ResponseWriter, r *http.Request, user *core.UserRecord) {
	id, err := pathInt(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	pe, err := s.reg.PEByID(user.UserID, id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, pe)
}

func (s *Server) handlePEByName(w http.ResponseWriter, r *http.Request, user *core.UserRecord) {
	pe, err := s.reg.PEByName(user.UserID, r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, pe)
}

func (s *Server) handleRemovePEByID(w http.ResponseWriter, r *http.Request, user *core.UserRecord) {
	id, err := pathInt(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := s.reg.RemovePE(user.UserID, id); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "removed"})
}

func (s *Server) handleRemovePEByName(w http.ResponseWriter, r *http.Request, user *core.UserRecord) {
	if err := s.reg.RemovePEByName(user.UserID, r.PathValue("name")); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "removed"})
}

// ---- Workflow controller ----

func (s *Server) handleAddWorkflow(w http.ResponseWriter, r *http.Request, user *core.UserRecord) {
	var req core.AddWorkflowRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if err := checkEmbeddingDim("descEmbedding", req.DescEmbedding); err != nil {
		writeErr(w, err)
		return
	}
	// Registration-time dataflow lint (ROADMAP item 4): workflow code that
	// builds into a graph must pass Graph.Lint, so defective dataflows —
	// cycles, dangling ports, ambiguous roots — are rejected here with a
	// named defect instead of failing at run time. Code the engine cannot
	// even decode as a workflow envelope (legacy opaque blobs) registers
	// unchecked, as before.
	issues, err := s.eng.LintWorkflow(req.WorkflowCode)
	if err != nil {
		writeErr(w, err)
		return
	}
	if len(issues) > 0 {
		writeErr(w, core.ErrBadRequest("workflowCode", "workflow failed dataflow lint: %s", dataflow.LintSummary(issues)))
		return
	}
	wf, err := s.reg.AddWorkflow(user.UserID, req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, wf)
}

func (s *Server) handleAllWorkflows(w http.ResponseWriter, r *http.Request, user *core.UserRecord) {
	writeJSON(w, http.StatusOK, s.reg.WorkflowsForUser(user.UserID))
}

func (s *Server) handleWorkflowByID(w http.ResponseWriter, r *http.Request, user *core.UserRecord) {
	id, err := pathInt(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	wf, err := s.reg.WorkflowByID(user.UserID, id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wf)
}

func (s *Server) handleWorkflowByName(w http.ResponseWriter, r *http.Request, user *core.UserRecord) {
	wf, err := s.reg.WorkflowByName(user.UserID, r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wf)
}

func (s *Server) handleWorkflowPEsByID(w http.ResponseWriter, r *http.Request, user *core.UserRecord) {
	id, err := pathInt(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	pes, err := s.reg.PEsByWorkflow(user.UserID, id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, pes)
}

func (s *Server) handleWorkflowPEsByName(w http.ResponseWriter, r *http.Request, user *core.UserRecord) {
	wf, err := s.reg.WorkflowByName(user.UserID, r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	pes, err := s.reg.PEsByWorkflow(user.UserID, wf.WorkflowID)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, pes)
}

func (s *Server) handleRemoveWorkflowByID(w http.ResponseWriter, r *http.Request, user *core.UserRecord) {
	id, err := pathInt(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := s.reg.RemoveWorkflow(user.UserID, id); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "removed"})
}

func (s *Server) handleRemoveWorkflowByName(w http.ResponseWriter, r *http.Request, user *core.UserRecord) {
	if err := s.reg.RemoveWorkflowByName(user.UserID, r.PathValue("name")); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "removed"})
}

func (s *Server) handleAssociatePE(w http.ResponseWriter, r *http.Request, user *core.UserRecord) {
	wfID, err := pathInt(r, "workflowId")
	if err != nil {
		writeErr(w, err)
		return
	}
	peID, err := pathInt(r, "peId")
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := s.reg.AssociatePE(user.UserID, wfID, peID); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "associated"})
}

// ---- Registry controller ----

func (s *Server) handleRegistryAll(w http.ResponseWriter, r *http.Request, user *core.UserRecord) {
	writeJSON(w, http.StatusOK, s.reg.Listing(user.UserID))
}

// ---- Execution controller ----

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request, user *core.UserRecord) {
	var req core.ExecutionRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	resp, err := s.Execute(user, req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// Execute is the Service-layer execution path: resolve registered
// workflows to code, then hand the self-contained request to the engine.
func (s *Server) Execute(user *core.UserRecord, req core.ExecutionRequest) (*core.ExecutionResponse, error) {
	if req.WorkflowCode == "" {
		var wf *core.WorkflowRecord
		var err error
		switch {
		case req.WorkflowID != 0:
			wf, err = s.reg.WorkflowByID(user.UserID, req.WorkflowID)
		case req.WorkflowName != "":
			wf, err = s.reg.WorkflowByName(user.UserID, req.WorkflowName)
		default:
			return nil, core.ErrBadRequest("workflow", "request names no workflow and carries no code")
		}
		if err != nil {
			return nil, err
		}
		req.WorkflowCode = wf.WorkflowCode
	}
	return s.eng.Execute(req)
}
