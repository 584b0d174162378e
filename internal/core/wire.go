package core

// Wire types: JSON request/response bodies for the Table 3 endpoints.

// RegisterUserRequest is the body of POST /auth/register.
type RegisterUserRequest struct {
	UserName string `json:"userName"`
	Password string `json:"password"`
}

// LoginRequest is the body of POST /auth/login.
type LoginRequest struct {
	UserName string `json:"userName"`
	Password string `json:"password"`
}

// AuthResponse returns the authenticated user and session token.
type AuthResponse struct {
	UserID   int    `json:"userId"`
	UserName string `json:"userName"`
	Token    string `json:"token"`
}

// AddPERequest is the body of POST /registry/{user}/pe/add.
type AddPERequest struct {
	// PEID, when > 0, pins the new record's id instead of letting the
	// registry assign one. Cluster write routing depends on it: the
	// coordinator assigns globally unique ids and consistent-hashes them
	// to shards, so the id must survive the trip. A taken id is a
	// conflict, not a reassignment.
	PEID        int      `json:"peId,omitempty"`
	PEName      string   `json:"peName"`
	Description string   `json:"description,omitempty"`
	PECode      string   `json:"peCode"` // serialized envelope
	PEImports   []string `json:"peImports,omitempty"`
	// Embeddings are computed client-side at registration (Section 3.1.1)
	// so searches never recompute them.
	CodeEmbedding []float32 `json:"codeEmbedding,omitempty"`
	DescEmbedding []float32 `json:"descEmbedding,omitempty"`
	// AutoSummarized marks descriptions produced by the summarizer.
	AutoSummarized bool `json:"autoSummarized,omitempty"`
}

// AddWorkflowRequest is the body of POST /registry/{user}/workflow/add.
type AddWorkflowRequest struct {
	// WorkflowID, when > 0, pins the new record's id (see
	// AddPERequest.PEID — the cluster write router depends on it).
	WorkflowID   int    `json:"workflowId,omitempty"`
	WorkflowName string `json:"workflowName"`
	EntryPoint   string `json:"entryPoint"`
	Description  string `json:"description,omitempty"`
	WorkflowCode string `json:"workflowCode"`
	// DescEmbedding is the client-computed description embedding (bi-encoder
	// contract: embedded once at registration, only compared afterwards).
	DescEmbedding []float32 `json:"descEmbedding,omitempty"`
	// PEIDs associates already-registered PEs with the workflow.
	PEIDs []int `json:"peIds,omitempty"`
}

// ExecutionRequest is the body of POST /execution/{user}/run (Section 3.3):
// the complete serverless execution envelope.
type ExecutionRequest struct {
	// Workflow selects what to run: either a registered workflow by name/id
	// or inline serialized code.
	WorkflowName string `json:"workflowName,omitempty"`
	WorkflowID   int    `json:"workflowId,omitempty"`
	WorkflowCode string `json:"workflowCode,omitempty"` // inline envelope
	// Input is the producer iteration count (int) or initial input records
	// ([]map[string]any), mirroring client.run(input=...).
	Input any `json:"input,omitempty"`
	// Process selects the mapping: SIMPLE, MULTI, MPI, REDIS.
	Process string `json:"process,omitempty"`
	// Args carries runtime arguments; args["num"] is the process count.
	Args map[string]any `json:"args,omitempty"`
	// Imports lists libraries the workflow needs (auto-detected by the
	// client); the engine installs missing ones.
	Imports []string `json:"imports,omitempty"`
	// Resources maps file names to base64 file contents staged into the
	// engine's resources directory.
	Resources map[string]string `json:"resources,omitempty"`
	// Seed makes the engine's random module deterministic when non-zero.
	Seed int64 `json:"seed,omitempty"`
}

// ExecutionResponse is the engine's reply (the Fig. 9 output envelope).
type ExecutionResponse struct {
	// Output is the combined stdout of all PE instances.
	Output string `json:"output"`
	// Summary is the run account (mapping, instance allocation, counts).
	Summary string `json:"summary"`
	// Outputs carries values emitted on unconnected ports, keyed "PE.port".
	Outputs map[string][]any `json:"outputs,omitempty"`
	// DurationMS is the enactment wall-clock in milliseconds.
	DurationMS float64 `json:"durationMs"`
	// InstalledLibraries lists libraries the engine auto-installed.
	InstalledLibraries []string `json:"installedLibraries,omitempty"`
}

// RegistryListing is the reply of GET /registry/{user}/all.
type RegistryListing struct {
	PEs       []PERecord       `json:"pes"`
	Workflows []WorkflowRecord `json:"workflows"`
}

// Search modes: the retrieval pipeline a semantic or code query runs.
const (
	// ModeANN is pure vector-index retrieval (the default).
	ModeANN = "ann"
	// ModeHybrid adds the BM25 lexical leg and fuses the two rankings
	// with reciprocal-rank fusion.
	ModeHybrid = "hybrid"
	// ModeReranked is hybrid plus a cross-encoder rerank of the fused
	// candidate pool.
	ModeReranked = "reranked"
)

// SearchRequest parameterizes GET /registry/{user}/search/{search}/type/{type}
// (the query type travels as a query parameter).
type SearchRequest struct {
	Search     string     `json:"search"`
	SearchType SearchType `json:"searchType"`
	QueryType  QueryType  `json:"queryType"`
	// QueryEmbedding carries the client-computed embedding for semantic and
	// code queries (bi-encoder: the client embeds, the server compares).
	QueryEmbedding []float32 `json:"queryEmbedding,omitempty"`
	// Limit caps the number of hits (0 = server default).
	Limit int `json:"limit,omitempty"`
	// Mode selects the retrieval pipeline for semantic and code queries:
	// ModeANN, ModeHybrid or ModeReranked. Empty defers to the server's
	// configured default. Text queries ignore it.
	Mode string `json:"mode,omitempty"`
}

// SearchResponse is the ranked hit list.
type SearchResponse struct {
	Hits []SearchHit `json:"hits"`
	// Degraded, on a cluster coordinator's reply, marks a partial result:
	// at least one shard contributed nothing (down, timed out, or
	// failed), so Hits covers only the shards that answered.
	Degraded bool `json:"degraded,omitempty"`
}

// SearchBatchRequest is the body of POST /registry/{user}/search/batch:
// many queries of one shape answered in one round trip.
// It mirrors SearchRequest field for field, with lists where that has one
// query, and every list it returns is what SearchRequest would have
// returned for that query.
type SearchBatchRequest struct {
	// QueryType is semantic (the default), code or text.
	QueryType QueryType `json:"queryType,omitempty"`
	// SearchType selects PEs (the default), workflows or both.
	SearchType SearchType `json:"searchType,omitempty"`
	// Mode selects the retrieval pipeline as SearchRequest.Mode does;
	// empty defers to the server's configured default.
	Mode string `json:"mode,omitempty"`
	// Queries carries the query texts: embedded server-side where
	// QueryEmbeddings has no vector for them, and the lexical and rerank
	// input of the hybrid modes either way.
	Queries []string `json:"queries,omitempty"`
	// QueryEmbeddings carries client-computed embeddings (bi-encoder
	// contract: the client embeds, the server compares), index-aligned
	// with Queries. When present it says how many queries the batch has.
	QueryEmbeddings [][]float32 `json:"queryEmbeddings,omitempty"`
	// Limit caps each query's hit list (0 = server default).
	Limit int `json:"limit,omitempty"`
}

// SearchBatchResponse carries one ranked hit list per query, index-aligned
// with the request's queries.
type SearchBatchResponse struct {
	Results [][]SearchHit `json:"results"`
	// Degraded is SearchResponse.Degraded for the batch: at least one of
	// the lists is a partial view.
	Degraded bool `json:"degraded,omitempty"`
}
