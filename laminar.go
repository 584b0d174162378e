// Package laminar is the public façade of the Laminar reproduction: a
// serverless stream-based processing framework with semantic code search
// and code completion (Zahra, Li, Filgueira — WORKS/SC 2023), rebuilt in Go
// from scratch on a dispel4py-style dataflow engine.
//
// The façade wires the subsystems together for embedders:
//
//	srv := laminar.NewServer(laminar.ServerOptions{})
//	url, _ := srv.Start("127.0.0.1:0")
//	cli := laminar.NewClient(url)
//	cli.Register("zz46", "password")
//	cli.Run(source, laminar.RunOptions{Input: 5, Process: "MULTI"})
//
// Subsystem packages live under internal/: the dataflow engine and its four
// mappings, the pycode interpreter, the registry, the HTTP server, the
// execution engine, the embedding-model zoo and the search mechanisms.
package laminar

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"time"

	"laminar/internal/client"
	"laminar/internal/cluster"
	"laminar/internal/core"
	"laminar/internal/dataflow"
	"laminar/internal/engine"
	"laminar/internal/index"
	"laminar/internal/registry"
	"laminar/internal/server"
	"laminar/internal/telemetry"
	"laminar/internal/votable"
)

// Re-exported domain types.
type (
	// Client is the dual-layer Laminar client (Section 3.4).
	Client = client.Client
	// RunOptions parameterize Client.Run, mirroring client.run(...) of the
	// paper.
	RunOptions = client.RunOptions
	// PERecord is a registered Processing Element (Table 2).
	PERecord = core.PERecord
	// WorkflowRecord is a registered workflow (Table 2).
	WorkflowRecord = core.WorkflowRecord
	// SearchHit is a ranked search result (Figures 6-8).
	SearchHit = core.SearchHit
	// APIError is the standardized server error (Section 3.2.5).
	APIError = core.APIError
	// ExecutionResponse is the engine's run reply (Fig. 9).
	ExecutionResponse = core.ExecutionResponse
)

// Search constants.
const (
	SearchPEs       = core.SearchPEs
	SearchWorkflows = core.SearchWorkflows
	SearchBoth      = core.SearchBoth
	QueryText       = core.QueryText
	QuerySemantic   = core.QuerySemantic
	QueryCode       = core.QueryCode
	// Retrieval modes for semantic and code queries (ServerOptions.SearchMode
	// and the per-request "mode" field — see docs/search.md).
	ModeANN      = core.ModeANN
	ModeHybrid   = core.ModeHybrid
	ModeReranked = core.ModeReranked
)

// ServerOptions configure a full Laminar deployment.
type ServerOptions struct {
	// RegistryLatency simulates the WAN round trip to the remote registry
	// service the paper hosts on the web.
	RegistryLatency time.Duration
	// VOBaseURL points PE science modules at a Virtual Observatory
	// simulator; empty answers cone queries locally.
	VOBaseURL string
	// InstallDelayScale scales simulated library install latencies
	// (0 = instant, 1 = realistic).
	InstallDelayScale float64
	// RegistryPath, when non-empty, loads the registry from this snapshot
	// file at start (if it exists); call SaveRegistry to persist. A legacy
	// v1 file loads too and is a v2 pair after the first save (see
	// docs/storage.md).
	RegistryPath string
	// Index selects the vector index backing semantic search and code
	// completion: "flat" (exact brute force, the default) or "clustered"
	// (IVF-style approximate index with sublinear probes).
	Index string
	// IndexCentroids fixes the clustered index's shard count (0 = auto,
	// ~sqrt(N)). Ignored by the flat index.
	IndexCentroids int
	// IndexNProbe is how many shards a clustered query scans (0 = auto);
	// nprobe >= centroids makes clustered search exact. With a recall
	// target set a nonzero value is the adaptive probe loop's floor
	// instead (the auto floor is 1).
	IndexNProbe int
	// IndexRecallTarget, in (0, 1], switches clustered probing to per-query
	// adaptive widening aimed at that recall: probing stops once the
	// kth-best candidate provably (at 1.0, absent an IndexMaxProbe cap) or
	// approximately (below it) beats everything an unprobed shard could
	// hold. 0 keeps the fixed nprobe policy. See docs/search.md.
	IndexRecallTarget float64
	// IndexMaxProbe caps the shards an adaptive query may scan — a hard
	// latency budget that overrides the recall target, including 1.0's
	// exactness (0 = no cap). Ignored without a recall target.
	IndexMaxProbe int
	// IndexSpill, when > 0, replicates near-boundary vectors into their
	// second-nearest shard (spilled/overlapping assignment): a vector
	// spills when its second-nearest centroid is within (1+IndexSpill)
	// times the distance of its nearest.
	IndexSpill float64
	// IndexOverfetch, when > 1, widens the int8-scored candidate pool to
	// k*IndexOverfetch before the exact rescore picks the final top-k.
	// It engages only with IndexQuantize.
	IndexOverfetch int
	// IndexQuantize maintains int8 quantized companions of the clustered
	// index's vectors and scores the candidate pass with cheap int8 dot
	// products; the final top-k is always exact-rescored from float32.
	// Bypassed at IndexRecallTarget 1.0, whose exactness needs exact
	// scores. See docs/vecmath.md.
	IndexQuantize bool
	// SearchMode is the default retrieval pipeline for semantic and code
	// queries: "ann" (pure vector index, the default when empty), "hybrid"
	// (ANN + BM25 lexical leg fused with reciprocal-rank fusion) or
	// "reranked" (hybrid plus a cross-encoder rerank of the fused pool).
	// Requests can override it per query. See docs/search.md.
	SearchMode string
	// IndexRetrainCooldown, when > 0, rate-limits automatic clustered
	// retrains: triggers within the window of the last launch coalesce
	// into a single deferred retrain, so a churn burst cannot retrain
	// back-to-back indefinitely. See docs/operations.md for tuning.
	IndexRetrainCooldown time.Duration
	// Metrics, when true, exposes the telemetry registry at GET /metrics
	// (Prometheus text format; see docs/operations.md for the metric
	// reference). Collection always runs; this only gates the endpoint.
	Metrics bool
	// MetricsAuthToken, when non-empty, protects /metrics: scrapes must
	// present it as "Authorization: Bearer <token>" or come from a
	// MetricsAllow network; everything else gets 403.
	MetricsAuthToken string
	// MetricsAllow lists CIDRs (e.g. "10.0.0.0/8") allowed to scrape
	// /metrics without a token. Composes with MetricsAuthToken as OR.
	MetricsAllow []string
	// ClusterPeers, when non-empty, makes this node a cluster coordinator:
	// semantic and code searches scatter-gather across the listed shard
	// nodes and merge into one global ranking. Syntax:
	// "name=primaryURL[|replicaURL...]" comma-separated — see
	// docs/cluster.md. Shard nodes themselves run WITHOUT this option.
	ClusterPeers string
	// ClusterShardTimeout bounds each shard's contribution to a fan-out
	// (0 = the cluster default, 2s). One slow shard delays a query by at
	// most this much; past it the reply is partial and flagged degraded.
	ClusterShardTimeout time.Duration
	// ClusterHedgeDelay, when > 0, hedges slow primaries: a shard's read
	// replica is queried too once the primary has been silent this long,
	// and the first answer wins (0 = hedging off; replicas still serve as
	// failover targets).
	ClusterHedgeDelay time.Duration
	// ReadOnlyReplica locks the registry read-only after the startup load:
	// the node serves searches and reads from its restored snapshot and
	// rejects every write with 403 — the cluster's stateless query-replica
	// mode (see docs/cluster.md).
	ReadOnlyReplica bool
	// FlowQueueCap bounds each PE instance's input queue during workflow
	// enactment (0 = the dataflow default, 1024). Senders park when a
	// downstream queue fills — backpressure instead of unbounded memory;
	// see docs/dataflow.md.
	FlowQueueCap int
	// FlowAlloc selects how the parallel mappings divide the process
	// budget into PE instances: "even" (the paper's split, the default)
	// or "weighted" (proportional to per-PE cost measured by telemetry
	// across runs). See docs/dataflow.md.
	FlowAlloc string
	// CacheSize bounds the generation-tagged query-result cache, in
	// entries (0 = caching off). Cached semantic/code results carry the
	// registry mutation epoch + index retrain generation they were
	// computed against and are invalidated the moment either moves, so
	// hot repeated queries short-circuit the ANN walk without ever
	// serving stale rankings. See docs/search.md.
	CacheSize int
	// ClusterCacheTTL bounds staleness of a coordinator's cache (shard
	// epochs are invisible to the coordinator, so its entries expire by
	// clock). 0 = the server default (2s); negative = a coordinator
	// caches nothing. Ignored without ClusterPeers.
	ClusterCacheTTL time.Duration
	// DeltaMaxSegments caps how many delta-journal segments may
	// accumulate before SaveDelta compacts the chain into a full v2
	// snapshot (0 = the registry default, 64). See docs/storage.md.
	DeltaMaxSegments int
	// DeltaCompactRatio compacts the delta chain once its on-disk size
	// (or the dirty fraction of the corpus) exceeds this ratio of the
	// base snapshot (0 = the registry default, 0.5).
	DeltaCompactRatio float64
}

// Server is a full Laminar deployment: registry + API server + embedded
// execution engine.
type Server struct {
	*server.Server
	registryPath string
}

// Validate reports the first option that is out of range or unparsable.
// NewServer panics on it and laminar-server exits on it, so an embedder's
// typo and an operator's fail the same way, before anything is served.
// The zero value is valid.
func (o ServerOptions) Validate() error {
	inUnit := func(x float64) bool { return x >= 0 && x <= 1 } // false for NaN
	switch {
	case o.Index != "" && o.Index != "flat" && o.Index != "clustered":
		return fmt.Errorf("unknown Index %q (want flat or clustered)", o.Index)
	case !inUnit(o.IndexRecallTarget):
		return fmt.Errorf("IndexRecallTarget %g out of range (want 0, or a target in (0,1])", o.IndexRecallTarget)
	case !(o.IndexSpill >= 0):
		return fmt.Errorf("IndexSpill %g out of range (want >= 0)", o.IndexSpill)
	case o.IndexRetrainCooldown < 0:
		return fmt.Errorf("IndexRetrainCooldown %v out of range (want >= 0)", o.IndexRetrainCooldown)
	case o.SearchMode != "" && o.SearchMode != ModeANN && o.SearchMode != ModeHybrid && o.SearchMode != ModeReranked:
		return fmt.Errorf("unknown SearchMode %q (want ann, hybrid or reranked)", o.SearchMode)
	case o.FlowQueueCap < 0:
		return fmt.Errorf("FlowQueueCap %d out of range (want >= 0)", o.FlowQueueCap)
	case o.ClusterShardTimeout < 0:
		return fmt.Errorf("ClusterShardTimeout %v out of range (want >= 0)", o.ClusterShardTimeout)
	case o.ClusterHedgeDelay < 0:
		return fmt.Errorf("ClusterHedgeDelay %v out of range (want >= 0)", o.ClusterHedgeDelay)
	case o.ReadOnlyReplica && o.RegistryPath == "":
		return errors.New("ReadOnlyReplica needs RegistryPath: a read-only replica serves a restored snapshot")
	case o.CacheSize < 0:
		return fmt.Errorf("CacheSize %d out of range (want >= 0)", o.CacheSize)
	case o.DeltaMaxSegments < 0:
		return fmt.Errorf("DeltaMaxSegments %d out of range (want >= 0)", o.DeltaMaxSegments)
	case !inUnit(o.DeltaCompactRatio):
		return fmt.Errorf("DeltaCompactRatio %g out of range (want 0, or a ratio in (0,1])", o.DeltaCompactRatio)
	}
	if _, err := dataflow.ParseAllocMode(o.FlowAlloc); err != nil {
		return fmt.Errorf("FlowAlloc: %w", err)
	}
	if o.ClusterPeers != "" {
		if _, err := cluster.ParseShards(o.ClusterPeers); err != nil {
			return fmt.Errorf("ClusterPeers: %w", err)
		}
	}
	for _, cidr := range o.MetricsAllow {
		if _, _, err := net.ParseCIDR(cidr); err != nil {
			return fmt.Errorf("MetricsAllow: bad CIDR %q", cidr)
		}
	}
	return nil
}

// NewServer assembles a deployment. It panics on options Validate rejects.
func NewServer(opts ServerOptions) *Server {
	if err := opts.Validate(); err != nil {
		panic(fmt.Sprintf("laminar: ServerOptions: %v", err))
	}
	reg := registry.NewStore()
	// Select the index kind before loading: a registry file persisted by a
	// clustered deployment then restores its trained centroids directly
	// into a clustered index, instead of being rebuilt flat and retrained.
	if opts.Index == "clustered" {
		cfg := index.ClusteredConfig{
			Centroids:       opts.IndexCentroids,
			NProbe:          opts.IndexNProbe,
			RecallTarget:    opts.IndexRecallTarget,
			MaxProbe:        opts.IndexMaxProbe,
			SpillRatio:      opts.IndexSpill,
			Overfetch:       opts.IndexOverfetch,
			Quantize:        opts.IndexQuantize,
			RetrainCooldown: opts.IndexRetrainCooldown,
		}
		reg.ConfigureIndex(func() index.VectorIndex { return index.NewClustered(cfg) })
	}
	// Instrument before loading so the startup Load (and any index work it
	// triggers) lands in the telemetry the deployment will serve.
	telem := telemetry.NewRegistry()
	reg.SetTelemetry(telem)
	if opts.RegistryPath != "" {
		// Absent file = fresh start; any other failure (corrupt/truncated
		// JSON) must refuse to boot — silently serving an empty registry
		// would let the shutdown Save overwrite a recoverable file with
		// nothing.
		if err := reg.Load(opts.RegistryPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
			panic(fmt.Sprintf("laminar: loading registry %s: %v (refusing to start empty over a damaged file)", opts.RegistryPath, err))
		}
	}
	if opts.ReadOnlyReplica {
		reg.SetReadOnly(true)
	}
	reg.SetLatency(opts.RegistryLatency)
	var coord *cluster.Coordinator
	if opts.ClusterPeers != "" {
		shards, _ := cluster.ParseShards(opts.ClusterPeers) // Validate parsed it
		var err error
		coord, err = cluster.NewCoordinator(cluster.CoordinatorConfig{
			Shards:       shards,
			ShardTimeout: opts.ClusterShardTimeout,
			HedgeDelay:   opts.ClusterHedgeDelay,
		})
		if err != nil {
			panic(fmt.Sprintf("laminar: ServerOptions.ClusterPeers: %v", err))
		}
	}
	allocMode, _ := dataflow.ParseAllocMode(opts.FlowAlloc) // Validate parsed it
	eng := engine.New(engine.Config{
		VOBaseURL:         opts.VOBaseURL,
		InstallDelayScale: opts.InstallDelayScale,
		FlowQueueCap:      opts.FlowQueueCap,
		FlowAlloc:         allocMode,
	})
	s := server.New(server.Config{
		Registry:          reg,
		Engine:            eng,
		SearchMode:        opts.SearchMode,
		Metrics:           opts.Metrics,
		MetricsAuthToken:  opts.MetricsAuthToken,
		MetricsAllow:      opts.MetricsAllow,
		Telemetry:         telem,
		Cluster:           coord,
		CacheSize:         opts.CacheSize,
		ClusterCacheTTL:   opts.ClusterCacheTTL,
		DeltaMaxSegments:  opts.DeltaMaxSegments,
		DeltaCompactRatio: opts.DeltaCompactRatio,
	})
	return &Server{Server: s, registryPath: opts.RegistryPath}
}

// SaveRegistry persists the registry when a path was configured.
func (s *Server) SaveRegistry() error {
	if s.registryPath == "" {
		return nil
	}
	return s.Registry().Save(s.registryPath)
}

// NewClient creates a client for a running server.
func NewClient(serverURL string) *Client { return client.New(serverURL) }

// NewLocalEngine creates an in-process execution engine for the client's
// local-execution mode.
func NewLocalEngine(voBaseURL string) *engine.Engine {
	return engine.New(engine.Config{VOBaseURL: voBaseURL, InstallDelayScale: 1})
}

// NewRemoteEngine starts a standalone remote execution engine (the Azure
// deployment of Table 5) with a simulated WAN latency, returning the server
// and its URL.
func NewRemoteEngine(voBaseURL string, wanLatency time.Duration) (*engine.RemoteServer, string, error) {
	eng := engine.New(engine.Config{VOBaseURL: voBaseURL, InstallDelayScale: 1})
	rs := engine.NewRemoteServer(eng, wanLatency)
	url, err := rs.Start("127.0.0.1:0")
	return rs, url, err
}

// NewVOService starts a Virtual Observatory simulator with the given
// per-request latency, returning the service and its base URL.
func NewVOService(latency time.Duration) (*votable.Service, string, error) {
	svc := votable.NewService(latency)
	url, err := svc.Start("127.0.0.1:0")
	return svc, url, err
}
