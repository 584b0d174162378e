package main

import (
	"flag"
	"fmt"
	"net"
	"strings"
	"time"

	"laminar"
	"laminar/internal/cluster"
	"laminar/internal/core"
	"laminar/internal/dataflow"
)

// serverConfig holds every laminar-server flag value. Flag registration
// lives here, separate from main, so the help-text drift test can build
// the flag set without running a server and cross-check the `-index-*`
// knobs against the documented knob table in docs/search.md.
type serverConfig struct {
	addr            string
	registryPath    string
	storeFormat     string
	registryLatency time.Duration
	voURL           string
	installScale    float64
	metrics         bool

	metricsAuthToken string
	metricsAllow     string

	clusterPeers        string
	clusterShardTimeout time.Duration
	clusterHedgeDelay   time.Duration
	replica             bool

	indexKind            string
	indexCentroids       int
	indexNProbe          int
	indexRecallTarget    float64
	indexMaxProbe        int
	indexSpill           float64
	indexOverfetch       int
	indexQuantize        bool
	indexRetrainCooldown time.Duration

	searchMode string

	cacheSize       int
	clusterCacheTTL time.Duration

	deltaMaxSegments  int
	deltaCompactRatio float64

	flowQueueCap int
	flowAlloc    string
}

// registerFlags declares every laminar-server flag on fs. The `-index-*`
// descriptions must stay in agreement with the knob table in
// docs/search.md — TestIndexFlagsMatchDocumentedKnobs pins the two sets
// to each other.
func registerFlags(fs *flag.FlagSet) *serverConfig {
	c := &serverConfig{}
	fs.StringVar(&c.addr, "addr", "127.0.0.1:8080", "listen address")
	fs.StringVar(&c.registryPath, "registry", "", "snapshot file to load/persist the registry (optional)")
	fs.StringVar(&c.storeFormat, "store", "v2", "on-disk registry format: v2 (streamed JSON + binary vector sidecar at <registry>-<sum>.vec) or v1 (legacy single JSON document); load auto-detects, so -store v2 migrates a v1 file on the first save")
	fs.DurationVar(&c.registryLatency, "registry-latency", 0, "simulated WAN latency of the remote registry")
	fs.StringVar(&c.voURL, "vo-url", "", "Virtual Observatory simulator base URL (empty = offline catalog)")
	fs.Float64Var(&c.installScale, "install-scale", 1, "library install latency scale (0 disables simulated installs)")
	fs.BoolVar(&c.metrics, "metrics", false, "expose operational telemetry at GET /metrics (Prometheus text format; metric reference in docs/operations.md)")
	fs.StringVar(&c.metricsAuthToken, "metrics-auth-token", "", "bearer token required to scrape /metrics (empty = no token check; composes with -metrics-allow as OR)")
	fs.StringVar(&c.metricsAllow, "metrics-allow", "", "comma-separated CIDRs allowed to scrape /metrics without a token (e.g. 10.0.0.0/8,127.0.0.0/8; empty with no token = open)")
	fs.StringVar(&c.clusterPeers, "cluster-peers", "", "make this node a cluster coordinator over the listed shard nodes: name=primaryURL[|replicaURL...] comma-separated; semantic and code searches scatter-gather across the shards (see docs/cluster.md; shard nodes run without this flag)")
	fs.DurationVar(&c.clusterShardTimeout, "cluster-shard-timeout", 0, "per-shard deadline for coordinated searches; a shard past it costs coverage (degraded partial result), not availability (0 = 2s default)")
	fs.DurationVar(&c.clusterHedgeDelay, "cluster-hedge-delay", 0, "hedge a shard's read replica once its primary has been silent this long, first answer wins (0 = hedging off)")
	fs.BoolVar(&c.replica, "replica", false, "serve as a read-only query replica: the registry restores from -registry (v2 sidecar restores the trained indexes, no k-means) and every write is rejected with 403")
	fs.StringVar(&c.indexKind, "index", "flat", "vector index for semantic search and code completion: flat (exact scan) or clustered (IVF ANN; tune with the -index-* knobs, see docs/search.md)")
	fs.IntVar(&c.indexCentroids, "index-centroids", 0, "clustered index shard count at (re)train time (0 = auto ~sqrt(N))")
	fs.IntVar(&c.indexNProbe, "index-nprobe", 0, "fixed shards scanned per clustered query (0 = auto = centroids/4; >= centroids is exact); with -index-recall-target set a nonzero value is the adaptive probe floor instead (auto floor is 1 — easy queries stop after a single shard)")
	fs.Float64Var(&c.indexRecallTarget, "index-recall-target", 0, "per-query adaptive probing aimed at this recall in (0,1]: shards are visited best-first until the kth-best hit beats every unprobed shard's score bound (1.0 = provably exact, equals flat, unless -index-max-probe caps the scan); 0 keeps the fixed -index-nprobe policy")
	fs.IntVar(&c.indexMaxProbe, "index-max-probe", 0, "cap on shards an adaptive query may scan, a worst-case latency budget that overrides the recall target including 1.0's exactness (0 = no cap)")
	fs.Float64Var(&c.indexSpill, "index-spill", 0, "spilled (overlapping) shard assignment: also replicate a vector into its second-nearest shard when that centroid is within (1+ratio)x the distance of its nearest (0 = off; 0.25 is a good start); changes the trained structure, so a mismatched snapshot rebuilds")
	fs.IntVar(&c.indexOverfetch, "index-overfetch", 0, "with -index-quantize, widen the int8-scored candidate pool to k*overfetch before the exact rescore picks the top-k (<=1 = off; no effect without -index-quantize or at -index-recall-target 1.0)")
	fs.BoolVar(&c.indexQuantize, "index-quantize", false, "int8 scalar quantization for the clustered candidate pass: maintain quantized companions of the stored vectors and score probed shards with cheap int8 dot products, always exact-rescoring the final top-k from float32 (off by default; bypassed at -index-recall-target 1.0, whose exactness needs exact scores)")
	fs.DurationVar(&c.indexRetrainCooldown, "index-retrain-cooldown", 0, "rate limit on automatic clustered retrains: triggers within this window of the last launch coalesce into one deferred retrain, so a churn burst cannot retrain back-to-back (0 = no limit; tuning guidance in docs/operations.md)")
	fs.StringVar(&c.searchMode, "search-mode", "ann", "default retrieval pipeline for semantic and code queries: ann (pure vector index), hybrid (ANN + BM25 lexical leg fused with reciprocal-rank fusion) or reranked (hybrid plus a cross-encoder rerank of the fused pool); requests override per query with the mode field (see docs/search.md)")
	fs.IntVar(&c.cacheSize, "cache-size", 0, "generation-tagged query-result cache capacity in entries (0 = off): repeated semantic/code queries are served from cache until a registry mutation or index retrain invalidates them (see docs/search.md; laminar_cache_* metrics in docs/operations.md)")
	fs.DurationVar(&c.clusterCacheTTL, "cluster-cache-ttl", 0, "staleness bound on a coordinator's query cache — shard epochs are invisible to the coordinator, so its cached results expire by clock (0 = 2s default; negative = a coordinator caches nothing; needs -cache-size)")
	fs.IntVar(&c.deltaMaxSegments, "delta-max-segments", 0, "delta-journal segments allowed to accumulate before an incremental save compacts the chain into a full snapshot (0 = 64 default; see docs/storage.md)")
	fs.Float64Var(&c.deltaCompactRatio, "delta-compact-ratio", 0, "compact the delta chain once its on-disk size or the dirty record fraction exceeds this ratio of the base snapshot, in (0,1] (0 = 0.5 default)")
	fs.IntVar(&c.flowQueueCap, "flow-queue-cap", 0, "bound on each PE instance's input queue during workflow enactment; senders park when a downstream queue fills (0 = default 1024; see docs/dataflow.md)")
	fs.StringVar(&c.flowAlloc, "flow-alloc", "even", "instance division for parallel workflow mappings: even (the paper's split) or weighted (proportional to per-PE cost measured across runs; see docs/dataflow.md)")
	return c
}

// validate applies the same fail-fast range checks the façade panics on,
// as flag errors instead.
func (c *serverConfig) validate() error {
	if c.indexKind != "flat" && c.indexKind != "clustered" {
		return fmt.Errorf("unknown -index %q (want flat or clustered)", c.indexKind)
	}
	if c.indexRecallTarget < 0 || c.indexRecallTarget > 1 {
		return fmt.Errorf("-index-recall-target %g out of range (want 0, or a target in (0,1])", c.indexRecallTarget)
	}
	if c.indexSpill < 0 {
		return fmt.Errorf("-index-spill %g out of range (want >= 0)", c.indexSpill)
	}
	if c.indexRetrainCooldown < 0 {
		return fmt.Errorf("-index-retrain-cooldown %v out of range (want >= 0)", c.indexRetrainCooldown)
	}
	if c.storeFormat != "v1" && c.storeFormat != "v2" {
		return fmt.Errorf("unknown -store %q (want v1 or v2)", c.storeFormat)
	}
	if c.searchMode != core.ModeANN && c.searchMode != core.ModeHybrid && c.searchMode != core.ModeReranked {
		return fmt.Errorf("unknown -search-mode %q (want ann, hybrid or reranked)", c.searchMode)
	}
	if c.flowQueueCap < 0 {
		return fmt.Errorf("-flow-queue-cap %d out of range (want >= 0)", c.flowQueueCap)
	}
	if _, err := dataflow.ParseAllocMode(c.flowAlloc); err != nil {
		return fmt.Errorf("unknown -flow-alloc %q (want even or weighted)", c.flowAlloc)
	}
	if c.clusterPeers != "" {
		if _, err := cluster.ParseShards(c.clusterPeers); err != nil {
			return fmt.Errorf("-cluster-peers: %v", err)
		}
	}
	if c.clusterShardTimeout < 0 {
		return fmt.Errorf("-cluster-shard-timeout %v out of range (want >= 0)", c.clusterShardTimeout)
	}
	if c.clusterHedgeDelay < 0 {
		return fmt.Errorf("-cluster-hedge-delay %v out of range (want >= 0)", c.clusterHedgeDelay)
	}
	for _, cidr := range c.metricsAllowList() {
		if _, _, err := net.ParseCIDR(cidr); err != nil {
			return fmt.Errorf("-metrics-allow: bad CIDR %q", cidr)
		}
	}
	if c.replica && c.registryPath == "" {
		return fmt.Errorf("-replica needs -registry: a read-only replica serves a restored snapshot")
	}
	if c.cacheSize < 0 {
		return fmt.Errorf("-cache-size %d out of range (want >= 0)", c.cacheSize)
	}
	if c.deltaMaxSegments < 0 {
		return fmt.Errorf("-delta-max-segments %d out of range (want >= 0)", c.deltaMaxSegments)
	}
	if c.deltaCompactRatio < 0 || c.deltaCompactRatio > 1 {
		return fmt.Errorf("-delta-compact-ratio %g out of range (want 0, or a ratio in (0,1])", c.deltaCompactRatio)
	}
	return nil
}

// metricsAllowList splits the comma-separated -metrics-allow value.
func (c *serverConfig) metricsAllowList() []string {
	var out []string
	for _, cidr := range strings.Split(c.metricsAllow, ",") {
		if cidr = strings.TrimSpace(cidr); cidr != "" {
			out = append(out, cidr)
		}
	}
	return out
}

// serverOptions maps the parsed flags onto the façade's options.
func (c *serverConfig) serverOptions() laminar.ServerOptions {
	return laminar.ServerOptions{
		RegistryLatency:      c.registryLatency,
		VOBaseURL:            c.voURL,
		InstallDelayScale:    c.installScale,
		RegistryPath:         c.registryPath,
		StoreFormat:          c.storeFormat,
		Metrics:              c.metrics,
		Index:                c.indexKind,
		IndexCentroids:       c.indexCentroids,
		IndexNProbe:          c.indexNProbe,
		IndexRecallTarget:    c.indexRecallTarget,
		IndexMaxProbe:        c.indexMaxProbe,
		IndexSpill:           c.indexSpill,
		IndexOverfetch:       c.indexOverfetch,
		IndexQuantize:        c.indexQuantize,
		IndexRetrainCooldown: c.indexRetrainCooldown,
		SearchMode:           c.searchMode,
		FlowQueueCap:         c.flowQueueCap,
		FlowAlloc:            c.flowAlloc,
		MetricsAuthToken:     c.metricsAuthToken,
		MetricsAllow:         c.metricsAllowList(),
		ClusterPeers:         c.clusterPeers,
		ClusterShardTimeout:  c.clusterShardTimeout,
		ClusterHedgeDelay:    c.clusterHedgeDelay,
		ReadOnlyReplica:      c.replica,
		CacheSize:            c.cacheSize,
		ClusterCacheTTL:      c.clusterCacheTTL,
		DeltaMaxSegments:     c.deltaMaxSegments,
		DeltaCompactRatio:    c.deltaCompactRatio,
	}
}
