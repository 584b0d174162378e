package main

import (
	"flag"
	"strings"

	"laminar"
)

// cidrList is the -metrics-allow flag value: a comma-separated list
// appended to the options' slice.
type cidrList []string

func (l *cidrList) String() string { return strings.Join(*l, ",") }

func (l *cidrList) Set(v string) error {
	for _, cidr := range strings.Split(v, ",") {
		if cidr = strings.TrimSpace(cidr); cidr != "" {
			*l = append(*l, cidr)
		}
	}
	return nil
}

// registerFlags declares every laminar-server flag on fs, bound straight
// into the façade's options (which own the range checks: see
// laminar.ServerOptions.Validate) plus the listen address. Flag
// registration lives here, separate from main, so the help-text drift test
// can build the flag set without running a server. The `-index-*`
// descriptions must stay in agreement with the knob table in
// docs/search.md — TestIndexFlagsMatchDocumentedKnobs pins the two sets
// to each other.
func registerFlags(fs *flag.FlagSet) (o *laminar.ServerOptions, addr *string) {
	o = &laminar.ServerOptions{}
	addr = fs.String("addr", "127.0.0.1:8080", "listen address")
	fs.StringVar(&o.RegistryPath, "registry", "", "snapshot file to load/persist the registry (optional)")
	fs.DurationVar(&o.RegistryLatency, "registry-latency", 0, "simulated WAN latency of the remote registry")
	fs.StringVar(&o.VOBaseURL, "vo-url", "", "Virtual Observatory simulator base URL (empty = offline catalog)")
	fs.Float64Var(&o.InstallDelayScale, "install-scale", 1, "library install latency scale (0 disables simulated installs)")
	fs.BoolVar(&o.Metrics, "metrics", false, "expose operational telemetry at GET /metrics (Prometheus text format; metric reference in docs/operations.md)")
	fs.StringVar(&o.MetricsAuthToken, "metrics-auth-token", "", "bearer token required to scrape /metrics (empty = no token check; composes with -metrics-allow as OR)")
	fs.Var((*cidrList)(&o.MetricsAllow), "metrics-allow", "comma-separated CIDRs allowed to scrape /metrics without a token (e.g. 10.0.0.0/8,127.0.0.0/8; empty with no token = open)")
	fs.StringVar(&o.ClusterPeers, "cluster-peers", "", "make this node a cluster coordinator over the listed shard nodes: name=primaryURL[|replicaURL...] comma-separated; semantic and code searches scatter-gather across the shards (see docs/cluster.md; shard nodes run without this flag)")
	fs.DurationVar(&o.ClusterShardTimeout, "cluster-shard-timeout", 0, "per-shard deadline for coordinated searches; a shard past it costs coverage (degraded partial result), not availability (0 = 2s default)")
	fs.DurationVar(&o.ClusterHedgeDelay, "cluster-hedge-delay", 0, "hedge a shard's read replica once its primary has been silent this long, first answer wins (0 = hedging off)")
	fs.BoolVar(&o.ReadOnlyReplica, "replica", false, "serve as a read-only query replica: the registry restores from -registry (v2 sidecar restores the trained indexes, no k-means) and every write is rejected with 403")
	fs.StringVar(&o.Index, "index", "flat", "vector index for semantic search and code completion: flat (exact scan) or clustered (IVF ANN; tune with the -index-* knobs, see docs/search.md)")
	fs.IntVar(&o.IndexCentroids, "index-centroids", 0, "clustered index shard count at (re)train time (0 = auto ~sqrt(N))")
	fs.IntVar(&o.IndexNProbe, "index-nprobe", 0, "fixed shards scanned per clustered query (0 = auto = centroids/4; >= centroids is exact); with -index-recall-target set a nonzero value is the adaptive probe floor instead (auto floor is 1 — easy queries stop after a single shard)")
	fs.Float64Var(&o.IndexRecallTarget, "index-recall-target", 0, "per-query adaptive probing aimed at this recall in (0,1]: shards are visited best-first until the kth-best hit beats every unprobed shard's score bound (1.0 = provably exact, equals flat, unless -index-max-probe caps the scan); 0 probes exactly -index-nprobe shards, the same loop with no stop rule")
	fs.IntVar(&o.IndexMaxProbe, "index-max-probe", 0, "cap on shards an adaptive query may scan, a worst-case latency budget that overrides the recall target including 1.0's exactness (0 = no cap)")
	fs.Float64Var(&o.IndexSpill, "index-spill", 0, "spilled (overlapping) shard assignment: also replicate a vector into its second-nearest shard when that centroid is within (1+ratio)x the distance of its nearest (0 = off; 0.25 is a good start); changes the trained structure, so a mismatched snapshot rebuilds")
	fs.IntVar(&o.IndexOverfetch, "index-overfetch", 0, "with -index-quantize, widen the int8-scored candidate pool to k*overfetch before the exact rescore picks the top-k (<=1 = off; no effect without -index-quantize or at -index-recall-target 1.0)")
	fs.BoolVar(&o.IndexQuantize, "index-quantize", false, "int8 scalar quantization for the clustered candidate pass: maintain quantized companions of the stored vectors and score probed shards with cheap int8 dot products, always exact-rescoring the final top-k from float32 (off by default; bypassed at -index-recall-target 1.0, whose exactness needs exact scores)")
	fs.DurationVar(&o.IndexRetrainCooldown, "index-retrain-cooldown", 0, "rate limit on automatic clustered retrains: triggers within this window of the last launch coalesce into one deferred retrain, so a churn burst cannot retrain back-to-back (0 = no limit; tuning guidance in docs/operations.md)")
	fs.StringVar(&o.SearchMode, "search-mode", "ann", "default retrieval pipeline for semantic and code queries: ann (pure vector index), hybrid (ANN + BM25 lexical leg fused with reciprocal-rank fusion) or reranked (hybrid plus a cross-encoder rerank of the fused pool); requests override per query with the mode field (see docs/search.md)")
	fs.IntVar(&o.CacheSize, "cache-size", 0, "generation-tagged query-result cache capacity in entries (0 = off): repeated semantic/code queries are served from cache until a registry mutation or index retrain invalidates them (see docs/search.md; laminar_cache_* metrics in docs/operations.md)")
	fs.DurationVar(&o.ClusterCacheTTL, "cluster-cache-ttl", 0, "staleness bound on a coordinator's query cache — shard epochs are invisible to the coordinator, so its cached results expire by clock (0 = 2s default; negative = a coordinator caches nothing; needs -cache-size)")
	fs.IntVar(&o.DeltaMaxSegments, "delta-max-segments", 0, "delta-journal segments allowed to accumulate before an incremental save compacts the chain into a full snapshot (0 = 64 default; see docs/storage.md)")
	fs.Float64Var(&o.DeltaCompactRatio, "delta-compact-ratio", 0, "compact the delta chain once its on-disk size or the dirty record fraction exceeds this ratio of the base snapshot, in (0,1] (0 = 0.5 default)")
	fs.IntVar(&o.FlowQueueCap, "flow-queue-cap", 0, "bound on each PE instance's input queue during workflow enactment; senders park when a downstream queue fills (0 = default 1024; see docs/dataflow.md)")
	fs.StringVar(&o.FlowAlloc, "flow-alloc", "even", "instance division for parallel workflow mappings: even (the paper's split) or weighted (proportional to per-PE cost measured across runs; see docs/dataflow.md)")
	return o, addr
}
