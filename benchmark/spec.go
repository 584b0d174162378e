package main

import (
	"math"
	"time"
)

// Workload names. Later issues refer to workloads and metrics by these
// names, so they are constants, not strings scattered through the code.
const (
	wlQueryRepeat    = "query_repeat"
	wlQueryUnique    = "query_unique"
	wlIngestChurn    = "ingest_churn"
	wlClusterScatter = "cluster_scatter"
	wlColdStart      = "cold_start"
	wlFlowRun        = "flow_run"
)

// Op classes: the per-class client-side latency rows.
const (
	clsSemANN   = "sem_ann"
	clsCodeANN  = "code_ann"
	clsHybrid   = "hybrid"
	clsReranked = "reranked"
	clsText     = "text"
	clsAdd      = "add"
	clsRemove   = "remove"
	clsSimple   = "simple"
	clsMulti    = "multi"
	clsMPI      = "mpi"
	clsRedis    = "redis"
	clsBoot     = "boot" // cold_start jobs; pooled only, no class row
)

var classNames = []string{
	clsSemANN, clsCodeANN, clsHybrid, clsReranked, clsText,
	clsAdd, clsRemove, clsSimple, clsMulti, clsMPI, clsRedis,
}

// mixEntry is one class's share of a workload's op stream.
type mixEntry struct {
	Class string
	Share float64
}

// workloadSpec is the fixed definition of one workload.
type workloadSpec struct {
	Name string
	// Arrival workloads run warm-up, an open-loop phase at Rate and a
	// closed-loop capacity phase; job workloads run one client closed-loop.
	Arrival bool
	Rate    float64 // open-loop requests per second
	Mix     []mixEntry
	// LimitMS is the latency an op must beat, correct, to count towards
	// within_limit_share.
	LimitMS float64
	// TailPct is the percentile latency_tail_ms is reported at; pickTail
	// lowers it when a run has fewer than minBeyond samples beyond. The
	// issue's p99 holds on no arrival workload: the slowest class (a
	// reranked cache miss, a text query) is the top few percent of the ops,
	// and a percentile near that class's upper edge moves with how many
	// such ops the seed drew. Over ten seeds query_repeat's p98 spreads 8%
	// and its p99 17%; query_unique's p95 9%, p98 25%; ingest_churn's p95
	// 7%, p98 20%; cluster_scatter's p95 17%, p98 21% (README, "Run length
	// and phases"). The driver refuses a metric that spreads past 25%, so
	// each arrival workload reports the percentile inside its slowest class
	// that spreads least. The job workloads keep the issue's p90 and p75.
	TailPct float64
	// MinCorrect is the correct_share below which the run's outputs count
	// as wrong.
	MinCorrect float64
	// ClosedOpsPerSec sizes the pre-generated op stream for the
	// closed-loop phase; a run that exhausts it aborts.
	ClosedOpsPerSec int
	CacheSize       int
}

var workloadSpecs = []workloadSpec{
	{
		Name: wlQueryRepeat, Arrival: true, Rate: 400, LimitMS: 50, TailPct: 98, MinCorrect: 0.9,
		Mix:             []mixEntry{{clsSemANN, 0.40}, {clsCodeANN, 0.20}, {clsHybrid, 0.25}, {clsReranked, 0.15}},
		ClosedOpsPerSec: 12000, CacheSize: 1024,
	},
	{
		Name: wlQueryUnique, Arrival: true, Rate: 120, LimitMS: 100, TailPct: 95, MinCorrect: 0.9,
		Mix:             []mixEntry{{clsSemANN, 0.30}, {clsCodeANN, 0.20}, {clsHybrid, 0.25}, {clsReranked, 0.15}, {clsText, 0.10}},
		ClosedOpsPerSec: 3000, CacheSize: 1024,
	},
	{
		Name: wlIngestChurn, Arrival: true, Rate: 150, LimitMS: 50, TailPct: 95, MinCorrect: 0.9,
		Mix:             []mixEntry{{clsSemANN, 0.20}, {clsCodeANN, 0.10}, {clsHybrid, 0.125}, {clsReranked, 0.075}, {clsAdd, 0.35}, {clsRemove, 0.15}},
		ClosedOpsPerSec: 3000, CacheSize: 1024,
	},
	{
		Name: wlClusterScatter, Arrival: true, Rate: 100, LimitMS: 50, TailPct: 95, MinCorrect: 1,
		Mix:             []mixEntry{{clsSemANN, 0.70}, {clsHybrid, 0.30}},
		ClosedOpsPerSec: 3000,
	},
	{Name: wlColdStart, LimitMS: 1000, TailPct: 75, MinCorrect: 1},
	{Name: wlFlowRun, LimitMS: 500, TailPct: 90, MinCorrect: 1},
}

func specByName(name string) (workloadSpec, bool) {
	for _, s := range workloadSpecs {
		if s.Name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// phases splits a run's measured seconds the way the 27 s reference run
// does: 3 s warm-up, 15 s open loop, 9 s closed loop.
func phases(seconds float64) (warm, open, closed time.Duration) {
	unit := time.Duration(seconds / 27 * float64(time.Second))
	return 3 * unit, 15 * unit, 9 * unit
}

// End-to-end metric names.
const (
	mSetup       = "setup_s"
	mP50         = "latency_p50_ms"
	mTail        = "latency_tail_ms"
	mCapacity    = "capacity_ops_s"
	mCPU         = "cpu_ms_per_op"
	mRSS         = "server_rss_mb"
	mWithin      = "within_limit_share"
	mCorrect     = "correct_share"
	mDisk        = "disk_bytes_per_record"
	mFailedShare = "failed_share" // printed by run and gated by compare; see README for why it is not in BENCHMARK.json
)

// Layers, in the order the share table prints them.
var layerNames = []string{
	"server", "qcache", "embed", "index", "lexical", "search", "registry",
	"storage", "cluster", "engine", "dataflow", "pype", "codec",
}

// metricDef is one metric. Name, Unit, Better and Bound are what
// BENCHMARK.json declares; Allow and Abs are what `compare` holds an
// end-to-end metric to.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which the benchmark
	// driver lets a later PR worsen the metric. The driver has one number
	// per metric for all six workloads and picks its own seeds, so Bound
	// covers the widest workload's seed-to-seed spread three times over.
	Bound float64 `json:"bound,omitempty"`
	// Allow is what compare allows between two sets of runs at one seed:
	// a share of the base median, or with Abs an absolute difference. It is
	// the issue's bound; widened lists the workloads that cannot hold it.
	Allow float64 `json:"-"`
	Abs   bool    `json:"-"`
}

// endToEndDefs are the end-to-end metrics BENCHMARK.json declares.
var endToEndDefs = []metricDef{
	{Name: mSetup, Unit: "s", Better: "lower", Bound: 0.25, Allow: 0.20},
	{Name: mP50, Unit: "ms", Better: "lower", Bound: 0.25, Allow: 0.10},
	{Name: mTail, Unit: "ms", Better: "lower", Bound: 0.25, Allow: 0.10},
	{Name: mCapacity, Unit: "ops/s", Better: "higher", Bound: 0.20, Allow: 0.10},
	{Name: mCPU, Unit: "ms", Better: "lower", Bound: 0.20, Allow: 0.10},
	{Name: mRSS, Unit: "MB", Better: "lower", Bound: 0.20, Allow: 0.10},
	{Name: mWithin, Unit: "share", Better: "higher", Bound: 0.05, Allow: 0.01, Abs: true},
	{Name: mCorrect, Unit: "share", Better: "higher", Bound: 0.05, Allow: 0.01, Abs: true},
	{Name: mDisk, Unit: "bytes/rec", Better: "lower", Bound: 0.05, Allow: 0.05},
}

// comparedDefs are what run prints and compare judges: the declared
// end-to-end metrics and failed_share, which BENCHMARK.json cannot carry
// because it is 0 on every healthy run.
var comparedDefs = append(append([]metricDef(nil), endToEndDefs...),
	metricDef{Name: mFailedShare, Unit: "share", Better: "lower", Allow: 0.001, Abs: true})

// widening is one (metric, workload) cell that compare holds to less than
// the metric's Allow.
type widening struct {
	Allow float64
	// Seen is the widest spread among four sets of three reference-length
	// runs at one seed (seeds 1 and 2, two sets each), as a share of the
	// set's median. Three runs have no quartiles but their extremes, so it
	// is the whole range.
	Seen float64
	Why  string
}

// widened lists the cells where 1.25 times Seen passes the metric's Allow:
// two sets of three runs of one commit would not agree within the issue's
// bound there. Each is held to the next multiple of 5% that covers 1.25
// times Seen. cpu_ms_per_op holds the issue's 10% on every workload, all
// ten metrics hold it on cold_start, and every metric but server_rss_mb and
// setup_s on flow_run; the three shares and disk_bytes_per_record repeat
// exactly at one seed.
var widened = map[[2]string]widening{
	{mP50, wlQueryRepeat}:      {0.15, 0.094, "a 0.4 ms median on a shared 2-core box"},
	{mP50, wlQueryUnique}:      {0.15, 0.115, "a 1.1 ms median on a shared 2-core box"},
	{mP50, wlIngestChurn}:      {0.20, 0.134, "a 0.8 ms median on a shared 2-core box, writes taking the registry lock beside the reads"},
	{mP50, wlClusterScatter}:   {0.25, 0.185, "the reply waits for the slowest of three shard processes on two cores"},
	{mTail, wlQueryRepeat}:     {0.25, 0.192, "the p98 is the 120th slowest of 6,000: one slow second of the box moves it"},
	{mTail, wlQueryUnique}:     {0.20, 0.158, "the p95 is the 90th slowest of 1,800, a text query behind a rerank"},
	{mTail, wlIngestChurn}:     {0.35, 0.248, "the p95 is the 112th slowest of 2,250, a reranked miss behind a write"},
	{mTail, wlClusterScatter}:  {0.30, 0.230, "the p95 is the 75th slowest of 1,500, each the slowest of three shards"},
	{mCapacity, wlQueryUnique}: {0.30, 0.206, "two connections of rerank- and text-heavy ops keep both cores busy for 9 s; whatever else the box runs comes straight off"},
	{mCapacity, wlIngestChurn}: {0.15, 0.091, "as query_unique, at a third of the cost per op"},
	{mRSS, wlClusterScatter}:   {0.20, 0.144, "four processes; where each collector stood at its peak"},
	{mRSS, wlFlowRun}:          {0.35, 0.252, "an 18 MB process: one collection more or less is 4 MB"},
	{mSetup, wlIngestChurn}:    {0.25, 0.175, "one boot in three took 0.6 s longer than the others"},
	{mSetup, wlFlowRun}:        {0.25, 0.165, "65 ms of exec, two registrations and two runs: a few ms of jitter"},
}

// allowFor is what compare allows metric def to worsen by on a workload.
func allowFor(def metricDef, workload string) float64 {
	if w, ok := widened[[2]string{def.Name, workload}]; ok {
		return w.Allow
	}
	return def.Allow
}

// missing names the metrics of defs that values lacks or holds no finite
// number for.
func missing(defs []metricDef, values map[string]float64) []string {
	var out []string
	for _, def := range defs {
		if v, ok := values[def.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out = append(out, def.Name)
		}
	}
	return out
}

// perLayerDefs are the per-layer metrics, grouped by the package they
// observe. Every workload emits all of them; 0 means the workload does
// not reach that layer.
var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{Name: "server.handler_us", Unit: "us", Better: "lower"},
		{Name: "server.self_us", Unit: "us", Better: "lower"},
		{Name: "server.resp_bytes_per_op", Unit: "bytes/op", Better: "lower"},
		{Name: "server.http_requests", Unit: "count", Better: "lower"},
		{Name: "qcache.hit_ratio", Unit: "share", Better: "higher"},
		{Name: "qcache.invalidations", Unit: "count", Better: "lower"},
		{Name: "qcache.get_us", Unit: "us", Better: "lower"},
		{Name: "qcache.put_us", Unit: "us", Better: "lower"},
		{Name: "embed.query_us", Unit: "us", Better: "lower"},
		{Name: "embed.calls_per_op", Unit: "count", Better: "lower"},
		{Name: "index.search_us", Unit: "us", Better: "lower"},
		{Name: "index.probes_per_query", Unit: "count", Better: "lower"},
		{Name: "index.scanned_per_query", Unit: "count", Better: "lower"},
		{Name: "index.upsert_us", Unit: "us", Better: "lower"},
		{Name: "index.retrains", Unit: "count", Better: "lower"},
		{Name: "index.restore_ms", Unit: "ms", Better: "lower"},
		{Name: "vecmath.dotq8_ns", Unit: "ns", Better: "lower"},
		{Name: "vecmath.dot_ns", Unit: "ns", Better: "lower"},
		{Name: "lexical.search_us", Unit: "us", Better: "lower"},
		{Name: "lexical.upsert_us", Unit: "us", Better: "lower"},
		{Name: "lexical.terms", Unit: "count", Better: "lower"},
		{Name: "search.fuse_us", Unit: "us", Better: "lower"},
		{Name: "search.rerank_us", Unit: "us", Better: "lower"},
		{Name: "search.text_ms", Unit: "ms", Better: "lower"},
		{Name: "search.merge_us", Unit: "us", Better: "lower"},
		{Name: "registry.semantic_us", Unit: "us", Better: "lower"},
		{Name: "registry.hybrid_us", Unit: "us", Better: "lower"},
		{Name: "registry.reranked_us", Unit: "us", Better: "lower"},
		{Name: "registry.self_us", Unit: "us", Better: "lower"},
		{Name: "registry.list_ms", Unit: "ms", Better: "lower"},
		{Name: "registry.add_pe_us", Unit: "us", Better: "lower"},
		{Name: "registry.remove_pe_us", Unit: "us", Better: "lower"},
		{Name: "storage.full_save_ms", Unit: "ms", Better: "lower"},
		{Name: "storage.shutdown_save_ms", Unit: "ms", Better: "lower"},
		{Name: "storage.delta_save_ms", Unit: "ms", Better: "lower"},
		{Name: "storage.load_ms", Unit: "ms", Better: "lower"},
		{Name: "storage.load_chain_ms", Unit: "ms", Better: "lower"},
		{Name: "storage.bytes_per_record", Unit: "bytes/rec", Better: "lower"},
		{Name: "storage.delta_bytes_per_record", Unit: "bytes/rec", Better: "lower"},
		{Name: "storage.compactions", Unit: "count", Better: "lower"},
		{Name: "cluster.coord_search_ms", Unit: "ms", Better: "lower"},
		{Name: "cluster.http_hop_us", Unit: "us", Better: "lower"},
		{Name: "cluster.resp_hop_us", Unit: "us", Better: "lower"},
		{Name: "cluster.merge_us", Unit: "us", Better: "lower"},
		{Name: "cluster.degraded_share", Unit: "share", Better: "lower"},
		{Name: "cluster.shard_cpu_share", Unit: "share", Better: "lower"},
		{Name: "client.search_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.execute_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.self_ms", Unit: "ms", Better: "lower"},
		{Name: "pype.build_ms", Unit: "ms", Better: "lower"},
		{Name: "codec.decode_us", Unit: "us", Better: "lower"},
	}
	for _, m := range []string{clsSimple, clsMulti, clsMPI, clsRedis} {
		defs = append(defs, metricDef{Name: "dataflow.run_ms." + m, Unit: "ms", Better: "lower"})
	}
	for _, m := range []string{clsSimple, clsMulti, clsMPI, clsRedis} {
		defs = append(defs, metricDef{Name: "dataflow.records_per_s." + m, Unit: "rec/s", Better: "higher"})
	}
	defs = append(defs,
		metricDef{Name: "dataflow.queue_high_water", Unit: "count", Better: "lower"},
		metricDef{Name: "dataflow.backpressure_waits", Unit: "count", Better: "lower"})
	for _, c := range classNames {
		defs = append(defs, metricDef{Name: "class." + c + ".p50_ms", Unit: "ms", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "gen.lateness_p99_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
		metricDef{Name: "trace.span_sum_ratio", Unit: "share", Better: "lower"},
		metricDef{Name: "trace.overshot_ops_share", Unit: "share", Better: "lower"})
	for _, l := range layerNames {
		defs = append(defs, metricDef{Name: "share." + l, Unit: "share", Better: "lower"})
	}
	for _, l := range layerNames {
		defs = append(defs, metricDef{Name: "timeshare." + l, Unit: "share", Better: "lower"})
	}
	return defs
}()

func layerMetricNames() []string {
	names := make([]string, len(perLayerDefs))
	for i, d := range perLayerDefs {
		names[i] = d.Name
	}
	return names
}

// workloadWhys is the one-line reason each workload exists.
var workloadWhys = map[string]string{
	wlQueryRepeat:    "zipf-repeated pre-embedded queries over a pool twice the cache: HTTP decode/encode and qcache do the work, retrieval little (the SlsReuse reuse shape); tail p98",
	wlQueryUnique:    "every query distinct and embedded by the server: 100% cache miss plus fill, so embed, index, lexical, search and registry listing do the work; bypass pair of query_repeat; tail p95",
	wlIngestChurn:    "zipf searches beside 35% pe/add and 15% pe/remove: every write bumps the epoch and empties the cache; ends with SIGTERM, reboot and a state check; tail p95",
	wlClusterScatter: "the corpus consistent-hashed over 3 shard processes behind a coordinator: scatter, per-hop transport and merge dominate; merged top-10 must equal a global exact scan; tail p95",
	wlColdStart:      "exec a read-only replica on a base snapshot plus 8 delta segments until its first correct answer: only storage load, journal replay and index restore run; tail p75",
	wlFlowRun:        "POST /execution runs of two registered workflows under SIMPLE, MULTI, MPI and REDIS: engine, dataflow, pype and codec do all the work, the retrieval stack none; tail p90",
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadWhy `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifest is BENCHMARK.json: the file is this, printed, and a unit test
// holds it to that. Nothing reads the file at run time.
func manifest() benchmarkFile {
	bf := benchmarkFile{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: driverSeconds,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs,
	}
	for _, s := range workloadSpecs {
		bf.Workloads = append(bf.Workloads, workloadWhy{s.Name, workloadWhys[s.Name]})
	}
	return bf
}

// Run lengths. driverSeconds is BENCHMARK.json's run_seconds: the driver
// fits 136 runs, their set-ups and two builds into 57 minutes, and ten
// seeds at 15 s spread no less than ten seeds at 10 s (what moves a metric
// between seeds is the corpus and the box, not the sample count). `run`
// measures for the issue's reference phases: 3 s warm-up, 15 s open loop,
// 9 s closed loop.
const (
	driverSeconds    = 10
	referenceSeconds = 27
)
