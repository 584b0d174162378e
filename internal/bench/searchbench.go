package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"laminar/internal/embed"
	"laminar/internal/index"
	"laminar/internal/search"
	"laminar/internal/telemetry"
)

// SearchBenchRow is one corpus-size measurement of the vector-index
// comparison: exact Flat scan vs Clustered IVF probe.
type SearchBenchRow struct {
	CorpusSize   int
	FlatQuery    time.Duration // mean per query
	ClusteredQry time.Duration
	Speedup      float64 // Flat / Clustered
	RecallAt10   float64 // fraction of Flat's top-10 the Clustered probe recovers
	Probes       ProbeSummary
}

// ProbeSummary condenses one run's per-query probe telemetry: the same
// histograms a production /metrics endpoint exports
// (laminar_index_probe_shards, laminar_index_query_stops_total), read
// back as quantiles and a stop-rule attribution.
type ProbeSummary struct {
	P50, P90, Max float64           // shards probed per query
	Stops         map[string]uint64 // stop rule → queries
}

// probeCollector attaches fresh probe instruments to a clustered index
// and reads them back as a ProbeSummary.
type probeCollector struct {
	probes *telemetry.Histogram
	stops  *telemetry.CounterVec
}

func attachProbeMetrics(c *index.Clustered) *probeCollector {
	reg := telemetry.NewRegistry()
	pc := &probeCollector{
		probes: reg.Histogram("probe_shards", "shards probed per query", telemetry.CountBuckets()),
		stops:  reg.CounterVec("query_stops_total", "stop-rule attribution", "rule"),
	}
	c.SetMetrics(&index.ClusteredMetrics{Probes: pc.probes, Stops: pc.stops})
	return pc
}

func (pc *probeCollector) summary() ProbeSummary {
	return ProbeSummary{
		P50:   pc.probes.Quantile(0.5),
		P90:   pc.probes.Quantile(0.9),
		Max:   pc.probes.Max(),
		Stops: pc.stops.Values(),
	}
}

// describeStops renders a stop-rule attribution compactly, dominant rule
// first ("proof 72%, diminishing-returns 28%").
func describeStops(stops map[string]uint64) string {
	var total uint64
	for _, n := range stops {
		total += n
	}
	if total == 0 {
		return "no queries"
	}
	type kv struct {
		rule string
		n    uint64
	}
	sorted := make([]kv, 0, len(stops))
	for rule, n := range stops {
		if n > 0 {
			sorted = append(sorted, kv{rule, n})
		}
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].n != sorted[j].n {
			return sorted[i].n > sorted[j].n
		}
		return sorted[i].rule < sorted[j].rule
	})
	parts := make([]string, len(sorted))
	for i, s := range sorted {
		parts[i] = fmt.Sprintf("%s %d%%", s.rule, (100*s.n+total/2)/total)
	}
	return strings.Join(parts, ", ")
}

// SearchBenchResult compares the two index implementations across corpus
// sizes, the scaling experiment behind the ANN refactor: Flat is O(N) per
// query, Clustered scans only the probed shards.
type SearchBenchResult struct {
	Rows    []SearchBenchRow
	Queries int
	Cfg     index.ClusteredConfig
}

// benchVec draws a clustered random unit vector: corpus vectors concentrate
// around a handful of topic directions, as real embedding corpora do, so
// the IVF index has actual structure to exploit.
func benchVec(rng *rand.Rand, topics []embed.Vector) []float32 {
	base := topics[rng.Intn(len(topics))]
	v := make([]float32, len(base))
	var norm float64
	for i := range v {
		x := float64(base[i]) + 0.25*rng.NormFloat64()
		v[i] = float32(x)
		norm += x * x
	}
	norm = math.Sqrt(norm)
	for i := range v {
		v[i] = float32(float64(v[i]) / norm)
	}
	return v
}

func benchTopics(rng *rand.Rand, n, dim int) []embed.Vector {
	topics := make([]embed.Vector, n)
	for t := range topics {
		v := make(embed.Vector, dim)
		var norm float64
		for i := range v {
			x := rng.NormFloat64()
			v[i] = float32(x)
			norm += x * x
		}
		norm = math.Sqrt(norm)
		for i := range v {
			v[i] = float32(float64(v[i]) / norm)
		}
		topics[t] = v
	}
	return topics
}

// GenSearchCorpus returns a deterministic topic-clustered corpus of unit
// vectors plus query vectors drawn from the same distribution, for index
// benchmarking. The root bench_test.go benchmarks and -searchbench share
// this generator so their numbers describe the same corpus.
func GenSearchCorpus(size, queries int) (corpus, qs [][]float32) {
	rng := rand.New(rand.NewSource(61))
	topics := benchTopics(rng, 16, embed.Dim)
	corpus = make([][]float32, size)
	for i := range corpus {
		corpus[i] = benchVec(rng, topics)
	}
	qs = make([][]float32, queries)
	for i := range qs {
		qs[i] = benchVec(rng, topics)
	}
	return corpus, qs
}

// PE-description word banks for the realistic corpus profile. Combinations
// of verb/object/qualifier mirror how registered PEs actually describe
// themselves ("a PE that filters visibility samples from the VO service"),
// so the embedding model's token directions give the corpus the shared-
// vocabulary cluster structure real registries have.
var (
	peVerbs = []string{
		"filters", "aggregates", "normalizes", "extracts", "correlates",
		"streams", "deduplicates", "classifies", "interpolates", "cross-matches",
		"averages", "validates", "tokenizes", "clusters", "ranks", "samples",
	}
	peObjects = []string{
		"visibility samples", "star catalogs", "sensor readings", "log records",
		"spectral bands", "light curves", "word counts", "prime candidates",
		"particle tracks", "velocity fields", "temperature grids", "photon events",
		"redshift estimates", "galaxy pairs", "radio signals", "text documents",
	}
	peQualifiers = []string{
		"from the VO service", "for the internal extinction workflow",
		"across sliding windows", "with outlier rejection", "in real time",
		"for downstream PEs", "using a reference catalog", "per observation run",
		"with configurable thresholds", "in batch mode", "for the seismic pipeline",
		"with unit conversion", "over MPI partitions", "with redis-backed state",
		"for cross-matching", "at fixed cadence",
	}
)

// genPEDescription draws one PE-style description.
func genPEDescription(rng *rand.Rand, version int) string {
	return fmt.Sprintf("a PE that %s %s %s v%d",
		peVerbs[rng.Intn(len(peVerbs))],
		peObjects[rng.Intn(len(peObjects))],
		peQualifiers[rng.Intn(len(peQualifiers))],
		version)
}

// GenPECorpus returns a deterministic corpus of *real* description
// embeddings: template-generated PE descriptions run through the serving
// path's description embedder. Unlike GenSearchCorpus's isotropic-noise
// topics — a deliberately adversarial profile no embedding model produces —
// this is the shape of vector the index actually serves: shared vocabulary
// pulls related PEs into tight clusters, and a per-PE version token keeps
// every embedding distinct.
func GenPECorpus(size, queries int) (corpus, qs [][]float32) {
	rng := rand.New(rand.NewSource(47))
	corpus = make([][]float32, size)
	for i := range corpus {
		corpus[i] = search.EmbedDescription(genPEDescription(rng, i))
	}
	qs = make([][]float32, queries)
	for i := range qs {
		qs[i] = search.EmbedDescription(genPEDescription(rng, size+i))
	}
	return corpus, qs
}

// timeQueries runs every query at top-10 and reports the mean latency and
// the hits.
func timeQueries(idx index.VectorIndex, qs [][]float32) (time.Duration, [][]index.Candidate) {
	hits := make([][]index.Candidate, 0, len(qs))
	start := time.Now()
	for _, q := range qs {
		hits = append(hits, idx.Search(q, 10, nil))
	}
	return time.Since(start) / time.Duration(len(qs)), hits
}

// recallAgainst measures what fraction of the exact hit lists the
// approximate ones recover.
func recallAgainst(exact, approx [][]index.Candidate) float64 {
	var found, want int
	for i := range exact {
		truth := map[int]bool{}
		for _, c := range exact[i] {
			truth[c.ID] = true
		}
		want += len(truth)
		for _, c := range approx[i] {
			if truth[c.ID] {
				found++
			}
		}
	}
	if want == 0 {
		return 1
	}
	return float64(found) / float64(want)
}

// RunSearchBench measures mean query latency and recall@10 for both index
// implementations at the given corpus sizes, with the clustered index tuned
// by cfg (the zero value reproduces the historic auto settings: ~sqrt(N)
// centroids, centroids/4 fixed probes).
func RunSearchBench(sizes []int, queries int, cfg index.ClusteredConfig) (*SearchBenchResult, error) {
	if len(sizes) == 0 {
		sizes = []int{100, 1000, 10000}
	}
	if queries <= 0 {
		queries = 50
	}
	res := &SearchBenchResult{Queries: queries, Cfg: cfg}
	for _, n := range sizes {
		corpus, qs := GenSearchCorpus(n, queries)
		flat := index.NewFlat()
		clus := index.NewClustered(cfg)
		for i, v := range corpus {
			flat.Upsert(i+1, v)
			clus.Upsert(i+1, v)
		}
		// Measure the settled index: retrains run in the background since
		// the durability work, so force one full training over the complete
		// corpus before timing (mid-retrain serving behaviour is
		// -persistbench's subject, not this comparison's).
		clus.TrainNow()
		pc := attachProbeMetrics(clus)

		flatPer, flatHits := timeQueries(flat, qs)
		clusPer, clusHits := timeQueries(clus, qs)
		speedup := 0.0
		if clusPer > 0 {
			speedup = float64(flatPer) / float64(clusPer)
		}
		res.Rows = append(res.Rows, SearchBenchRow{
			CorpusSize: n, FlatQuery: flatPer, ClusteredQry: clusPer,
			Speedup: speedup, RecallAt10: recallAgainst(flatHits, clusHits),
			Probes: pc.summary(),
		})
	}
	return res, nil
}

// Render formats the comparison as a text table.
func (r *SearchBenchResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Vector-index comparison: exact Flat scan vs Clustered IVF probe\n")
	fmt.Fprintf(&sb, "(%d queries per corpus size, top-10, recall measured against Flat; %s)\n",
		r.Queries, describeKnobs(r.Cfg))
	sb.WriteString("  corpus    flat/query    clustered/query   speedup   recall@10   probes p50/p90\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %6d  %12v  %16v  %7.2fx  %9.3f   %6.0f/%-6.0f\n",
			row.CorpusSize, row.FlatQuery.Round(time.Microsecond),
			row.ClusteredQry.Round(time.Microsecond), row.Speedup, row.RecallAt10,
			row.Probes.P50, row.Probes.P90)
	}
	sb.WriteString("probe telemetry (same histograms /metrics exports):\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %6d  stop rules: %s\n", row.CorpusSize, describeStops(row.Probes.Stops))
	}
	return sb.String()
}

// describeKnobs renders a ClusteredConfig compactly for table headers.
func describeKnobs(cfg index.ClusteredConfig) string {
	var parts []string
	if cfg.RecallTarget > 0 {
		parts = append(parts, fmt.Sprintf("target=%.2f", cfg.RecallTarget))
		if cfg.NProbe > 0 {
			parts = append(parts, fmt.Sprintf("floor=%d", cfg.NProbe))
		}
		if cfg.MaxProbe > 0 {
			parts = append(parts, fmt.Sprintf("maxprobe=%d", cfg.MaxProbe))
		}
	} else if cfg.NProbe > 0 {
		parts = append(parts, fmt.Sprintf("nprobe=%d", cfg.NProbe))
	} else {
		parts = append(parts, "nprobe=auto")
	}
	if cfg.SpillRatio > 0 {
		parts = append(parts, fmt.Sprintf("spill=%.2f", cfg.SpillRatio))
	}
	if cfg.Overfetch > 1 {
		parts = append(parts, fmt.Sprintf("overfetch=%d", cfg.Overfetch))
	}
	if cfg.Quantize {
		parts = append(parts, "quantize=int8")
	}
	return strings.Join(parts, " ")
}

// FrontierRow is one knob setting on the recall-vs-latency frontier.
type FrontierRow struct {
	Label      string
	Cfg        index.ClusteredConfig
	Query      time.Duration
	Speedup    float64
	RecallAt10 float64
	Probes     ProbeSummary
}

// FrontierTable is the knob sweep measured over one corpus profile.
type FrontierTable struct {
	Profile   string
	FlatQuery time.Duration
	Rows      []FrontierRow
}

// SearchFrontierResult sweeps the recall-engine knobs over both corpus
// profiles — the realistic PE-description embeddings the index actually
// serves and the adversarial isotropic-noise synthetic — so the
// speed/recall trade-off reads as two tables with the workload's character
// made explicit.
type SearchFrontierResult struct {
	CorpusSize int
	Queries    int
	Tables     []FrontierTable
}

// frontierSettings is the published knob sweep: the historic fixed-probe
// policies, the adaptive ladder, and the spilled + re-ranked combinations
// (docs/search.md embeds the rendered tables).
func frontierSettings() []FrontierRow {
	return []FrontierRow{
		{Label: "fixed nprobe=auto (legacy)", Cfg: index.ClusteredConfig{}},
		{Label: "target=.80", Cfg: index.ClusteredConfig{RecallTarget: 0.80}},
		{Label: "target=.90", Cfg: index.ClusteredConfig{RecallTarget: 0.90}},
		{Label: "target=.90 spill=.10", Cfg: index.ClusteredConfig{RecallTarget: 0.90, SpillRatio: 0.1}},
		{Label: "target=.90 spill=.10 of=8 q8", Cfg: index.ClusteredConfig{RecallTarget: 0.90, SpillRatio: 0.1, Overfetch: 8, Quantize: true}},
		{Label: "target=.99", Cfg: index.ClusteredConfig{RecallTarget: 0.99}},
		{Label: "target=1.0 (provably exact)", Cfg: index.ClusteredConfig{RecallTarget: 1.0}},
	}
}

// frontierTable measures the published settings over one corpus. Settings
// that share a trained structure (same centroids and spill ratio) reuse it
// via snapshot restore instead of re-running k-means, mirroring how a
// deployment retunes query-time knobs across restarts.
func frontierTable(profile string, corpus, qs [][]float32) (FrontierTable, error) {
	flat := index.NewFlat()
	vecs := make(map[int][]float32, len(corpus))
	for i, v := range corpus {
		flat.Upsert(i+1, v)
		vecs[i+1] = v
	}
	flatPer, flatHits := timeQueries(flat, qs)
	table := FrontierTable{Profile: profile, FlatQuery: flatPer}

	trained := map[float64]*index.Snapshot{}
	for _, row := range frontierSettings() {
		snap, ok := trained[row.Cfg.SpillRatio]
		if !ok {
			seed := index.NewClustered(index.ClusteredConfig{SpillRatio: row.Cfg.SpillRatio})
			for id, v := range vecs {
				seed.Upsert(id, v)
			}
			seed.TrainNow()
			snap = seed.Snapshot()
			trained[row.Cfg.SpillRatio] = snap
		}
		clus := index.NewClustered(row.Cfg)
		if err := clus.Restore(snap, vecs); err != nil {
			return table, fmt.Errorf("frontier %q: %w", row.Label, err)
		}
		pc := attachProbeMetrics(clus)
		per, hits := timeQueries(clus, qs)
		row.Query = per
		if per > 0 {
			row.Speedup = float64(flatPer) / float64(per)
		}
		row.RecallAt10 = recallAgainst(flatHits, hits)
		row.Probes = pc.summary()
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}

// RunSearchFrontier measures the knob sweep at one corpus size over both
// corpus profiles.
func RunSearchFrontier(size, queries int) (*SearchFrontierResult, error) {
	if size <= 0 {
		size = 10000
	}
	if queries <= 0 {
		queries = 50
	}
	res := &SearchFrontierResult{CorpusSize: size, Queries: queries}
	for _, p := range []struct {
		name string
		gen  func(int, int) ([][]float32, [][]float32)
	}{
		{"PE-description embeddings (the serving workload)", GenPECorpus},
		{"adversarial isotropic-noise synthetic", GenSearchCorpus},
	} {
		corpus, qs := p.gen(size, queries)
		table, err := frontierTable(p.name, corpus, qs)
		if err != nil {
			return nil, err
		}
		res.Tables = append(res.Tables, table)
	}
	return res, nil
}

// Render formats the frontier as text tables.
func (r *SearchFrontierResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Recall-vs-latency frontier at %d vectors (%d queries, top-10, recall against Flat)\n",
		r.CorpusSize, r.Queries)
	for _, table := range r.Tables {
		fmt.Fprintf(&sb, "\n%s — flat baseline %v/query\n", table.Profile, table.FlatQuery.Round(time.Microsecond))
		sb.WriteString("  setting                          query      speedup   recall@10   probes p50/p90   stop rules\n")
		for _, row := range table.Rows {
			fmt.Fprintf(&sb, "  %-29s  %9v  %7.2fx  %9.3f   %6.0f/%-6.0f   %s\n",
				row.Label, row.Query.Round(time.Microsecond), row.Speedup, row.RecallAt10,
				row.Probes.P50, row.Probes.P90, describeStops(row.Probes.Stops))
		}
	}
	return sb.String()
}

// RunSearchSmoke is the CI recall gate (`make searchbench-smoke`): a tiny
// corpus, seconds of wall clock, hard floors. It fails when the tuned
// recall engine drops below recall@10 0.9 on the realistic corpus, falls
// behind the fixed-nprobe baseline it is supposed to dominate, or when
// target 1.0 stops being exact — the three regressions that would silently
// degrade search quality. The same floors gate the int8-quantized engine:
// quantization is a latency trade and must never cost recall below the
// floor, and with target 1.0 it must bypass itself entirely and stay exact.
func RunSearchSmoke() (string, error) {
	const size, queries = 1000, 25
	corpus, qs := GenPECorpus(size, queries)
	flat := index.NewFlat()
	fixed := index.NewClustered(index.ClusteredConfig{})
	engine := index.NewClustered(index.ClusteredConfig{RecallTarget: 0.9, SpillRatio: 0.1})
	quant := index.NewClustered(index.ClusteredConfig{RecallTarget: 0.9, SpillRatio: 0.1, Overfetch: 8, Quantize: true})
	exact := index.NewClustered(index.ClusteredConfig{RecallTarget: 1.0})
	exactQ := index.NewClustered(index.ClusteredConfig{RecallTarget: 1.0, Quantize: true})
	for i, v := range corpus {
		flat.Upsert(i+1, v)
		fixed.Upsert(i+1, v)
		engine.Upsert(i+1, v)
		quant.Upsert(i+1, v)
		exact.Upsert(i+1, v)
		exactQ.Upsert(i+1, v)
	}
	fixed.TrainNow()
	engine.TrainNow()
	quant.TrainNow()
	exact.TrainNow()
	exactQ.TrainNow()

	_, flatHits := timeQueries(flat, qs)
	_, fixedHits := timeQueries(fixed, qs)
	_, engineHits := timeQueries(engine, qs)
	_, quantHits := timeQueries(quant, qs)
	_, exactHits := timeQueries(exact, qs)
	_, exactQHits := timeQueries(exactQ, qs)

	base := recallAgainst(flatHits, fixedHits)
	got := recallAgainst(flatHits, engineHits)
	gotQ := recallAgainst(flatHits, quantHits)
	summary := fmt.Sprintf("searchbench-smoke: %d vectors, %d queries: recall@10 %.3f, int8-quantized %.3f (fixed-nprobe baseline %.3f)",
		size, queries, got, gotQ, base)
	if got < 0.9 {
		return summary, fmt.Errorf("recall engine recall@10 %.3f below the 0.9 floor", got)
	}
	if got < base {
		return summary, fmt.Errorf("recall engine recall@10 %.3f below the fixed-nprobe baseline %.3f", got, base)
	}
	if gotQ < 0.9 {
		return summary, fmt.Errorf("quantized recall engine recall@10 %.3f below the 0.9 floor", gotQ)
	}
	if gotQ < base {
		return summary, fmt.Errorf("quantized recall engine recall@10 %.3f below the fixed-nprobe baseline %.3f", gotQ, base)
	}
	if ex := recallAgainst(flatHits, exactHits); ex < 1 {
		return summary, fmt.Errorf("RecallTarget=1.0 recall@10 %.3f, want exactly 1 (exactness regression)", ex)
	}
	if ex := recallAgainst(flatHits, exactQHits); ex < 1 {
		return summary, fmt.Errorf("RecallTarget=1.0 with quantization recall@10 %.3f, want exactly 1 (quantize bypass regression)", ex)
	}
	// The hybrid-retrieval gate rides along: on exact-identifier queries
	// the BM25+RRF pipeline must never fall behind pure ANN.
	hybridSummary, err := hybridSmokeGate()
	summary += "\n" + "searchbench-smoke: " + hybridSummary
	if err != nil {
		return summary, err
	}
	return summary, nil
}
