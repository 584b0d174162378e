package registry

import (
	"laminar/internal/index"
	"laminar/internal/telemetry"
)

// Telemetry wiring. The registry exports two metric groups (all names
// documented in docs/operations.md, cross-validated by `make
// metrics-smoke`):
//
//   - persistence: save/load counters, error counters and duration
//     histograms, plus live record-count gauges read at scrape time;
//   - per-index query/retrain instruments, partitioned by an "index"
//     label (desc | code | workflow) and installed into every Clustered
//     index the store creates — including the fresh ones a rebuild,
//     restore or ConfigureIndex swaps in later.

// indexLabels are the "index" label values, in the store's canonical
// desc/code/workflow order.
var indexLabels = [3]string{"desc", "code", "workflow"}

// storeMetrics holds the registry's instruments; nil until SetTelemetry.
type storeMetrics struct {
	saves       *telemetry.Counter
	saveErrors  *telemetry.Counter
	saveSeconds *telemetry.Histogram
	loads       *telemetry.Counter
	loadErrors  *telemetry.Counter
	loadSeconds *telemetry.Histogram
	// loadStageSeconds breaks the most recent load down by stage.
	loadStageSeconds *telemetry.GaugeVec

	// delta-journal instruments: incremental saves, their failures, the
	// full-save compactions the policy triggers, and save latency.
	deltaSaves       *telemetry.Counter
	deltaSaveErrors  *telemetry.Counter
	deltaSaveSeconds *telemetry.Histogram
	compactions      *telemetry.Counter

	// live-ingestion instruments, shared by every Ingestor attached to the
	// store (watcher events in, batches applied, failures).
	ingestEvents       *telemetry.CounterVec
	ingestBatches      *telemetry.Counter
	ingestBatchSeconds *telemetry.Histogram
	ingestApplied      *telemetry.CounterVec
	ingestErrors       *telemetry.Counter

	// hybrid-retrieval instruments: the BM25 lexical leg and the optional
	// cross-encoder rerank stage.
	lexicalSearches *telemetry.Counter
	lexicalSeconds  *telemetry.Histogram
	rerankSearches  *telemetry.Counter
	rerankSeconds   *telemetry.Histogram
	rerankPool      *telemetry.Histogram

	// perIndex maps an index label to the instrument set installed into
	// that index (shared family, curried label).
	perIndex map[string]*index.ClusteredMetrics
}

// SetTelemetry registers the store's metrics on t and installs the
// per-index instruments into the live vector indexes. Call it once per
// store, at wiring time — registering the same store on the same
// telemetry registry twice panics (duplicate metric names), which is the
// wiring bug it should be.
func (s *Store) SetTelemetry(t *telemetry.Registry) {
	m := &storeMetrics{
		saves: t.Counter("laminar_registry_saves_total",
			"Successful registry snapshot saves."),
		saveErrors: t.Counter("laminar_registry_save_errors_total",
			"Registry snapshot saves that returned an error."),
		saveSeconds: t.Histogram("laminar_registry_save_seconds",
			"Wall-clock duration of successful registry saves.", telemetry.LatencyBuckets()),
		loads: t.Counter("laminar_registry_loads_total",
			"Successful registry snapshot loads."),
		loadErrors: t.Counter("laminar_registry_load_errors_total",
			"Registry snapshot loads that returned an error."),
		loadSeconds: t.Histogram("laminar_registry_load_seconds",
			"Wall-clock duration of successful registry loads.", telemetry.LatencyBuckets()),
		loadStageSeconds: t.GaugeVec("laminar_registry_load_stage_seconds",
			"Time the most recent registry load spent per stage; stages overlap, so they can sum past its wall-clock duration.", "stage"),
		deltaSaves: t.Counter("laminar_registry_delta_saves_total",
			"Successful incremental delta-journal saves."),
		deltaSaveErrors: t.Counter("laminar_registry_delta_save_errors_total",
			"Delta-journal saves that returned an error."),
		deltaSaveSeconds: t.Histogram("laminar_registry_delta_save_seconds",
			"Wall-clock duration of successful delta-journal saves.", telemetry.LatencyBuckets()),
		compactions: t.Counter("laminar_registry_delta_compactions_total",
			"Delta chains compacted into a full snapshot by the save policy."),
		ingestEvents: t.CounterVec("laminar_ingest_events_total",
			"Ingestion events accepted by the live ingestor.", "kind"),
		ingestBatches: t.Counter("laminar_ingest_batches_total",
			"Coalesced ingestion batches applied to the registry."),
		ingestBatchSeconds: t.Histogram("laminar_ingest_batch_seconds",
			"Wall-clock duration of applied ingestion batches.", telemetry.LatencyBuckets()),
		ingestApplied: t.CounterVec("laminar_ingest_applied_total",
			"Registry mutations applied by the live ingestor.", "kind"),
		ingestErrors: t.Counter("laminar_ingest_errors_total",
			"Ingestion events whose registry mutation failed."),
		lexicalSearches: t.Counter("laminar_lexical_searches_total",
			"BM25 lexical-leg retrievals served by hybrid search."),
		lexicalSeconds: t.Histogram("laminar_lexical_search_seconds",
			"Wall-clock duration of BM25 lexical-leg retrievals.", telemetry.LatencyBuckets()),
		rerankSearches: t.Counter("laminar_rerank_searches_total",
			"Cross-encoder rerank stages executed by hybrid search."),
		rerankSeconds: t.Histogram("laminar_rerank_seconds",
			"Wall-clock duration of cross-encoder rerank stages.", telemetry.LatencyBuckets()),
		rerankPool: t.Histogram("laminar_rerank_pool_size",
			"Fused candidate-pool size entering the rerank stage.", telemetry.CountBuckets()),
		perIndex: map[string]*index.ClusteredMetrics{},
	}
	probes := t.HistogramVec("laminar_index_probe_shards",
		"Shards scanned per vector-index query.", telemetry.CountBuckets(), "index")
	scanned := t.HistogramVec("laminar_index_scanned_vectors",
		"Candidate vectors scored per vector-index query.", telemetry.CountBuckets(), "index")
	stops := t.CounterVec("laminar_index_query_stops_total",
		"Vector-index queries by the rule that ended their shard scan.", "index", "rule")
	retrains := t.CounterVec("laminar_index_retrains_total",
		"Completed full index retrains.", "index")
	retrainSeconds := t.HistogramVec("laminar_index_retrain_seconds",
		"Wall-clock duration of completed index retrains.", telemetry.LatencyBuckets(), "index")
	quantizedScans := t.CounterVec("laminar_index_quantized_scans_total",
		"Vector-index queries whose candidate pass scored int8 quantized codes.", "index")
	for _, label := range indexLabels {
		m.perIndex[label] = &index.ClusteredMetrics{
			Probes:         probes.With(label),
			Scanned:        scanned.With(label),
			Stops:          stops.Curry(label),
			Retrains:       retrains.With(label),
			RetrainSeconds: retrainSeconds.With(label),
			QuantizedScans: quantizedScans.With(label),
		}
	}

	t.GaugeFunc("laminar_registry_delta_segments", "Delta-journal segments pending compaction.", func() float64 {
		return float64(s.chainSegments.Load())
	})
	t.GaugeFunc("laminar_registry_users", "Registered user accounts.", func() float64 {
		s.usersMu.RLock()
		defer s.usersMu.RUnlock()
		return float64(len(s.users))
	})
	t.GaugeFunc("laminar_registry_pes", "Registered Processing Elements.", func() float64 {
		s.pesMu.RLock()
		defer s.pesMu.RUnlock()
		return float64(len(s.pes))
	})
	t.GaugeFunc("laminar_registry_workflows", "Registered workflows.", func() float64 {
		s.wfsMu.RLock()
		defer s.wfsMu.RUnlock()
		return float64(len(s.workflows))
	})
	t.GaugeFunc("laminar_lexical_docs", "Documents in the BM25 lexical indexes (PEs + workflows).", func() float64 {
		docs, _ := s.LexicalStats()
		return float64(docs)
	})
	t.GaugeFunc("laminar_lexical_terms", "Distinct terms with live postings in the BM25 lexical indexes.", func() float64 {
		_, terms := s.LexicalStats()
		return float64(terms)
	})

	s.idxMu.Lock()
	s.metrics = m
	s.applyIndexMetricsLocked()
	s.idxMu.Unlock()
}

// Instrumented reports whether SetTelemetry has run. The server checks it
// so an owner that instrumented the store early (the façade does, before
// loading, so the startup load is counted) is not instrumented twice.
func (s *Store) Instrumented() bool {
	s.idxMu.RLock()
	defer s.idxMu.RUnlock()
	return s.metrics != nil
}

// applyIndexMetricsLocked installs the per-index instruments into every
// live index that supports them (the Flat index exports nothing — its
// cost model is a constant full scan). Caller holds idxMu.W. Rebuilds,
// restores and ConfigureIndex call this after swapping in fresh indexes,
// so the instruments survive index replacement.
func (s *Store) applyIndexMetricsLocked() {
	if s.metrics == nil {
		return
	}
	for i, idx := range []index.VectorIndex{s.descIndex, s.codeIndex, s.wfIndex} {
		if setter, ok := idx.(interface{ SetMetrics(*index.ClusteredMetrics) }); ok {
			setter.SetMetrics(s.metrics.perIndex[indexLabels[i]])
		}
	}
}
