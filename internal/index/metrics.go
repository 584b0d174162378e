package index

import "laminar/internal/telemetry"

// Stop-rule attribution values recorded per query under the "rule" label
// of ClusteredMetrics.Stops. Together they explain *why* each clustered
// search stopped scanning where it did — the per-query cost story behind
// the recall-vs-latency frontier of docs/search.md (see docs/operations.md
// for how to read the distribution in production).
const (
	// StopProof: the kth-best candidate provably beat every unprobed
	// shard's score bound — the scan lost nothing by stopping. The only
	// rule allowed at RecallTarget 1.0.
	StopProof = "proof"
	// StopPatience: the diminishing-returns rule — enough consecutive
	// shards contributed nothing to the top-k (patience scales with the
	// recall target).
	StopPatience = "diminishing-returns"
	// StopBudget: the MaxProbe latency budget truncated the scan before
	// either quality rule fired; recall may be below target.
	StopBudget = "max-probe"
	// StopExhausted: the adaptive scan visited every shard without a stop
	// rule firing — the query was hard enough to degenerate to a full
	// probe.
	StopExhausted = "exhausted"
	// StopFixed: the fixed-NProbe plan (no RecallTarget) ran to its cap;
	// the probe count is a constant, not a per-query decision.
	StopFixed = "fixed-nprobe"
	// StopBrute: no clustering is live yet (corpus below the training
	// threshold or first training still pending); the query brute-scanned
	// the whole corpus exactly.
	StopBrute = "brute-scan"
)

// ClusteredMetrics is the observability surface a Clustered index reports
// into, installed with SetMetrics. Every field is optional — a nil field
// simply records nothing — so owners can wire exactly the instruments
// they export. The fields are telemetry instruments rather than raw
// callbacks so recording stays a couple of atomic operations inside the
// query's read-lock scope.
type ClusteredMetrics struct {
	// Probes observes the number of shards each query scanned.
	Probes *telemetry.Histogram
	// Scanned observes the number of candidate vectors each query scored
	// (shard members after filter/dedup, plus the overflow buffer).
	Scanned *telemetry.Histogram
	// Stops counts queries by the rule that ended their shard scan; the
	// single label is "rule" with the Stop* values above.
	Stops *telemetry.CounterVec
	// Retrains counts completed full retrains.
	Retrains *telemetry.Counter
	// RetrainSeconds observes the wall-clock duration of each completed
	// retrain (k-means plus merge).
	RetrainSeconds *telemetry.Histogram
	// QuantizedScans counts queries whose candidate pass ran over the int8
	// quantized companion set instead of full float dot products.
	QuantizedScans *telemetry.Counter
}

// observeQuery records one search's probe cost and stop attribution.
func (m *ClusteredMetrics) observeQuery(probes, scanned int, rule string) {
	if m == nil {
		return
	}
	if m.Probes != nil {
		m.Probes.Observe(float64(probes))
	}
	if m.Scanned != nil {
		m.Scanned.Observe(float64(scanned))
	}
	if m.Stops != nil {
		m.Stops.With(rule).Inc()
	}
}

// observeQuantized records that one search's candidate pass was scored
// over the quantized companion set.
func (m *ClusteredMetrics) observeQuantized() {
	if m == nil || m.QuantizedScans == nil {
		return
	}
	m.QuantizedScans.Inc()
}

// observeRetrain records one completed retrain and its duration.
func (m *ClusteredMetrics) observeRetrain(seconds float64) {
	if m == nil {
		return
	}
	if m.Retrains != nil {
		m.Retrains.Inc()
	}
	if m.RetrainSeconds != nil {
		m.RetrainSeconds.Observe(seconds)
	}
}

// SetMetrics installs (or, with nil, removes) the index's observability
// surface. Safe to call while serving; queries pick up the new surface on
// their next lock acquisition.
func (c *Clustered) SetMetrics(m *ClusteredMetrics) {
	c.mu.Lock()
	c.metrics = m
	c.mu.Unlock()
}
