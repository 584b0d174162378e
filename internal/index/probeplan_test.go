package index

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"laminar/internal/telemetry"
	"laminar/internal/vecmath"
)

// referenceFixedSearch states what a fixed-nprobe Search returns without
// sharing a line with searchLocked: rank every centroid, take the n best
// (score descending, index ascending), score the union of their members
// and the overflow buffer — a set, so spill replicas count once — and
// fully sort. With a quantized companion the union is ranked by int8
// score first, cut to k·Overfetch, and rescored exactly.
func referenceFixedSearch(c *Clustered, q []float32, n, k int, filter Filter) (hits []Candidate, probes, scanned int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ts := c.trained
	order := make([]int, len(ts.centroids))
	for ci := range order {
		order[ci] = ci
	}
	sort.SliceStable(order, func(a, b int) bool {
		return dot(q, ts.centroids[order[a]]) > dot(q, ts.centroids[order[b]])
	})
	ids := map[int]bool{}
	probes = min(n, len(order))
	for _, ci := range order[:probes] {
		for _, id := range ts.shards[ci] {
			ids[id] = true
		}
	}
	for id := range c.overflow {
		ids[id] = true
	}
	qCodes, qScale := vecmath.Quantize(q)
	for id := range ids {
		if filter != nil && !filter(id) {
			continue
		}
		s := dot(q, c.vecs[id])
		if c.qset != nil {
			s, _ = c.qset.Dot(qCodes, qScale, id)
		}
		hits = append(hits, Candidate{ID: id, Score: s})
	}
	scanned = len(hits)
	sort.Slice(hits, func(i, j int) bool { return Better(hits[i], hits[j]) })
	if c.qset != nil {
		hits = hits[:min(k*max(c.cfg.Overfetch, 1), len(hits))]
		for i := range hits {
			hits[i].Score = dot(q, c.vecs[hits[i].ID])
		}
		sort.Slice(hits, func(i, j int) bool { return Better(hits[i], hits[j]) })
	}
	return hits[:min(k, len(hits))], probes, scanned
}

// TestProbePlanMatchesReference holds the one probe loop to an independent
// reference. Every fixed-nprobe configuration (plain, quantized + overfetch,
// spilled, full probe), filtered and not, settled and with a retrain held
// open over a populated overflow buffer, must return the reference scan's
// candidates and report its probe and scanned counts; a plan that probes
// every shard must equal Flat; and each configuration must attribute its
// stops to exactly the rules its plan can reach.
func TestProbePlanMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		n     int // corpus size; < minTrainSize keeps the brute path
		cfg   ClusteredConfig
		rules []string // the labels the queries must, between them, produce
		exact bool     // the plan probes until nothing is lost: equals Flat
		tight bool     // a topic-clustered corpus, whose shard bounds can close
	}{
		{"brute", minTrainSize - 10, ClusteredConfig{Quantize: true}, []string{StopBrute}, true, false},
		{"fixed-plain", 500, ClusteredConfig{NProbe: 3}, []string{StopFixed}, false, false},
		{"fixed-quantized", 500, ClusteredConfig{NProbe: 3, Overfetch: 4, Quantize: true}, []string{StopFixed}, false, false},
		{"fixed-spilled", 500, ClusteredConfig{NProbe: 2, SpillRatio: 0.3, Overfetch: 4}, []string{StopFixed}, false, false},
		{"fixed-full", 500, ClusteredConfig{NProbe: 1 << 20, SpillRatio: 0.3}, []string{StopFixed}, true, false},
		{"adaptive", 500, ClusteredConfig{RecallTarget: 0.5, SpillRatio: 0.2, Overfetch: 4, Quantize: true}, []string{StopPatience}, false, false},
		{"adaptive-budget", 500, ClusteredConfig{RecallTarget: 0.9, NProbe: 2, MaxProbe: 2}, []string{StopBudget}, false, false},
		{"adaptive-exact", 300, ClusteredConfig{RecallTarget: 1.0, Quantize: true}, []string{StopExhausted}, true, false},
		{"adaptive-exact-tight", 300, ClusteredConfig{RecallTarget: 1.0, SpillRatio: 0.2}, []string{StopProof}, true, true},
	}
	filters := map[string]Filter{
		"unfiltered": nil,
		"even-ids":   func(id int) bool { return id%2 == 0 },
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(113))
			clus, flat := NewClustered(tc.cfg), NewFlat()
			queries := make([][]float32, 8)
			if tc.tight {
				var corpus [][]float32
				corpus, queries = topicCorpus(113, tc.n, 24, len(queries), 0.05)
				for i, v := range corpus {
					clus.Upsert(i+1, v)
					flat.Upsert(i+1, v)
				}
			} else {
				liveCorpus(rng, tc.n, 24, clus, flat)
				for i := range queries {
					queries[i] = unitVec(rng, 24)
				}
			}
			clus.TrainNow()
			clus.mu.RLock()
			trained := clus.trained != nil
			clus.mu.RUnlock()
			if trained != (tc.n >= minTrainSize) {
				t.Fatalf("corpus of %d: trained = %v", tc.n, trained)
			}
			reg := telemetry.NewRegistry()
			m := &ClusteredMetrics{
				Probes:  reg.Histogram("probes", "probes", telemetry.CountBuckets()),
				Scanned: reg.Histogram("scanned", "scanned", telemetry.CountBuckets()),
				Stops:   reg.CounterVec("stops", "stops", "rule"),
			}
			clus.SetMetrics(m)

			check := func(stage string) {
				for fname, filter := range filters {
					for qi, q := range queries {
						probes, scanned := m.Probes.Sum(), m.Scanned.Sum()
						got := clus.Search(q, 10, filter)
						if tc.exact {
							if want := flat.Search(q, 10, filter); fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
								t.Errorf("%s/%s: query %d diverged from Flat:\n got %v\nwant %v", stage, fname, qi, got, want)
							}
						}
						if tc.cfg.RecallTarget != 0 || !trained {
							continue
						}
						want, wantProbes, wantScanned := referenceFixedSearch(clus, q, tc.cfg.NProbe, 10, filter)
						if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
							t.Errorf("%s/%s: query %d diverged from the reference scan:\n got %v\nwant %v", stage, fname, qi, got, want)
						}
						if p, s := m.Probes.Sum()-probes, m.Scanned.Sum()-scanned; int(p) != wantProbes || int(s) != wantScanned {
							t.Errorf("%s/%s: query %d observed %v probes / %v scanned, want %d / %d", stage, fname, qi, p, s, wantProbes, wantScanned)
						}
					}
				}
			}
			check("settled")

			if trained {
				// Hold a retrain open: fresh and replaced vectors now sit in
				// the overflow buffer, which every plan scans in full.
				release := make(chan struct{})
				clus.mu.Lock()
				clus.retrainHook = func() { <-release }
				clus.launchRetrainLocked()
				clus.mu.Unlock()
				for id := tc.n - 10; id <= tc.n+10; id++ {
					v := unitVec(rng, 24)
					clus.Upsert(id, v)
					flat.Upsert(id, v)
				}
				clus.mu.RLock()
				buffered := len(clus.overflow)
				clus.mu.RUnlock()
				if buffered == 0 {
					t.Fatal("no vector reached the overflow buffer")
				}
				check("mid-retrain")
				close(release)
				clus.WaitRetrain()
			}

			var seen []string
			for rule, n := range m.Stops.Values() {
				if n > 0 {
					seen = append(seen, rule)
				}
			}
			sort.Strings(seen)
			if fmt.Sprint(seen) != fmt.Sprint(tc.rules) {
				t.Errorf("stop attributions %v, want %v (%v)", seen, tc.rules, m.Stops.Values())
			}
		})
	}
}
