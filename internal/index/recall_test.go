package index

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// topicCorpus draws a seeded topic-clustered corpus of unit vectors plus
// query vectors from the same distribution. The noise level shapes how
// cleanly the corpus clusters: real embedding corpora (token-direction sums
// over shared vocabulary) sit at the clean end, the search benchmark's
// adversarial profile at the noisy end.
func topicCorpus(seed int64, n, dim, queries int, noise float64) (corpus, qs [][]float32) {
	rng := rand.New(rand.NewSource(seed))
	topics := make([][]float32, 16)
	for t := range topics {
		topics[t] = unitVec(rng, dim)
	}
	draw := func() []float32 {
		base := topics[rng.Intn(len(topics))]
		v := make([]float32, dim)
		var norm float64
		for i := range v {
			x := float64(base[i]) + noise*rng.NormFloat64()
			v[i] = float32(x)
			norm += x * x
		}
		norm = math.Sqrt(norm)
		for i := range v {
			v[i] = float32(float64(v[i]) / norm)
		}
		return v
	}
	corpus = make([][]float32, n)
	for i := range corpus {
		corpus[i] = draw()
	}
	qs = make([][]float32, queries)
	for i := range qs {
		qs[i] = draw()
	}
	return corpus, qs
}

// recallAt10 measures the fraction of the exact top-10 an approximate
// index recovers over the given queries.
func recallAt10(exact, approx VectorIndex, qs [][]float32) float64 {
	var found, want int
	for _, q := range qs {
		truth := map[int]bool{}
		for _, c := range exact.Search(q, 10, nil) {
			truth[c.ID] = true
		}
		want += len(truth)
		for _, c := range approx.Search(q, 10, nil) {
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

// TestSpilledAdaptiveRecallBeatsFixed is the recall-floor property of the
// recall engine: on a seeded topic-clustered corpus, adaptive probing with
// spilled shards must reach recall@10 at least
// as high as the historic fixed-nprobe baseline (same centroid count, auto
// probe count), and clear the 0.9 floor the ROADMAP targets.
func TestSpilledAdaptiveRecallBeatsFixed(t *testing.T) {
	for _, seed := range []int64{7, 61, 193} {
		corpus, qs := topicCorpus(seed, 1500, 64, 25, 0.2)
		flat := NewFlat()
		fixed := NewClustered(ClusteredConfig{})
		engine := NewClustered(ClusteredConfig{
			RecallTarget: 0.95,
			SpillRatio:   0.25,
		})
		for i, v := range corpus {
			flat.Upsert(i+1, v)
			fixed.Upsert(i+1, v)
			engine.Upsert(i+1, v)
		}
		fixed.TrainNow()
		engine.TrainNow()

		base := recallAt10(flat, fixed, qs)
		got := recallAt10(flat, engine, qs)
		if got < base {
			t.Errorf("seed %d: engine recall %.3f below fixed-nprobe baseline %.3f", seed, got, base)
		}
		if got < 0.9 {
			t.Errorf("seed %d: engine recall %.3f below the 0.9 floor", seed, got)
		}
	}
}

// TestOverfetchNeedsQuantize: Overfetch widens only a quantized pool. On
// exact scores a wider pool selects the same top-k, so without Quantize
// the knob must change nothing — at 128 dimensions too, where a
// half-width prefix score used to stand in for the exact one.
func TestOverfetchNeedsQuantize(t *testing.T) {
	corpus, qs := topicCorpus(7, 800, 128, 20, 0.2)
	for _, base := range []ClusteredConfig{{NProbe: 3}, {RecallTarget: 0.9, SpillRatio: 0.2}} {
		wide := base
		wide.Overfetch = 8
		plain, widened := NewClustered(base), NewClustered(wide)
		for i, v := range corpus {
			plain.Upsert(i+1, v)
			widened.Upsert(i+1, v)
		}
		plain.TrainNow()
		widened.TrainNow()
		for qi, q := range qs {
			got, want := widened.Search(q, 10, nil), plain.Search(q, 10, nil)
			if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
				t.Fatalf("%+v query %d: Overfetch changed an exact-scored result:\n got %v\nwant %v", base, qi, got, want)
			}
		}
	}
}

// TestRecallTargetOneIsExact pins the degeneration contract: RecallTarget
// 1.0 disables the slack (and the quantized pass), so the adaptive stop rule
// only fires when no unprobed shard can possibly improve the result — the
// search must equal Flat byte-for-byte, spill replicas, deletions and
// re-upserts notwithstanding.
func TestRecallTargetOneIsExact(t *testing.T) {
	f := func(seed int64, nRaw uint16, kRaw uint8, spillRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%500) + minTrainSize
		k := int(kRaw%15) + 1
		spill := float64(spillRaw%3) * 0.2 // 0, 0.2, 0.4

		flat := NewFlat()
		clus := NewClustered(ClusteredConfig{
			RecallTarget: 1.0,
			SpillRatio:   spill,
			Overfetch:    8, // must be ignored at target 1.0
		})
		live := liveCorpus(rng, n, 24, flat, clus)
		clus.WaitRetrain()
		if len(live) == 0 {
			return true
		}
		for q := 0; q < 6; q++ {
			query := unitVec(rng, 24)
			got := clus.Search(query, k, nil)
			want := flat.Search(query, k, nil)
			if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
				t.Logf("seed=%d n=%d k=%d spill=%.1f query %d diverged:\n got %v\nwant %v",
					seed, n, k, spill, q, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSpilledFullProbeMatchesFlat: spill replicas overlap the shards, so a
// full probe visits near-boundary vectors twice — deduplication must keep
// the result identical to Flat, not duplicated.
func TestSpilledFullProbeMatchesFlat(t *testing.T) {
	f := func(seed int64, centRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		centroids := int(centRaw%12) + 2
		flat := NewFlat()
		clus := NewClustered(ClusteredConfig{Centroids: centroids, NProbe: centroids, SpillRatio: 0.5})
		live := liveCorpus(rng, 300, 16, flat, clus)
		clus.WaitRetrain()
		if len(live) == 0 {
			return true
		}
		query := unitVec(rng, 16)
		got := clus.Search(query, 10, nil)
		want := flat.Search(query, 10, nil)
		return fmt.Sprintf("%v", got) == fmt.Sprintf("%v", want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteChurnTriggersRetrain: a corpus that churns in place (delete +
// insert at a steady size) never crosses a corpus doubling, but the
// accumulated removals must still relaunch the training once they reach the
// size the clustering was computed over.
func TestDeleteChurnTriggersRetrain(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	clus := NewClustered(ClusteredConfig{Centroids: 8, NProbe: 8})
	flat := NewFlat()
	n := 2 * minTrainSize
	for id := 1; id <= n; id++ {
		v := unitVec(rng, 8)
		clus.Upsert(id, v)
		flat.Upsert(id, v)
	}
	clus.WaitRetrain()
	before := clus.Retrains()

	// Churn: replace the oldest live id with a fresh one, keeping the
	// corpus size constant the whole time. Well before 2*n mutations the
	// removal count alone must have relaunched a retrain. Both removal
	// spellings (Delete and the empty-vec Upsert) must feed the trigger.
	next := n
	for cycle := 0; cycle < 2*n; cycle++ {
		victim := cycle + 1
		if cycle%2 == 0 {
			clus.Delete(victim)
		} else {
			clus.Upsert(victim, nil)
		}
		flat.Delete(victim)
		next++
		v := unitVec(rng, 8)
		clus.Upsert(next, v)
		flat.Upsert(next, v)
		if clus.Len() != n {
			t.Fatalf("churn changed the corpus size: %d", clus.Len())
		}
	}
	clus.WaitRetrain()
	if got := clus.Retrains(); got <= before {
		t.Fatalf("delete-heavy churn never retrained: %d retrains before and after", got)
	}
	// The retrained index must still be exact at full probe.
	for q := 0; q < 5; q++ {
		query := unitVec(rng, 8)
		got := clus.Search(query, 10, nil)
		want := flat.Search(query, 10, nil)
		if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
			t.Fatalf("post-churn-retrain query %d diverged:\n got %v\nwant %v", q, got, want)
		}
	}
}

// TestSpillSnapshotRoundTrip: the version-2 snapshot carries the spill
// replicas and the ratio that produced them through both codecs, restores
// into an identically-configured index with identical limited-probe
// results and zero retrains, and fails closed on a ratio mismatch.
func TestSpillSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	cfg := ClusteredConfig{Centroids: 8, NProbe: 2, SpillRatio: 0.3}
	src := NewClustered(cfg)
	live := liveCorpus(rng, 400, 24, src)
	src.WaitRetrain()
	snap := src.Snapshot()
	if snap.Version != SnapshotVersion {
		t.Fatalf("snapshot version %d, want %d", snap.Version, SnapshotVersion)
	}
	if snap.Clustered == nil || len(snap.Clustered.Spill) == 0 {
		t.Fatal("spill-configured snapshot carries no spill replicas")
	}
	if snap.Clustered.SpillRatio != cfg.SpillRatio {
		t.Fatalf("snapshot spill ratio %g, want %g", snap.Clustered.SpillRatio, cfg.SpillRatio)
	}

	// JSON and binary codecs must both round-trip the multi-valued
	// assignments losslessly.
	decodeJSON := func() *Snapshot {
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		var out Snapshot
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		return &out
	}
	decodeBinary := func() *Snapshot {
		var buf bytes.Buffer
		if err := snap.EncodeBinary(&buf); err != nil {
			t.Fatal(err)
		}
		out, err := DecodeSnapshotBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for name, decoded := range map[string]*Snapshot{"json": decodeJSON(), "binary": decodeBinary()} {
		dst := NewClustered(cfg)
		if err := dst.Restore(decoded, live); err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		if dst.Retrains() != 0 {
			t.Fatalf("%s: restore ran %d retrains", name, dst.Retrains())
		}
		for q := 0; q < 5; q++ {
			query := unitVec(rng, 24)
			got := dst.Search(query, 10, nil)
			want := src.Search(query, 10, nil)
			if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
				t.Fatalf("%s: restored search diverged:\n got %v\nwant %v", name, got, want)
			}
		}
	}

	// A differently-configured spill ratio must reject the snapshot — the
	// caller rebuilds at the configured ratio instead of silently ignoring
	// the knob.
	off := cfg
	off.SpillRatio = 0
	if err := NewClustered(off).Restore(snap, live); err == nil {
		t.Error("spill-ratio mismatch should fail the restore")
	}
}

// TestV1SnapshotStillRestores: a pre-spill (version 1) snapshot — single-
// valued assignments, no spill section — must keep restoring into a
// spill-off index.
func TestV1SnapshotStillRestores(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	src := NewClustered(ClusteredConfig{Centroids: 6, NProbe: 2})
	live := liveCorpus(rng, 300, 16, src)
	src.WaitRetrain()
	snap := src.Snapshot()
	// Shape the snapshot exactly as the v1 writer produced it.
	snap.Version = 1
	snap.Clustered.Spill = nil
	snap.Clustered.SpillRatio = 0

	dst := NewClustered(ClusteredConfig{Centroids: 6, NProbe: 2})
	if err := dst.Restore(snap, live); err != nil {
		t.Fatalf("v1 snapshot rejected: %v", err)
	}
	if dst.Retrains() != 0 {
		t.Fatalf("v1 restore ran %d retrains", dst.Retrains())
	}
	for q := 0; q < 5; q++ {
		query := unitVec(rng, 16)
		got := dst.Search(query, 10, nil)
		want := src.Search(query, 10, nil)
		if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
			t.Fatalf("v1-restored search diverged:\n got %v\nwant %v", got, want)
		}
	}
}
