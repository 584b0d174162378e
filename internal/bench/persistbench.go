package bench

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"laminar/internal/core"
	"laminar/internal/embed"
	"laminar/internal/index"
	"laminar/internal/registry"
	"laminar/internal/registry/storage"
	"laminar/internal/telemetry"
)

// PersistBenchResult measures the registry's durability story end to end:
// save time and footprint, whether the serving path keeps answering while
// a Save is in flight, restore-vs-rebuild cold start, and query latency
// during a live background retrain.
type PersistBenchResult struct {
	CorpusSize int

	// A full save at CorpusSize PEs.
	SaveTime time.Duration
	Bytes    int64 // JSON + sidecar

	// Serving behaviour while a Save runs: searches issued continuously
	// against the store from the moment Save starts until it returns. Under
	// the historic world-lock Save, zero searches completed mid-Save; the
	// sharded store keeps serving.
	MidSaveSearches   int
	MidSaveMeanQuery  time.Duration
	MidSaveWorstQuery time.Duration

	// RestoreLoad is Load + settle with the index snapshot present (no
	// k-means). The rebuild baseline (same snapshot with the index
	// structure stripped) is reported under both settle definitions:
	// RebuildSettle is Load + waiting out the background retrains the load
	// triggered (serving-settled, but trained only over a corpus prefix),
	// and RebuildFull additionally retrains over the complete corpus — the
	// state the snapshot actually restores.
	RestoreLoad   time.Duration
	RebuildSettle time.Duration
	RebuildFull   time.Duration
	Speedup       float64 // RebuildFull / RestoreLoad (state-equivalent)
	SpeedupSettle float64 // RebuildSettle / RestoreLoad

	// Serving-path behaviour around a background retrain.
	BaselineQuery    time.Duration // mean query latency on a settled index
	RetrainMeanQuery time.Duration // mean while a retrain is in flight
	RetrainMaxQuery  time.Duration // worst single query during the retrain
	RetrainQueries   int           // queries answered while retraining

	// Retrain telemetry from the doubling-insert phase, read off the same
	// instruments /metrics exports (laminar_index_retrains_total,
	// laminar_index_retrain_seconds).
	RetrainsCompleted uint64
	RetrainMeanSecs   float64
}

func clusteredBenchFactory() index.Factory {
	return func() index.VectorIndex {
		return index.NewClustered(index.ClusteredConfig{})
	}
}

// genUniformCorpus draws unclustered random unit vectors. Topic-free data
// is the k-means worst case — every Lloyd iteration keeps moving
// assignments, so the rebuild path pays its full retraining budget. That is
// the honest corpus for a cold-start comparison: restore cost is
// data-independent, rebuild cost is not.
func genUniformCorpus(size, queries, dim int) (corpus, qs [][]float32) {
	rng := rand.New(rand.NewSource(67))
	gen := func() []float32 {
		v := make([]float32, dim)
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
		return v
	}
	corpus = make([][]float32, size)
	for i := range corpus {
		corpus[i] = gen()
	}
	qs = make([][]float32, queries)
	for i := range qs {
		qs[i] = gen()
	}
	return corpus, qs
}

// RunPersistBench builds a size-PE registry on the clustered index, saves
// it, and measures the save, mid-Save serving, restore-vs-rebuild cold
// start and query latency during a live background retrain.
func RunPersistBench(size, queries int) (*PersistBenchResult, error) {
	if size <= 0 {
		size = 10000
	}
	if queries <= 0 {
		queries = 50
	}
	corpus, qs := genUniformCorpus(size, queries, embed.Dim)
	res := &PersistBenchResult{CorpusSize: size}

	s := registry.NewStore()
	s.ConfigureIndex(clusteredBenchFactory())
	u, err := s.RegisterUser("bench", "pw")
	if err != nil {
		return nil, err
	}
	for i, v := range corpus {
		if _, err := s.AddPE(u.UserID, core.AddPERequest{
			PEName: fmt.Sprintf("PE%06d", i), PECode: "code",
			DescEmbedding: v, CodeEmbedding: v,
		}); err != nil {
			return nil, err
		}
	}
	// Train to the full corpus before saving: the snapshot then restores a
	// genuinely full-corpus-trained clustering (not the last doubling
	// prefix plus incremental assignments), which is the state the rebuild
	// baseline below must also reach for the comparison to be fair.
	s.RetrainIndexes()

	dir, err := os.MkdirTemp("", "laminar-persistbench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	path := filepath.Join(dir, "registry.json")
	start := time.Now()
	if err := s.Save(path); err != nil {
		return nil, err
	}
	res.SaveTime = time.Since(start)
	if res.Bytes, err = storage.DiskSize(path); err != nil {
		return nil, err
	}

	// ---- serving during Save: the acceptance check that no write lock is
	// held across the marshal. Searches run back to back from the moment
	// Save starts; every one that returns before Save does proves the
	// registry was answering mid-Save. ----
	saveDone := make(chan error, 1)
	var saving atomic.Bool
	saving.Store(true)
	go func() {
		defer saving.Store(false)
		saveDone <- s.Save(filepath.Join(dir, "registry-midsave.json"))
	}()
	var midTotal time.Duration
	for i := 0; saving.Load(); i++ {
		q := qs[i%len(qs)]
		t0 := time.Now()
		s.Search(u.UserID, registry.Query{Type: core.SearchPEs, Limit: 10}, registry.Input{Embedding: q})
		d := time.Since(t0)
		if !saving.Load() {
			// This search outlived the Save; it does not count as mid-Save.
			break
		}
		midTotal += d
		if d > res.MidSaveWorstQuery {
			res.MidSaveWorstQuery = d
		}
		res.MidSaveSearches++
	}
	if err := <-saveDone; err != nil {
		return nil, err
	}
	if res.MidSaveSearches > 0 {
		res.MidSaveMeanQuery = midTotal / time.Duration(res.MidSaveSearches)
	}

	// ---- cold start with the index snapshot: restore, no k-means ----
	r1 := registry.NewStore()
	r1.ConfigureIndex(clusteredBenchFactory())
	start = time.Now()
	if err := r1.Load(path); err != nil {
		return nil, err
	}
	r1.WaitIndexReady()
	res.RestoreLoad = time.Since(start)
	if !r1.IndexesRestored() {
		return nil, fmt.Errorf("persistbench: expected a snapshot restore, got a rebuild")
	}

	// Cold start without it: re-save the same snapshot with the index
	// structure stripped — exactly what a pre-persistence deployment would
	// have on disk — and pay the full rebuild + retrain.
	rawSnap, _, err := storage.Load(path)
	if err != nil {
		return nil, err
	}
	rawSnap.Indexes = nil
	legacy := filepath.Join(dir, "registry-noindex.json")
	if err := storage.Save(legacy, rawSnap); err != nil {
		return nil, err
	}
	r2 := registry.NewStore()
	r2.ConfigureIndex(clusteredBenchFactory())
	start = time.Now()
	if err := r2.Load(legacy); err != nil {
		return nil, err
	}
	// Settle definition 1: the background retrains the load triggered have
	// landed — the deployment serves correct answers, but its clustering
	// was k-means-trained over only a corpus prefix.
	r2.WaitIndexReady()
	res.RebuildSettle = time.Since(start)
	// Settle definition 2: the saved (and restored) index is trained over
	// the full corpus; reaching that same state from records alone takes
	// one more full-corpus k-means.
	r2.RetrainIndexes()
	res.RebuildFull = time.Since(start)
	if res.RestoreLoad > 0 {
		res.Speedup = float64(res.RebuildFull) / float64(res.RestoreLoad)
		res.SpeedupSettle = float64(res.RebuildSettle) / float64(res.RestoreLoad)
	}

	// Serving behaviour: baseline on a settled index, then query
	// continuously while a doubling insert stream forces a background
	// retrain. Every latency sample lands while index work is in flight.
	idx := index.NewClustered(index.ClusteredConfig{})
	treg := telemetry.NewRegistry()
	retrainCount := treg.Counter("retrains_total", "completed retrains")
	retrainSecs := treg.Histogram("retrain_seconds", "retrain durations", telemetry.LatencyBuckets())
	idx.SetMetrics(&index.ClusteredMetrics{Retrains: retrainCount, RetrainSeconds: retrainSecs})
	for i, v := range corpus {
		idx.Upsert(i+1, v)
	}
	idx.WaitRetrain()
	start = time.Now()
	for _, q := range qs {
		idx.Search(q, 10, nil)
	}
	res.BaselineQuery = time.Since(start) / time.Duration(len(qs))

	var inserting atomic.Bool
	inserting.Store(true)
	go func() {
		defer inserting.Store(false)
		for i, v := range corpus {
			idx.Upsert(size+i+1, v)
		}
		idx.WaitRetrain()
	}()
	var total time.Duration
	for i := 0; inserting.Load(); i++ {
		q := qs[i%len(qs)]
		t0 := time.Now()
		idx.Search(q, 10, nil)
		d := time.Since(t0)
		total += d
		if d > res.RetrainMaxQuery {
			res.RetrainMaxQuery = d
		}
		res.RetrainQueries++
	}
	if res.RetrainQueries > 0 {
		res.RetrainMeanQuery = total / time.Duration(res.RetrainQueries)
	}
	res.RetrainsCompleted = retrainCount.Value()
	if n := retrainSecs.Count(); n > 0 {
		res.RetrainMeanSecs = retrainSecs.Sum() / float64(n)
	}
	return res, nil
}

// Render formats the measurements as a text table.
func (r *PersistBenchResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Registry storage (%d PEs on the clustered index)\n", r.CorpusSize)
	fmt.Fprintf(&sb, "  full save:                   %12v   (%7d KiB, json+sidecar)\n",
		r.SaveTime.Round(time.Millisecond), r.Bytes/1024)
	fmt.Fprintf(&sb, "Serving during a Save (sharded locks; no write lock across the marshal)\n")
	fmt.Fprintf(&sb, "  searches completed mid-Save: %12d  (mean %v, worst %v)\n",
		r.MidSaveSearches, r.MidSaveMeanQuery.Round(time.Microsecond), r.MidSaveWorstQuery.Round(time.Microsecond))
	sb.WriteString("Index persistence: cold start from snapshot vs full rebuild\n")
	fmt.Fprintf(&sb, "  load+settle with snapshot (restore):        %12v\n", r.RestoreLoad.Round(time.Microsecond))
	fmt.Fprintf(&sb, "  rebuild, background retrains settled:       %12v  (%4.1fx, prefix-trained)\n",
		r.RebuildSettle.Round(time.Microsecond), r.SpeedupSettle)
	fmt.Fprintf(&sb, "  rebuild to full-corpus-trained state:       %12v  (%4.1fx, what restore gives)\n",
		r.RebuildFull.Round(time.Microsecond), r.Speedup)
	sb.WriteString("Background retrain: queries served while k-means runs\n")
	fmt.Fprintf(&sb, "  settled mean query:          %12v\n", r.BaselineQuery.Round(time.Microsecond))
	fmt.Fprintf(&sb, "  mid-retrain mean query:      %12v  (%d queries)\n",
		r.RetrainMeanQuery.Round(time.Microsecond), r.RetrainQueries)
	fmt.Fprintf(&sb, "  mid-retrain worst query:     %12v\n", r.RetrainMaxQuery.Round(time.Microsecond))
	fmt.Fprintf(&sb, "  retrain telemetry:           %12d retrains, mean %s each (laminar_index_retrain* on /metrics)\n",
		r.RetrainsCompleted, (time.Duration(r.RetrainMeanSecs * float64(time.Second))).Round(time.Millisecond))
	return sb.String()
}
