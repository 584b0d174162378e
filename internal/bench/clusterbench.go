package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"laminar/internal/cluster"
	"laminar/internal/core"
	"laminar/internal/engine"
	"laminar/internal/index"
	"laminar/internal/registry"
	"laminar/internal/server"
)

// The cluster benchmark (`laminar-bench -clusterbench`) and its CI gate
// (`make clusterbench-smoke`): boot N in-process laminar-server nodes,
// partition a PE corpus across them by the cluster ring, and drive
// semantic searches through a scatter-gather coordinator. The table shows
// the property the sharding exists for — per-query latency stays flat as
// the corpus triples from one shard to three — plus the failure rows: a
// killed shard costs coverage (degraded partial results), never
// availability, and a killed primary with a snapshot-restored read
// replica costs nothing at all.
//
// Every node carries the registry's simulated WAN latency
// (Store.SetLatency), so a query's cost is dominated by the per-machine
// round trip a real deployment pays per shard host — the term
// scatter-gather overlaps. That keeps the measurement meaningful on a
// small (even single-core) CI host, where three purely CPU-bound scans
// would serialize and no fan-out could ever look flat.

// clusterBenchUser is the account every node carries (user records are
// broadcast to all shards in a real cluster; the bench seeds them
// directly).
const clusterBenchUser = "bench"

// clusterNode is one in-process shard: a registry partition behind a real
// HTTP laminar-server.
type clusterNode struct {
	name string
	reg  *registry.Store
	srv  *server.Server
	url  string
}

// startClusterNode boots one node over the given registry partition.
func startClusterNode(name string, reg *registry.Store) (*clusterNode, error) {
	srv := server.New(server.Config{
		Registry: reg,
		Engine:   engine.New(engine.Config{InstallDelayScale: 0}),
	})
	url, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("clusterbench: starting node %s: %w", name, err)
	}
	return &clusterNode{name: name, reg: reg, srv: srv, url: url}, nil
}

// clusterIndexFactory is the index every bench node runs: clustered at
// target 1.0, so per-shard results are provably exact and the merged
// ranking can be checked verbatim against a global exact scan.
func clusterIndexFactory() index.VectorIndex {
	return index.NewClustered(index.ClusteredConfig{RecallTarget: 1.0})
}

// seedShardStores partitions ids 1..len(corpus) across the ring exactly
// the way the cluster write router would — owner = ring.Owner(id), the id
// pinned on the registration — and returns one settled store per shard
// name. The WAN latency is installed only after seeding and training, so
// setup cost stays flat while every timed query pays it.
func seedShardStores(ring *cluster.Ring, corpus [][]float32, wan time.Duration) (map[string]*registry.Store, error) {
	stores := map[string]*registry.Store{}
	users := map[string]int{}
	for _, name := range ring.Shards() {
		st := registry.NewStore()
		st.ConfigureIndex(clusterIndexFactory)
		u, err := st.RegisterUser(clusterBenchUser, "pw")
		if err != nil {
			return nil, fmt.Errorf("clusterbench: registering on %s: %w", name, err)
		}
		stores[name] = st
		users[name] = u.UserID
	}
	for i, v := range corpus {
		id := i + 1
		owner := ring.Owner(id)
		if _, err := stores[owner].AddPE(users[owner], core.AddPERequest{
			PEID:   id,
			PEName: fmt.Sprintf("PE%05d", id), PECode: "code",
			DescEmbedding: v,
		}); err != nil {
			return nil, fmt.Errorf("clusterbench: seeding PE %d on %s: %w", id, owner, err)
		}
	}
	for _, st := range stores {
		st.RetrainIndexes()
		st.WaitIndexReady()
		st.SetLatency(wan)
	}
	return stores, nil
}

// timeCoordQueries runs every query through the coordinator and reports
// per-query latencies, the last result, and how many replies were
// degraded.
func timeCoordQueries(co *cluster.Coordinator, qs [][]float32) (lats []time.Duration, last cluster.Result, degraded int) {
	for _, q := range qs {
		start := time.Now()
		last = co.Search(context.Background(), clusterBenchUser, core.SearchRequest{
			SearchType: core.SearchPEs, QueryType: core.QuerySemantic,
			QueryEmbedding: q, Limit: 10,
		})
		lats = append(lats, time.Since(start))
		if last.Degraded {
			degraded++
		}
	}
	return lats, last, degraded
}

// latQuantile reads the q-quantile from a latency sample.
func latQuantile(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// ClusterBenchRow is one fan-out configuration's measurement.
type ClusterBenchRow struct {
	Label      string
	Shards     int
	CorpusSize int
	P50, P90   time.Duration
	Degraded   int // degraded replies out of Queries
	Note       string
}

// ClusterBenchResult is the rendered table's data.
type ClusterBenchResult struct {
	Queries int
	Rows    []ClusterBenchRow
}

// Render formats the cluster benchmark as a text table.
func (r *ClusterBenchResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Cluster scatter-gather: in-process shard nodes behind one coordinator\n")
	fmt.Fprintf(&sb, "(%d semantic queries per row, top-10 over HTTP; reading guide in docs/cluster.md)\n", r.Queries)
	sb.WriteString("  configuration                shards   corpus      p50        p90     degraded\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-27s  %6d  %7d  %9v  %9v   %d/%d\n",
			row.Label, row.Shards, row.CorpusSize,
			row.P50.Round(10*time.Microsecond), row.P90.Round(10*time.Microsecond),
			row.Degraded, r.Queries)
	}
	for _, row := range r.Rows {
		if row.Note != "" {
			fmt.Fprintf(&sb, "  %-27s  %s\n", row.Label, row.Note)
		}
	}
	return sb.String()
}

// clusterBenchSpec parameterizes one full bench run.
type clusterBenchSpec struct {
	perShard int // corpus per shard; total = 3*perShard for the 3-shard rows
	queries  int
	wan      time.Duration // simulated per-node WAN round trip on every query
}

// runClusterRows executes the whole scenario — baseline, 3-shard scale,
// replica restore+failover, kill-a-node — and returns the table plus the
// raw measurements the smoke gate asserts on.
func runClusterRows(spec clusterBenchSpec) (*ClusterBenchResult, *clusterMeasurements, error) {
	n, queries := spec.perShard, spec.queries
	corpus, qs := GenPECorpus(3*n, queries)

	// Baseline: the whole single-node corpus (size n) behind a 1-shard
	// coordinator, so both rows pay the same coordination + HTTP cost and
	// the comparison isolates corpus growth.
	soloRing, err := cluster.NewRing(cluster.RingConfig{Shards: []string{"solo"}})
	if err != nil {
		return nil, nil, err
	}
	soloStores, err := seedShardStores(soloRing, corpus[:n], spec.wan)
	if err != nil {
		return nil, nil, err
	}
	solo, err := startClusterNode("solo", soloStores["solo"])
	if err != nil {
		return nil, nil, err
	}
	defer solo.srv.Close()
	soloCo, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Shards: []cluster.Shard{{Name: "solo", Primary: cluster.NewHTTPPeer("solo", solo.url)}},
	})
	if err != nil {
		return nil, nil, err
	}
	soloLats, _, _ := timeCoordQueries(soloCo, qs)

	// Three shards, triple the corpus, partitioned by the ring.
	names := []string{"a", "b", "c"}
	ring, err := cluster.NewRing(cluster.RingConfig{Shards: names})
	if err != nil {
		return nil, nil, err
	}
	stores, err := seedShardStores(ring, corpus, spec.wan)
	if err != nil {
		return nil, nil, err
	}
	nodes := map[string]*clusterNode{}
	for _, name := range names {
		node, err := startClusterNode(name, stores[name])
		if err != nil {
			return nil, nil, err
		}
		defer node.srv.Close()
		nodes[name] = node
	}

	// Shard c gets a read replica restored from its primary's v2 snapshot:
	// no k-means, read-only, listed as a failover/hedge target.
	dir, err := os.MkdirTemp("", "laminar-bench-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "shard-c.json")
	if err := stores["c"].Save(snapPath); err != nil {
		return nil, nil, fmt.Errorf("clusterbench: saving shard c: %w", err)
	}
	replicaReg, err := cluster.OpenReplica(snapPath, clusterIndexFactory)
	if err != nil {
		return nil, nil, err
	}
	if !replicaReg.IndexesRestored() {
		return nil, nil, fmt.Errorf("clusterbench: replica rebuilt its indexes (want snapshot restore, no k-means)")
	}
	if _, err := replicaReg.AddPE(1, core.AddPERequest{PEName: "nope", PECode: "code"}); err == nil {
		return nil, nil, fmt.Errorf("clusterbench: read-only replica accepted a write")
	}
	replicaReg.SetLatency(spec.wan)
	replica, err := startClusterNode("c-replica", replicaReg)
	if err != nil {
		return nil, nil, err
	}
	defer replica.srv.Close()

	co, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Shards: []cluster.Shard{
			{Name: "a", Primary: cluster.NewHTTPPeer("a", nodes["a"].url)},
			{Name: "b", Primary: cluster.NewHTTPPeer("b", nodes["b"].url)},
			{Name: "c", Primary: cluster.NewHTTPPeer("c", nodes["c"].url),
				Replicas: []cluster.Peer{cluster.NewHTTPPeer("c-replica", replica.url)}},
		},
		ShardTimeout: time.Second,
	})
	if err != nil {
		return nil, nil, err
	}
	triLats, triLast, triDegraded := timeCoordQueries(co, qs)

	// Kill shard c's PRIMARY: its replica fails over, so the cluster still
	// answers with full coverage.
	nodes["c"].srv.Close()
	failLats, _, failDegraded := timeCoordQueries(co, qs)

	// Kill shard b outright (no replica): coverage degrades, availability
	// does not — every reply is partial and flagged, none errors or hangs.
	nodes["b"].srv.Close()
	killLats, killLast, killDegraded := timeCoordQueries(co, qs)

	res := &ClusterBenchResult{Queries: queries}
	res.Rows = append(res.Rows,
		ClusterBenchRow{Label: "single node (baseline)", Shards: 1, CorpusSize: n,
			P50: latQuantile(soloLats, 0.5), P90: latQuantile(soloLats, 0.9)},
		ClusterBenchRow{Label: "3 shards, 3x corpus", Shards: 3, CorpusSize: 3 * n,
			P50: latQuantile(triLats, 0.5), P90: latQuantile(triLats, 0.9), Degraded: triDegraded,
			Note: fmt.Sprintf("p50 %.2fx the single-node baseline at 3x the corpus",
				ratioOf(latQuantile(triLats, 0.5), latQuantile(soloLats, 0.5)))},
		ClusterBenchRow{Label: "shard c primary killed", Shards: 3, CorpusSize: 3 * n,
			P50: latQuantile(failLats, 0.5), P90: latQuantile(failLats, 0.9), Degraded: failDegraded,
			Note: "read replica (snapshot-restored, read-only) failed over; full coverage"},
		ClusterBenchRow{Label: "shard b killed (no replica)", Shards: 3, CorpusSize: 3 * n,
			P50: latQuantile(killLats, 0.5), P90: latQuantile(killLats, 0.9), Degraded: killDegraded,
			Note: "partial results, degraded flag set on every reply; no errors, no hangs"},
	)
	m := &clusterMeasurements{
		soloP50: latQuantile(soloLats, 0.5), triP50: latQuantile(triLats, 0.5),
		triLast: triLast, triDegraded: triDegraded,
		failDegraded: failDegraded,
		killDegraded: killDegraded, killLast: killLast,
		corpus: corpus, lastQuery: qs[len(qs)-1],
	}
	return res, m, nil
}

// clusterMeasurements carries the raw numbers the smoke gate asserts on.
type clusterMeasurements struct {
	soloP50, triP50 time.Duration
	triLast         cluster.Result
	triDegraded     int
	failDegraded    int
	killDegraded    int
	killLast        cluster.Result
	corpus          [][]float32
	lastQuery       []float32
}

func ratioOf(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// RunClusterBench measures the full scenario at benchmark size.
func RunClusterBench() (*ClusterBenchResult, error) {
	res, _, err := runClusterRows(clusterBenchSpec{perShard: 2000, queries: 40, wan: 10 * time.Millisecond})
	return res, err
}

// clusterSmokeRatio is the scaling gate: the 3-shard p50 over triple the
// corpus must stay within this factor of the single-node baseline.
const clusterSmokeRatio = 1.3

// RunClusterSmoke is the CI gate (`make clusterbench-smoke`): a small
// corpus, seconds of wall clock, hard assertions on the three properties
// the cluster exists for — flat latency as the corpus triples across
// shards, exact merge equivalence against a global scan, and degraded
// (never failed) answers when a shard dies. The latency gate retries once
// before failing: CI machines jitter, physics does not.
func RunClusterSmoke() (string, error) {
	spec := clusterBenchSpec{perShard: 300, queries: 25, wan: 10 * time.Millisecond}
	_, m, err := runClusterRows(spec)
	if err != nil {
		return "", err
	}
	ratio := ratioOf(m.triP50, m.soloP50)
	if ratio > clusterSmokeRatio {
		_, retry, err := runClusterRows(spec)
		if err != nil {
			return "", err
		}
		m = retry
		ratio = ratioOf(m.triP50, m.soloP50)
	}
	summary := fmt.Sprintf("clusterbench-smoke: %d PEs over 3 shards, %d queries: 3-shard p50 %v = %.2fx single-node p50 %v at 3x corpus; kill-a-node degraded %d/%d replies",
		3*spec.perShard, spec.queries, m.triP50.Round(10*time.Microsecond), ratio,
		m.soloP50.Round(10*time.Microsecond), m.killDegraded, spec.queries)
	if ratio > clusterSmokeRatio {
		return summary, fmt.Errorf("3-shard p50 %.2fx the single-node baseline, want <= %.1fx (scatter-gather is not absorbing corpus growth)", ratio, clusterSmokeRatio)
	}
	if m.triDegraded != 0 {
		return summary, fmt.Errorf("%d/%d healthy-cluster replies degraded, want 0", m.triDegraded, spec.queries)
	}
	// Merge equivalence: every shard is provably exact (target 1.0), so
	// the coordinator's merged top-10 must equal a global exact scan's.
	flat := index.NewFlat()
	for i, v := range m.corpus {
		flat.Upsert(i+1, v)
	}
	want := flat.Search(m.lastQuery, 10, nil)
	got := m.triLast.Hits
	if len(got) != len(want) {
		return summary, fmt.Errorf("merged top-%d has %d hits, global exact scan has %d", 10, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			return summary, fmt.Errorf("merged rank %d is id %d, global exact scan says id %d (scatter-gather merge drift)", i, got[i].ID, want[i].ID)
		}
	}
	// Failover: killing a primary with a live replica must not degrade.
	if m.failDegraded != 0 {
		return summary, fmt.Errorf("%d/%d replies degraded with the replica up, want 0 (failover regression)", m.failDegraded, spec.queries)
	}
	// Degraded mode: killing a replica-less shard must flag every reply
	// and keep answering from the survivors.
	if m.killDegraded != spec.queries {
		return summary, fmt.Errorf("%d/%d replies degraded after killing a shard, want all %d", m.killDegraded, spec.queries, spec.queries)
	}
	if len(m.killLast.Hits) == 0 {
		return summary, fmt.Errorf("degraded reply carries no hits: the surviving shards' results were lost")
	}
	return summary, nil
}
