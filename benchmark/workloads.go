package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"laminar/internal/client"
	"laminar/internal/core"
)

// runConfig is one invocation's input.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// NumPE and NumWF size the corpus: 5,000 and 500 in measured runs, a
	// tenth of that in the smoke run.
	NumPE, NumWF int
	ServerBin    string
}

// Full-size corpus. 20,000 PEs was probed and rejected: set-up alone
// takes 25 s.
const (
	fullPEs = 5000
	fullWFs = 500
)

// Result is what one run of one workload measured.
type Result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	E2E       map[string]float64 `json:"end_to_end"`
	Layer     map[string]float64 `json:"per_layer"`
	// Samples is how many observations stand behind a metric.
	Samples map[string]int `json:"samples"`
	// TailPct is the percentile latency_tail_ms was taken at.
	TailPct float64 `json:"tail_percentile"`
	// Info carries rates, phase lengths and the server flags used.
	Info map[string]any `json:"info"`
	// Checks names the correctness checks that ran.
	Checks []string `json:"checks"`
	// Spans is the traced replay, written to benchmark/out, not the record.
	Spans []Span `json:"-"`
}

func newResult(cfg runConfig) *Result {
	return &Result{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds,
		E2E: map[string]float64{}, Layer: map[string]float64{}, Samples: map[string]int{},
		Info: map[string]any{},
	}
}

// runWorkload dispatches on the workload name. Every path builds its
// inputs from the seed, drives real server processes, checks the replies
// and leaves no process or directory behind.
func runWorkload(cfg runConfig) (*Result, error) {
	spec, ok := specByName(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	dir, err := tempDir(cfg.Workload)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer killAllChildren()
	res := newResult(cfg)
	switch cfg.Workload {
	case wlQueryRepeat, wlQueryUnique, wlIngestChurn:
		err = runSingleNode(cfg, spec, dir, res)
	case wlClusterScatter:
		err = runClusterScatter(cfg, spec, dir, res)
	case wlColdStart:
		err = runColdStart(cfg, spec, dir, res)
	case wlFlowRun:
		err = runFlowRun(cfg, spec, dir, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	for _, name := range layerMetricNames() {
		if _, ok := res.Layer[name]; !ok {
			res.Layer[name] = 0 // the workload does not exercise that layer
		}
	}
	res.Correct = res.Failed == 0 && res.E2E[mCorrect] >= spec.MinCorrect
	return res, nil
}

// bootRounds is how many times a workload boots its servers to take the
// median boot time; the last boot is the one that serves the run.
const bootRounds = 3

// bootMedian boots the servers bootRounds times with start(), killing
// all but the last set, and returns that set with the median time from
// exec to every server answering.
func bootMedian(hc *http.Client, start func() ([]*child, error)) ([]*child, float64, error) {
	var times []float64
	for round := 0; ; round++ {
		t0 := time.Now()
		cs, err := start()
		if err != nil {
			return nil, 0, err
		}
		for _, c := range cs {
			if err := c.waitReady(hc); err != nil {
				return nil, 0, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
		if round == bootRounds-1 {
			return cs, median(times), nil
		}
		for _, c := range cs {
			c.stop(false)
		}
	}
}

// loadRun is the raw outcome of the warm-up, open-loop and closed-loop
// phases of an arrival workload.
type loadRun struct {
	warm, open, closed phaseResult
	cpuSec             []float64 // each server's CPU over the open and closed phases
	rssMB              float64
	delta              scrapeDelta
}

// runArrivalLoad runs the three phases against servers, scraping their
// metrics and CPU around the two timed ones. It aborts, instead of
// reporting, when the generator itself was the problem.
func runArrivalLoad(spec workloadSpec, seconds float64, ops []Op, servers []*child, send sendFunc, hc *http.Client) (*loadRun, error) {
	warmDur, openDur, closedDur := phases(seconds)
	senders := nproc()
	lr := &loadRun{}
	lr.warm = openLoop(ops, 0, spec.Rate, warmDur, senders, send)
	first := len(lr.warm.Samples)
	var err error
	if lr.delta.before, err = scrapeAll(hc, servers); err != nil {
		return nil, err
	}
	cpu0, err := cpuEach(servers)
	if err != nil {
		return nil, err
	}
	lr.open = openLoop(ops, first, spec.Rate, openDur, senders, send)
	first += len(lr.open.Samples)
	lr.closed = closedLoop(ops, first, closedDur, senders, send)
	cpu1, err := cpuEach(servers)
	if err != nil {
		return nil, err
	}
	for i := range cpu1 {
		lr.cpuSec = append(lr.cpuSec, cpu1[i]-cpu0[i])
	}
	if lr.delta.after, err = scrapeAll(hc, servers); err != nil {
		return nil, err
	}
	if lr.rssMB, err = sumPeakRSS(servers); err != nil {
		return nil, err
	}
	if err := anyDied(servers); err != nil {
		return nil, err
	}
	if lr.closed.Exhausted {
		return nil, errExhausted
	}
	if late := percentile(sorted(msOf(lr.open.Lateness)), 99); late > maxLatenessMS {
		return nil, fmt.Errorf("the generator ran late (lateness p99 %.2f ms > %g ms): the latencies would measure the harness", late, float64(maxLatenessMS))
	}
	if backlogGrowing(lr.open.StartDelay) {
		return nil, fmt.Errorf("the open-loop backlog was still growing at phase end: %g req/s is above what the server sustains", spec.Rate)
	}
	return lr, nil
}

// maxLatenessMS is the generator lateness above which a run is void.
const maxLatenessMS = 5

func scrapeAll(hc *http.Client, servers []*child) ([]*scrape, error) {
	out := make([]*scrape, len(servers))
	for i, c := range servers {
		sc, err := scrapeChild(hc, c)
		if err != nil {
			return nil, err
		}
		out[i] = sc
	}
	return out, nil
}

// latencyStats fills the pooled latency metrics from samples of completed
// ops.
func latencyStats(res *Result, spec workloadSpec, samples []sample) {
	var lat []float64
	for _, s := range samples {
		if s.OK {
			lat = append(lat, toMS(s.Latency))
		}
	}
	asc := sorted(lat)
	res.TailPct = pickTail(len(asc), spec.TailPct)
	res.E2E[mP50] = percentile(asc, 50)
	res.E2E[mTail] = percentile(asc, res.TailPct)
	res.Samples[mP50], res.Samples[mTail] = len(asc), len(asc)
	ladder := map[string]float64{}
	for _, p := range tailLadder {
		ladder[fmt.Sprintf("p%g", p)] = percentile(asc, p)
	}
	res.Info["latency_percentiles_ms"] = ladder
}

// shareStats fills within_limit_share, measured on `limited`, and
// correct_share, measured on all.
func shareStats(res *Result, spec workloadSpec, limited, all []sample) {
	within := 0
	for _, s := range limited {
		if s.OK && s.Correct && toMS(s.Latency) <= spec.LimitMS {
			within++
		}
	}
	res.E2E[mWithin] = ratio(float64(within), float64(len(limited)))
	res.Samples[mWithin] = len(limited)
	completed := len(all) - countFailed(all)
	res.E2E[mCorrect] = ratio(float64(countCorrect(all)), float64(completed))
	res.Samples[mCorrect] = completed
}

func countCorrect(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.OK && s.Correct {
			n++
		}
	}
	return n
}

func countFailed(samples []sample) int {
	n := 0
	for _, s := range samples {
		if !s.OK {
			n++
		}
	}
	return n
}

// classStats fills the per-class client-side p50 rows.
func classStats(res *Result, samples []sample) {
	by := map[string][]float64{}
	for _, s := range samples {
		if s.OK {
			by[s.Class] = append(by[s.Class], toMS(s.Latency))
		}
	}
	for class, lat := range by {
		if class == clsBoot {
			continue
		}
		name := "class." + class + ".p50_ms"
		res.Layer[name] = median(lat)
		res.Samples[name] = len(lat)
	}
}

// arrivalMetrics turns a loadRun into the end-to-end metrics and the
// count-based per-layer metrics.
func arrivalMetrics(res *Result, spec workloadSpec, lr *loadRun, ops []Op) {
	latencyStats(res, spec, lr.open.Samples)
	timed := append(append([]sample(nil), lr.open.Samples...), lr.closed.Samples...)
	shareStats(res, spec, lr.open.Samples, timed)
	res.E2E[mCapacity] = float64(countCorrect(lr.closed.Samples)) / lr.closed.Elapsed.Seconds()
	res.Samples[mCapacity] = len(lr.closed.Samples)
	res.E2E[mCPU] = ratio(sum(lr.cpuSec)*1000, float64(len(timed)))
	res.Samples[mCPU] = len(timed)
	res.E2E[mRSS] = lr.rssMB
	res.Samples[mRSS] = 1
	res.Attempted = len(timed)
	res.Failed = countFailed(lr.warm.Samples) + countFailed(timed)
	classStats(res, lr.open.Samples)

	warmDur, openDur, closedDur := phases(res.Seconds)
	res.Info["rate_req_s"] = spec.Rate
	res.Info["warm_s"], res.Info["open_s"], res.Info["closed_s"] = warmDur.Seconds(), openDur.Seconds(), closedDur.Seconds()
	res.Info["senders"] = nproc()
	res.Info["limit_ms"] = spec.LimitMS
	res.Info["open_ops"], res.Info["closed_ops"] = len(lr.open.Samples), len(lr.closed.Samples)
	res.Info["start_delay_p99_ms"] = percentile(sorted(msOf(lr.open.StartDelay)), 99)
	res.Layer["gen.lateness_p99_ms"] = percentile(sorted(msOf(lr.open.Lateness)), 99)
	res.Samples["gen.lateness_p99_ms"] = len(lr.open.Lateness)

	var replyBytes, embeds float64
	for _, s := range timed {
		replyBytes += float64(s.Bytes)
		if ops[s.Index].ServerEmbeds {
			embeds++
		}
	}
	n := float64(len(timed))
	d := lr.delta
	res.Layer["server.resp_bytes_per_op"] = ratio(replyBytes, n)
	res.Layer["server.http_requests"] = d.sum("laminar_http_requests_total")
	res.Layer["embed.calls_per_op"] = ratio(embeds, n)
	hits, misses := d.sum("laminar_cache_hits_total"), d.sum("laminar_cache_misses_total")
	res.Layer["qcache.hit_ratio"] = ratio(hits, hits+misses)
	res.Layer["qcache.invalidations"] = d.sum("laminar_cache_invalidations_total")
	res.Layer["index.probes_per_query"] = ratio(d.sum("laminar_index_probe_shards_sum"), d.sum("laminar_index_probe_shards_count"))
	res.Layer["index.scanned_per_query"] = ratio(d.sum("laminar_index_scanned_vectors_sum"), d.sum("laminar_index_scanned_vectors_count"))
	res.Layer["index.retrains"] = d.sum("laminar_index_retrains_total")
	res.Layer["lexical.terms"] = d.last("laminar_lexical_terms")
	res.Layer["storage.compactions"] = d.sum("laminar_registry_delta_compactions_total")
	res.Layer["storage.load_ms"] = 1000 * ratio(d.last("laminar_registry_load_seconds_sum"), d.last("laminar_registry_loads_total"))
	for _, name := range []string{"server.resp_bytes_per_op", "server.http_requests", "embed.calls_per_op", "qcache.hit_ratio"} {
		res.Samples[name] = len(timed)
	}
	res.Samples["index.probes_per_query"] = int(d.sum("laminar_index_probe_shards_count"))
	res.Samples["index.scanned_per_query"] = int(d.sum("laminar_index_scanned_vectors_count"))
	res.Samples["storage.load_ms"] = int(d.last("laminar_registry_loads_total"))
}

// singleNodeFlags are the server flags of the three single-node registry
// workloads.
func singleNodeFlags(spec workloadSpec, snapshot string) []string {
	flags := []string{"-registry", snapshot, "-metrics", "-cache-size", fmt.Sprint(spec.CacheSize)}
	return append(flags, indexFlags(0.9)...)
}

// streamLength is how many ops an arrival workload pre-generates: the
// two scheduled phases plus a generous closed-loop allowance.
func streamLength(spec workloadSpec, seconds float64) int {
	warm, open, closed := phases(seconds)
	return int(spec.Rate*(warm+open).Seconds()) + int(float64(spec.ClosedOpsPerSec)*closed.Seconds()) + 16
}

// buildCorpus times the seeded corpus build.
func buildCorpus(cfg runConfig) (*Corpus, float64) {
	t0 := time.Now()
	c := newCorpus(cfg.Seed, cfg.NumPE, cfg.NumWF)
	c.embed()
	return c, time.Since(t0).Seconds()
}

// runSingleNode is query_repeat, query_unique and ingest_churn: one
// server over the full snapshot.
func runSingleNode(cfg runConfig, spec workloadSpec, dir string, res *Result) error {
	corpus, corpusS := buildCorpus(cfg)
	snap := snapshotPath(dir, "registry")
	t0 := time.Now()
	if _, err := corpus.saveSnapshot(snap); err != nil {
		return err
	}
	snapshotS := time.Since(t0).Seconds()
	// The traced replay starts from the state the server started from;
	// ingest_churn's server saves over its snapshot when it shuts down.
	pristine := ""
	if cfg.Trace {
		var err error
		if pristine, err = copySnapshot(snap, filepath.Join(dir, "pristine")); err != nil {
			return err
		}
	}

	n := streamLength(spec, cfg.Seconds)
	var ops []Op
	switch cfg.Workload {
	case wlQueryRepeat:
		ops = genQueryRepeat(corpus, cfg.Seed, n)
	case wlQueryUnique:
		ops = genQueryUnique(corpus, cfg.Seed, n)
	case wlIngestChurn:
		ops = genIngestChurn(corpus, cfg.Seed, n)
	}

	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	flags := singleNodeFlags(spec, snap)
	servers, bootS, err := bootMedian(hc, func() ([]*child, error) {
		c, err := startChild(cfg.ServerBin, "server", flags...)
		return []*child{c}, err
	})
	if err != nil {
		return err
	}
	srv := servers[0]
	res.E2E[mSetup] = corpusS + snapshotS + bootS
	res.Samples[mSetup] = bootRounds
	res.Info["setup_corpus_s"], res.Info["setup_snapshot_s"], res.Info["setup_boot_s"] = corpusS, snapshotS, bootS
	res.Info["server_flags"] = strings.Join(flags, " ")
	res.Info["corpus_pes"], res.Info["corpus_workflows"] = cfg.NumPE, cfg.NumWF

	senders := newHTTPSenders(srv.url, nproc())
	defer senders.close()
	lr, err := runArrivalLoad(spec, cfg.Seconds, ops, servers, senders.send, hc)
	if err != nil {
		return err
	}
	arrivalMetrics(res, spec, lr, ops)
	res.Checks = append(res.Checks, "planted target in top-10 of every search")

	if cfg.Trace {
		if err := clientSearchMetric(srv.url, corpus, res); err != nil {
			return err
		}
	}
	records := 2 + cfg.NumPE + cfg.NumWF
	if cfg.Workload == wlIngestChurn {
		names, err := ingestRestartCheck(cfg, flags, srv, hc, corpus, ops, lr, res)
		if err != nil {
			return err
		}
		records = 2 + names + cfg.NumWF
		res.Checks = append(res.Checks, "every acknowledged add and remove is reflected after SIGTERM and reboot")
	} else {
		srv.stop(false)
	}
	disk, err := diskBytes(filepath.Dir(snap))
	if err != nil {
		return err
	}
	setDisk(res, disk, records)

	if cfg.Trace {
		return traceSingleNode(cfg, spec, corpus, pristine, ops, res)
	}
	return nil
}

// ingestRestartCheck ends ingest_churn: SIGTERM (the server drains and
// saves in full), reboot from what it saved, and compare alice's PE names
// with the names the acknowledged writes should have left. It returns how
// many PEs the registry holds.
func ingestRestartCheck(cfg runConfig, flags []string, srv *child, hc *http.Client, corpus *Corpus, ops []Op, lr *loadRun, res *Result) (int, error) {
	want := map[string]bool{}
	for _, p := range corpus.alicePEs() {
		want[p.Name] = true
	}
	var acked []sample
	for _, ph := range []phaseResult{lr.warm, lr.open, lr.closed} {
		for _, s := range ph.Samples {
			if s.OK && (s.Class == clsAdd || s.Class == clsRemove) {
				acked = append(acked, s)
			}
		}
	}
	sort.Slice(acked, func(i, j int) bool { return acked[i].Index < acked[j].Index })
	for _, s := range acked {
		op := &ops[s.Index]
		if op.Adds {
			want[op.Name] = true
		} else {
			delete(want, op.Name)
		}
	}

	t0 := time.Now()
	srv.stop(true)
	res.Layer["storage.shutdown_save_ms"] = toMS(time.Since(t0))

	again, err := startChild(cfg.ServerBin, "server-rebooted", flags...)
	if err != nil {
		return 0, err
	}
	defer again.stop(false)
	if err := again.waitReady(hc); err != nil {
		return 0, err
	}
	var got []struct {
		Name string `json:"peName"`
	}
	if err := getJSON(hc, again.url+"/registry/"+userAlice+"/pe/all", &got); err != nil {
		return 0, err
	}
	mismatch := 0
	seen := map[string]bool{}
	for _, pe := range got {
		seen[pe.Name] = true
		if !want[pe.Name] {
			mismatch++
		}
	}
	for name := range want {
		if !seen[name] {
			mismatch++
		}
	}
	res.Attempted++
	res.Info["restart_acked_writes"] = len(acked)
	res.Info["restart_mismatched_names"] = mismatch
	if mismatch > 0 {
		// A lost or resurrected write is a wrong output, not a slow one.
		res.E2E[mCorrect] = 0
	}
	bobs := 0
	for _, p := range corpus.PEs {
		if p.Owner == userBob {
			bobs++
		}
	}
	return len(got) + bobs, nil
}

// runClusterScatter is three shard processes behind a coordinator.
func runClusterScatter(cfg runConfig, spec workloadSpec, dir string, res *Result) error {
	corpus, corpusS := buildCorpus(cfg)
	t0 := time.Now()
	shardSnaps, err := corpus.saveShardSnapshots(dir)
	if err != nil {
		return err
	}
	snapshotS := time.Since(t0).Seconds()
	ops := genClusterScatter(corpus, cfg.Seed, streamLength(spec, cfg.Seconds))

	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	// Shards run at recall target 1.0, where the clustered index is
	// provably exact: only then is "merged top-10 equals a global exact
	// scan" a fair demand.
	shardFlags := append([]string{"-metrics", "-cache-size", "0"}, indexFlags(1.0)...)
	var coordFlags []string
	servers, bootS, err := bootMedian(hc, func() ([]*child, error) {
		var cs []*child
		var peers []string
		for _, name := range shardNames {
			c, err := startChild(cfg.ServerBin, "shard-"+name, append([]string{"-registry", shardSnaps[name]}, shardFlags...)...)
			if err != nil {
				return nil, err
			}
			cs = append(cs, c)
			peers = append(peers, name+"="+c.url)
		}
		coordFlags = []string{"-metrics", "-cache-size", "0", "-cluster-peers", strings.Join(peers, ",")}
		coord, err := startChild(cfg.ServerBin, "coordinator", coordFlags...)
		if err != nil {
			return nil, err
		}
		return append(cs, coord), nil
	})
	if err != nil {
		return err
	}
	coord := servers[len(servers)-1]
	// The coordinator resolves {user} against its own registry.
	for _, u := range []string{userAlice, userBob} {
		if err := postJSON(hc, coord.url+"/auth/register", core.RegisterUserRequest{UserName: u, Password: password}, http.StatusCreated, nil); err != nil {
			return err
		}
	}
	res.E2E[mSetup] = corpusS + snapshotS + bootS
	res.Samples[mSetup] = bootRounds
	res.Info["setup_corpus_s"], res.Info["setup_snapshot_s"], res.Info["setup_boot_s"] = corpusS, snapshotS, bootS
	res.Info["server_flags"] = "shards: " + strings.Join(shardFlags, " ") + "; coordinator: " + strings.Join(coordFlags[:3], " ") + " -cluster-peers <3 shards>"
	res.Info["corpus_pes"], res.Info["corpus_workflows"] = cfg.NumPE, cfg.NumWF

	senders := newHTTPSenders(coord.url, nproc())
	defer senders.close()
	lr, err := runArrivalLoad(spec, cfg.Seconds, ops, servers, senders.send, hc)
	if err != nil {
		return err
	}
	arrivalMetrics(res, spec, lr, ops)
	res.Checks = append(res.Checks,
		"merged top-10 of every pure-ANN query equals a global exact scan",
		"planted target in top-10 of every hybrid query", "no reply degraded")
	d := lr.delta
	res.Layer["cluster.degraded_share"] = ratio(d.sum("laminar_cluster_searches_total", `status="partial"`), d.sum("laminar_cluster_searches_total"))
	res.Layer["cluster.shard_cpu_share"] = ratio(sum(lr.cpuSec[:len(shardNames)]), sum(lr.cpuSec))
	for _, c := range servers {
		c.stop(false)
	}
	disk, err := diskBytes(dir)
	if err != nil {
		return err
	}
	// Users are stored on every shard.
	setDisk(res, disk, 2*len(shardNames)+cfg.NumPE+cfg.NumWF)
	if cfg.Trace {
		return traceClusterScatter(cfg, corpus, shardSnaps, ops, res)
	}
	return nil
}

// Cold start: a base snapshot plus a journal of delta segments.
const (
	deltaSegments    = 8
	upsertsPerDelta  = 50
	coldStartMaxBoot = 30 * time.Second
)

// buildColdStartState saves the corpus and then journals deltaSegments
// delta saves of upsertsPerDelta fresh PEs each. It returns the PEs the
// journal added (a replica that answers for them replayed the journal)
// and how long each delta save took.
func buildColdStartState(corpus *Corpus, snap string, seed int64) ([]*peSpec, []time.Duration, error) {
	store, err := corpus.saveSnapshot(snap)
	if err != nil {
		return nil, nil, err
	}
	alice, err := store.UserByName(userAlice)
	if err != nil {
		return nil, nil, err
	}
	var saves []time.Duration
	rng := rand.New(rand.NewSource(seed ^ 0x636f6c64))
	var journaled []*peSpec
	for seg := 0; seg < deltaSegments; seg++ {
		var batch []*peSpec
		for k := 0; k < upsertsPerDelta; k++ {
			p := corpus.makePE(len(corpus.PEs)+len(journaled)+len(batch), rng)
			p.Owner = userAlice
			batch = append(batch, p)
		}
		embedPEs(batch)
		for _, p := range batch {
			if _, _, err := store.UpsertPE(alice.UserID, p.addRequest()); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		if err := store.SaveDelta(snap); err != nil {
			return nil, nil, err
		}
		saves = append(saves, time.Since(t0))
		journaled = append(journaled, batch...)
	}
	if segs, _ := store.DeltaChainInfo(); segs != deltaSegments {
		return nil, nil, fmt.Errorf("journal holds %d segments, want %d: a delta save compacted", segs, deltaSegments)
	}
	return journaled, saves, nil
}

// runColdStart boots a read-only replica from the snapshot and journal,
// over and over: each job is exec to first correct semantic answer.
func runColdStart(cfg runConfig, spec workloadSpec, dir string, res *Result) error {
	corpus, corpusS := buildCorpus(cfg)
	snap := snapshotPath(dir, "registry")
	t0 := time.Now()
	journaled, deltaSaves, err := buildColdStartState(corpus, snap, cfg.Seed)
	if err != nil {
		return err
	}
	res.E2E[mSetup] = corpusS + time.Since(t0).Seconds()
	res.Samples[mSetup] = 1
	res.Info["setup_corpus_s"], res.Info["setup_snapshot_s"] = corpusS, time.Since(t0).Seconds()

	// Targets alternate between the base snapshot and the journal.
	base := corpus.alicePEs()
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x626f6f74))
	flags := append([]string{"-replica", "-registry", snap, "-metrics"}, indexFlags(0.9)...)
	res.Info["server_flags"] = strings.Join(flags, " ")
	res.Info["corpus_pes"], res.Info["corpus_workflows"] = cfg.NumPE+len(journaled), cfg.NumWF
	res.Info["delta_segments"], res.Info["upserts_per_delta"] = deltaSegments, upsertsPerDelta

	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var samples []sample
	var cpu float64
	var rss []float64
	var loadMS, loads float64
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	start := time.Now()
	for job := 0; time.Now().Before(deadline); job++ {
		p := base[rng.Intn(len(base))]
		if job%2 == 1 {
			p = journaled[rng.Intn(len(journaled))]
		}
		op := searchOp(clsSemANN, p, "", true)
		op.Class = clsBoot
		s, c, err := coldStartJob(cfg.ServerBin, flags, hc, &op)
		if err != nil {
			return err
		}
		s.Index = job
		samples = append(samples, s)
		if sc, err := scrapeChild(hc, c); err == nil {
			loadMS += 1000 * sc.sum("laminar_registry_load_seconds_sum")
			loads += sc.sum("laminar_registry_loads_total")
		}
		jobRSS, err := c.peakRSSMB()
		if err != nil {
			return err
		}
		c.stop(false)
		cpu += c.cpuUsed()
		rss = append(rss, jobRSS)
	}
	elapsed := time.Since(start)

	// Each boot is its own process; where the collector happens to be when
	// the first answer leaves decides a single boot's peak, so the median
	// boot stands for the workload.
	jobMetrics(res, spec, samples, elapsed, cpu, median(rss))
	res.Samples[mRSS] = len(rss)
	res.Checks = append(res.Checks, "first semantic answer of every boot holds the planted target, from the base snapshot or the journal")
	res.Layer["storage.load_chain_ms"] = ratio(loadMS, loads)
	res.Info["boots"] = len(samples)
	res.Info["limit_ms"] = spec.LimitMS

	disk, err := diskBytes(dir)
	if err != nil {
		return err
	}
	setDisk(res, disk, 2+cfg.NumPE+len(journaled)+cfg.NumWF)
	if cfg.Trace {
		return traceColdStart(cfg, corpus, snap, journaled, deltaSaves, res)
	}
	return nil
}

// setDisk fills disk_bytes_per_record: everything the run left on disk
// over the records it holds.
func setDisk(res *Result, bytes int64, records int) {
	res.E2E[mDisk] = float64(bytes) / float64(records)
	res.Samples[mDisk] = records
	res.Layer["storage.bytes_per_record"] = res.E2E[mDisk]
}

// jobMetrics fills the end-to-end metrics of a job workload: every job is
// a latency sample, and jobs per second is the capacity.
func jobMetrics(res *Result, spec workloadSpec, jobs []sample, elapsed time.Duration, cpuSec, rssMB float64) {
	latencyStats(res, spec, jobs)
	shareStats(res, spec, jobs, jobs)
	res.E2E[mCapacity] = float64(countCorrect(jobs)) / elapsed.Seconds()
	res.E2E[mCPU] = ratio(cpuSec*1000, float64(len(jobs)))
	res.E2E[mRSS] = rssMB
	res.Samples[mCapacity], res.Samples[mCPU], res.Samples[mRSS] = len(jobs), len(jobs), 1
	res.Attempted, res.Failed = len(jobs), countFailed(jobs)
}

// coldStartJob is one boot: exec, then retry the query until the replica
// answers it. The latency runs from exec to the first reply.
func coldStartJob(bin string, flags []string, hc *http.Client, op *Op) (sample, *child, error) {
	t0 := time.Now()
	c, err := startChild(bin, "replica", flags...)
	if err != nil {
		return sample{}, nil, err
	}
	senders := &httpSenders{base: c.url, clients: []*http.Client{hc}, bufs: make([]bytes.Buffer, 1)}
	for time.Since(t0) < coldStartMaxBoot {
		if c.exited() {
			return sample{}, nil, fmt.Errorf("replica exited during boot:\n%s", c.logTail())
		}
		out := senders.send(0, op)
		if out.OK {
			return sample{Class: op.Class, Latency: time.Since(t0), outcome: out}, c, nil
		}
		time.Sleep(time.Millisecond)
	}
	c.stop(false)
	return sample{}, nil, fmt.Errorf("replica did not answer within %v:\n%s", coldStartMaxBoot, c.logTail())
}

// flowServerFlags boot the empty-registry server of flow_run; simulated
// library installs are switched off so a run measures enactment.
func flowServerFlags(snapshot string) []string {
	return []string{"-registry", snapshot, "-metrics", "-install-scale", "0"}
}

// setupFlowServer boots the server, registers alice and both workflows
// through the client library, and runs each workflow once under SIMPLE:
// those outputs are the reference every mapping is held to.
func setupFlowServer(cfg runConfig, flags []string, hc *http.Client) (*child, map[string]string, error) {
	c, err := startChild(cfg.ServerBin, "server", flags...)
	if err != nil {
		return nil, nil, err
	}
	if err := c.waitReady(hc); err != nil {
		return nil, nil, err
	}
	cli := client.New(c.url)
	if err := cli.Register(userAlice, password); err != nil {
		return nil, nil, err
	}
	refs := map[string]string{}
	for _, wf := range flowWorkflows {
		if _, err := cli.RegisterWorkflow(wf.Source, wf.Name, wf.Description); err != nil {
			return nil, nil, fmt.Errorf("registering %s: %w", wf.Name, err)
		}
		op := flowOp(wf.Name, "SIMPLE")
		var resp core.ExecutionResponse
		if err := postJSON(hc, c.url+op.Path, op.Body, http.StatusOK, &resp); err != nil {
			return nil, nil, fmt.Errorf("reference run of %s: %w", wf.Name, err)
		}
		refs[wf.Name] = flowOutput(&resp)
		if refs[wf.Name] == "" {
			return nil, nil, fmt.Errorf("reference run of %s produced no output", wf.Name)
		}
	}
	return c, refs, nil
}

// runFlowRun posts workflow runs one at a time, rotating the four
// mappings over the two workflows.
func runFlowRun(cfg runConfig, spec workloadSpec, dir string, res *Result) error {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	snap := snapshotPath(dir, "registry")
	flags := flowServerFlags(snap)
	var srv *child
	var refs map[string]string
	var setups []float64
	for round := 0; round < bootRounds; round++ {
		if srv != nil {
			srv.stop(false)
		}
		t0 := time.Now()
		var err error
		if srv, refs, err = setupFlowServer(cfg, flags, hc); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.E2E[mSetup] = median(setups)
	res.Samples[mSetup] = bootRounds
	res.Info["server_flags"] = strings.Join(flags, " ")
	res.Info["records_per_run"], res.Info["flow_seed"], res.Info["processes"] = flowRecords, flowSeed, nproc()

	senders := newHTTPSenders(srv.url, 1)
	defer senders.close()
	senders.refs = refs
	servers := []*child{srv}
	ops := genFlowRun(int(cfg.Seconds*400) + 16)
	// One untimed rotation warms the interpreter caches and the engine's
	// learned PE costs: a closed loop over just those ops, which ends when
	// it runs out of them.
	rotation := len(flowMappings) * len(flowWorkflows)
	warm := closedLoop(ops[:rotation], 0, time.Hour, 1, senders.send)
	var lr loadRun
	var err error
	if lr.delta.before, err = scrapeAll(hc, servers); err != nil {
		return err
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	run := closedLoop(ops, len(warm.Samples), time.Duration(cfg.Seconds*float64(time.Second)), 1, senders.send)
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	if lr.delta.after, err = scrapeAll(hc, servers); err != nil {
		return err
	}
	if run.Exhausted {
		return errExhausted
	}
	if err := anyDied(servers); err != nil {
		return err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}

	jobMetrics(res, spec, run.Samples, run.Elapsed, cpu1-cpu0, rss)
	res.Failed += countFailed(warm.Samples)
	res.Checks = append(res.Checks, "output multiset of every run equals the SIMPLE reference")
	classStats(res, run.Samples)
	res.Info["runs"], res.Info["limit_ms"] = len(run.Samples), spec.LimitMS
	d := lr.delta
	res.Layer["server.http_requests"] = d.sum("laminar_http_requests_total")
	res.Layer["dataflow.backpressure_waits"] = d.sum("laminar_flow_backpressure_waits_total")
	var replyBytes float64
	for _, s := range run.Samples {
		replyBytes += float64(s.Bytes)
	}
	res.Layer["server.resp_bytes_per_op"] = ratio(replyBytes, float64(len(run.Samples)))

	t0 := time.Now()
	srv.stop(true) // the server saves its small registry on SIGTERM
	res.Layer["storage.shutdown_save_ms"] = toMS(time.Since(t0))
	disk, err := diskBytes(dir)
	if err != nil {
		return err
	}
	// One user, two workflows and the five PEs they define.
	setDisk(res, disk, 8)
	if cfg.Trace {
		return traceFlowRun(cfg, res)
	}
	return nil
}
