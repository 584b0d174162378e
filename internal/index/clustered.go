package index

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"laminar/internal/vecmath"
)

// ClusteredConfig tunes the IVF-style index. Centroids and SpillRatio shape
// the trained *structure* (and are therefore recorded in snapshots); the
// remaining knobs are pure query-time policy and can differ freely between
// the process that trained an index and the one that restored it.
type ClusteredConfig struct {
	// Centroids fixes the number of clusters; 0 chooses ~sqrt(N)
	// automatically at (re)train time.
	Centroids int
	// NProbe is how many nearest shards a query scans; 0 chooses
	// max(1, centroids/4). Setting NProbe >= centroids makes the search
	// exact (identical results to Flat). When RecallTarget is set, NProbe
	// instead acts as the adaptive probe loop's floor (0 = 1).
	NProbe int
	// RecallTarget, in (0, 1], switches probing from the fixed NProbe count
	// to per-query adaptive widening. The scan stops early on either of two
	// rules: the *proof* rule — the kth-best candidate found so far exceeds
	// the score upper bound (centroid similarity + shard radius) of every
	// unprobed shard, so stopping provably loses nothing — or, below 1.0,
	// the *diminishing-returns* rule — enough consecutive shards in
	// best-first order contributed nothing to the top-k (the patience grows
	// with the target; see patienceFor). At 1.0 only the proof rule may
	// stop the scan, so the search returns exactly the Flat answer —
	// unless MaxProbe truncates it first (the budget always wins). 0 (the
	// default) scans exactly NProbe shards: the same loop with floor = cap
	// and so no stop rule.
	RecallTarget float64
	// MaxProbe caps how many shards an adaptive query may scan — a hard
	// latency budget for worst-case queries that overrides the recall
	// target, including the exactness of 1.0; 0 means no cap. Ignored
	// when RecallTarget is 0.
	MaxProbe int
	// SpillRatio, when > 0, replicates near-boundary vectors into their
	// second-nearest shard at assignment time: a vector spills when its
	// distance to the second-nearest centroid is within (1+SpillRatio)
	// times the distance to its nearest. Spilled shards overlap, so queries
	// deduplicate; a full probe still returns exactly the Flat answer.
	SpillRatio float64
	// Overfetch, when > 1, widens the quantized candidate pool to
	// k*Overfetch, so the exact rescore picks the final top-k from more
	// of the int8 pass's near-ties. It engages only with Quantize (and so
	// never at RecallTarget >= 1): widening a pool that is already scored
	// exactly changes no result and only costs a bigger heap.
	Overfetch int
	// Quantize, when true, maintains an int8 scalar-quantized companion
	// of every stored vector (a vecmath.QuantizedSet) and scores the
	// candidate-selection pass of probed shards with cheap int8 dot
	// products instead of full float32 ones; the final top-k is always
	// exact-rescored from the float vectors. Bypassed entirely at
	// RecallTarget >= 1 — the proof rule's byte-identical-to-Flat
	// guarantee only holds over exact scores. The companion is persisted
	// as an optional sidecar section and rebuilt from the float vectors
	// on restore when absent or damaged.
	Quantize bool
	// RetrainCooldown, when > 0, rate-limits automatic background
	// retrains: once a retrain launches, further automatic triggers
	// (corpus doublings, accumulated churn) within the window coalesce
	// into at most one deferred retrain that launches when the window
	// closes — so a pathological churn burst can no longer retrain
	// back-to-back indefinitely. The deferred retrain covers everything
	// the burst changed (the churn counter keeps accumulating while
	// gated). TrainNow, an explicit operator/benchmark action, bypasses
	// the cooldown. See docs/operations.md for tuning guidance.
	RetrainCooldown time.Duration
}

// minTrainSize is the corpus size below which clustering buys nothing; the
// index brute-scans until it is reached.
const minTrainSize = 64

// maxLloydIters bounds the k-means refinement loop per (re)train.
const maxLloydIters = 8

// trainedSet is one trained clustering: the centroids, the shard membership
// of every assigned id (primary assignment plus optional spill replicas),
// and per-shard radii bounding how far any member sits from its centroid. A
// retrain builds a fresh trainedSet off to the side and installs it with a
// single pointer swap, so queries either see the old clustering or the new
// one, never a half-built hybrid. Between retrains the set is maintained
// incrementally (nearest-centroid insert, shard removal on delete) under
// the index lock.
type trainedSet struct {
	centroids [][]float32
	shards    [][]int     // centroid index → member ids (primary + spilled)
	assign    map[int]int // id → primary centroid index
	spill     map[int]int // id → secondary centroid index (near-boundary replicas)
	// radii[ci] is an upper bound on the distance from centroid ci to any
	// member of shard ci (including spilled members). Inserts widen it,
	// deletes leave it (still a valid upper bound), retrains recompute it.
	// The adaptive probe loop turns it into a per-shard score bound:
	// no member of shard ci can score above dot(q, centroid) + radius.
	radii []float64
	// qradii[ci] is the radiusQuantile (p95) of member distances in shard
	// ci at train/restore time — a tighter, slightly leaky bound that a
	// single outlier member cannot inflate. Approximate adaptive scans
	// (RecallTarget < 1) bound shards with it instead of the max radius,
	// stopping sooner on the same corpus; exact scans (target 1.0) keep
	// the provable max. Inserts widen it just like radii so a shard's
	// newest member is never bounded out.
	qradii []float64
}

// radiusQuantile is the member-distance quantile qradii stores.
const radiusQuantile = 0.95

// quantileDist returns the q-quantile of ds (sorted in place). Empty in,
// zero out.
func quantileDist(ds []float64, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Float64s(ds)
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(ds) {
		i = len(ds) - 1
	}
	return ds[i]
}

// Clustered is an IVF-style approximate index: vectors are partitioned into
// shards around k-means-ish centroids, and a query scans only the shards
// whose centroids are most similar to it — a fixed NProbe count, or an
// adaptively widened set under RecallTarget (see Search).
//
// Maintenance is incremental — a new vector is assigned to its nearest
// existing centroid (and replicated to its second-nearest under SpillRatio)
// — with a full deterministic retrain amortized over doublings of the
// corpus and over delete/replace churn. The retrain runs in a background
// goroutine against a copy-on-write snapshot of the vectors: queries keep
// being served from the previous clustering the whole time, inserts that
// arrive mid-retrain land in a small exact overflow buffer that every query
// scans alongside the probed shards, and the finished clustering is
// installed with an atomic pointer swap. The serving path therefore never
// waits on k-means.
type Clustered struct {
	mu   sync.RWMutex
	cond *sync.Cond // broadcast whenever a retrain attempt finishes
	cfg  ClusteredConfig

	vecs     map[int][]float32
	trained  *trainedSet // nil until the first training completes
	overflow map[int]bool

	// qset mirrors vecs with int8 quantized codes when cfg.Quantize is
	// set (nil otherwise); maintained under mu by the same paths that
	// maintain vecs.
	qset *vecmath.QuantizedSet

	trainedAt  int  // corpus size at the last completed retrain
	churn      int  // removals/replacements since the last retrain launch
	retraining bool // a background retrain is in flight
	gen        int  // invalidates in-flight retrains on Restore
	retrains   int  // completed full retrains (observability/tests)

	// Retrain-cooldown state. lastLaunch is when the most recent retrain
	// (automatic or TrainNow) was launched; deferred records that a
	// cooldown-gated trigger already scheduled the one coalesced retrain
	// for the end of the window. clock and schedule are time.Now and
	// time.AfterFunc, injectable so the cooldown unit tests run on a fake
	// clock instead of sleeping.
	lastLaunch time.Time
	deferred   bool
	clock      func() time.Time
	schedule   func(d time.Duration, f func())
	// lastRetrainDur is how long the most recent completed retrain took
	// (measured on the injectable clock). The cooldown adapts to it: a
	// corpus whose retrains take minutes gets a proportionally longer
	// window than the flag alone would give (see effectiveCooldownLocked).
	lastRetrainDur time.Duration

	// metrics, when set, is the observability surface every query and
	// completed retrain reports into (see SetMetrics).
	metrics *ClusteredMetrics

	// retrainHook, when set, runs inside the retrain goroutine before the
	// k-means computation — tests use it to hold a retrain open while they
	// probe the serving path.
	retrainHook func()
}

// NewClustered creates an empty IVF index. Out-of-range knobs are clamped
// to their "off" settings rather than rejected — a negative spill ratio or
// recall target cannot mean anything else.
func NewClustered(cfg ClusteredConfig) *Clustered {
	if cfg.SpillRatio < 0 {
		cfg.SpillRatio = 0
	}
	if cfg.RecallTarget < 0 {
		cfg.RecallTarget = 0
	}
	if cfg.RecallTarget > 1 {
		cfg.RecallTarget = 1
	}
	c := &Clustered{
		cfg:      cfg,
		vecs:     map[int][]float32{},
		overflow: map[int]bool{},
		clock:    time.Now,
		schedule: func(d time.Duration, f func()) { time.AfterFunc(d, f) },
	}
	if cfg.Quantize {
		c.qset = vecmath.NewQuantizedSet()
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Name identifies the implementation.
func (c *Clustered) Name() string { return "clustered" }

// Len reports the number of stored vectors.
func (c *Clustered) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.vecs)
}

// Retrains reports how many full retrains have completed — the registry's
// restore path asserts this stays zero when a snapshot loads cleanly.
func (c *Clustered) Retrains() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.retrains
}

// Generation reports a counter that advances whenever the trained
// structure an answer depends on is replaced — a completed retrain or a
// snapshot Restore. Result caches key their entries to it: the same query
// against the same generation (and the same record set) returns the same
// candidates, so a generation bump is exactly when cached ANN answers must
// be discarded. Monotonic: both underlying counters only ever increase.
func (c *Clustered) Generation() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return uint64(c.retrains) + uint64(c.gen)
}

// WaitRetrain blocks until no background retrain is in flight. Benchmarks
// and tests call it to reach a settled clustering; serving code never needs
// to.
func (c *Clustered) WaitRetrain() {
	c.mu.Lock()
	for c.retraining {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// TrainNow runs one full retrain over the current corpus and blocks until
// it lands — the synchronous path to the same fully-trained state a
// snapshot restore reproduces. Below minTrainSize it is a no-op: the index
// brute-scans there (exactly), and installing a tiny clustering would
// silently make those corpora approximate. Benchmarks use it as the
// rebuild baseline; the serving path sticks to background retrains.
func (c *Clustered) TrainNow() {
	c.mu.Lock()
	for c.retraining {
		c.cond.Wait()
	}
	if len(c.vecs) < minTrainSize {
		c.mu.Unlock()
		return
	}
	c.launchRetrainLocked()
	c.mu.Unlock()
	c.WaitRetrain()
}

// Upsert stores a copy of vec under id; an empty vec removes the entry.
// With a clustering live the id is assigned to its nearest shard (plus a
// spill replica when configured); while a retrain is in flight it goes to
// the exact overflow buffer instead (the in-flight result is computed from
// a snapshot and would lose a concurrent shard insert at swap time).
// Crossing a corpus doubling launches a background retrain.
func (c *Clustered) Upsert(id int, vec []float32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(vec) == 0 {
		// A removal, not an insert — it accrues churn exactly like Delete,
		// so it must run the same trigger check or churn-due retrains
		// would defer until some unrelated mutation happens by.
		c.deleteLocked(id)
		c.maybeRetrainLocked()
		return
	}
	c.deleteLocked(id) // replacing: drop any stale shard membership
	c.vecs[id] = append([]float32(nil), vec...)
	if c.qset != nil {
		c.qset.Upsert(id, c.vecs[id])
	}
	switch {
	case c.retraining:
		// Checked before trained==nil: even during the FIRST training a
		// replaced vector must be flagged, or the merge would keep the
		// k-means assignment computed from its stale snapshot value.
		// (While trained is nil queries brute-scan everything, so the flag
		// costs nothing there.)
		c.overflow[id] = true
	case c.trained == nil:
		// Brute-scan mode: every query visits every vector already.
	default:
		c.trained.insert(c.cfg, id, c.vecs[id])
	}
	c.maybeRetrainLocked()
}

// Delete removes the entry for id. Removals count toward the retrain
// trigger: a corpus that churns in place (delete + insert at a steady size)
// never crosses a doubling, but its clustering still degrades, so enough
// accumulated churn relaunches the training too.
func (c *Clustered) Delete(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deleteLocked(id)
	c.maybeRetrainLocked()
}

func (c *Clustered) deleteLocked(id int) {
	if _, ok := c.vecs[id]; !ok {
		return
	}
	delete(c.vecs, id)
	delete(c.overflow, id)
	if c.qset != nil {
		c.qset.Delete(id)
	}
	c.churn++
	if c.trained == nil {
		return
	}
	if ci, ok := c.trained.assign[id]; ok {
		delete(c.trained.assign, id)
		c.trained.removeMember(ci, id)
	}
	if ci, ok := c.trained.spill[id]; ok {
		delete(c.trained.spill, id)
		c.trained.removeMember(ci, id)
	}
}

// removeMember drops id from shard ci's member list. The shard radius is
// deliberately left alone — it remains a valid (if looser) upper bound, and
// the next retrain recomputes it tight.
func (ts *trainedSet) removeMember(ci, id int) {
	members := ts.shards[ci]
	for i, m := range members {
		if m == id {
			ts.shards[ci] = append(members[:i], members[i+1:]...)
			return
		}
	}
}

// insert assigns one vector into the trained set exactly as every
// incremental path does: primary nearest shard, a spill replica when the
// second-nearest centroid is within the spill ratio, and radii widened so
// the adaptive-probe score bounds stay valid for the new member.
func (ts *trainedSet) insert(cfg ClusteredConfig, id int, v []float32) {
	best, second := nearestTwoCentroids(ts.centroids, v)
	ts.assign[id] = best
	ts.shards[best] = append(ts.shards[best], id)
	d1 := distance(ts.centroids[best], v)
	if d1 > ts.radii[best] {
		ts.radii[best] = d1
	}
	if d1 > ts.qradii[best] {
		ts.qradii[best] = d1
	}
	if cfg.SpillRatio > 0 && second >= 0 {
		if d2 := distance(ts.centroids[second], v); d2 <= (1+cfg.SpillRatio)*d1 {
			ts.spill[id] = second
			ts.shards[second] = append(ts.shards[second], id)
			if d2 > ts.radii[second] {
				ts.radii[second] = d2
			}
			if d2 > ts.qradii[second] {
				ts.qradii[second] = d2
			}
		}
	}
}

func (c *Clustered) retrainDueLocked() bool {
	n := len(c.vecs)
	if n < minTrainSize {
		return false
	}
	if c.trained == nil {
		return true
	}
	return n >= 2*c.trainedAt || c.churn >= c.trainedAt
}

// maybeRetrainLocked is the single automatic-retrain gate: it launches a
// due background retrain unless one is already in flight or the cooldown
// suppresses it. A cooldown-gated trigger coalesces into one retrain
// deferred to the end of the window — the churn that keeps arriving
// meanwhile accumulates and is covered by that single launch. Explicit
// TrainNow calls bypass this gate by design.
func (c *Clustered) maybeRetrainLocked() {
	if c.retraining || !c.retrainDueLocked() {
		return
	}
	if cd := c.effectiveCooldownLocked(); cd > 0 && !c.lastLaunch.IsZero() {
		if elapsed := c.clock().Sub(c.lastLaunch); elapsed < cd {
			c.deferRetrainLocked(cd - elapsed)
			return
		}
	}
	c.launchRetrainLocked()
}

// cooldownDurationFactor scales the adaptive cooldown: a retrain may
// consume at most ~1/cooldownDurationFactor of the index's background
// compute budget.
const cooldownDurationFactor = 5

// effectiveCooldownLocked is the cooldown window actually enforced: the
// configured flag, stretched to cooldownDurationFactor times the last
// measured retrain duration when that is longer. A flag tuned for a small
// corpus therefore cannot make a grown corpus spend most of its time in
// k-means — the window scales with the cost it gates. Cooldown off
// (flag <= 0) stays off regardless of duration.
func (c *Clustered) effectiveCooldownLocked() time.Duration {
	cd := c.cfg.RetrainCooldown
	if cd <= 0 {
		return cd
	}
	if adaptive := cooldownDurationFactor * c.lastRetrainDur; adaptive > cd {
		return adaptive
	}
	return cd
}

// deferRetrainLocked schedules the one coalesced retrain a cooldown
// window is allowed. Idempotent — the first gated trigger schedules, the
// rest ride along. The callback re-checks everything under the lock: the
// corpus may have been Restored (gen moved on — Restore never retrains),
// the pending churn may have been absorbed by a TrainNow, or the window
// may have been extended by another launch in the meantime.
func (c *Clustered) deferRetrainLocked(wait time.Duration) {
	if c.deferred {
		return
	}
	c.deferred = true
	gen := c.gen
	c.schedule(wait, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if gen != c.gen {
			// A Restore replaced the corpus since this was scheduled. The
			// Restore cleared the deferral flag, so any post-Restore
			// trigger owns a fresh deferral of its own — leave the flag
			// alone and do nothing (Restore never retrains, and neither
			// may a timer that predates it).
			return
		}
		c.deferred = false
		c.maybeRetrainLocked()
	})
}

// launchRetrainLocked snapshots the vector set and starts the background
// retrain goroutine. The snapshot shares vector slices with the live map —
// safe because Upsert always installs a fresh slice, never mutates one in
// place — so the copy is O(N) map entries, not O(N·d) floats. The churn
// counter restarts here: mutations that land after the launch are not
// reflected in the training under way and must count toward the next one.
func (c *Clustered) launchRetrainLocked() {
	c.retraining = true
	c.churn = 0
	c.lastLaunch = c.clock()
	gen := c.gen
	snap := make(map[int][]float32, len(c.vecs))
	for id, v := range c.vecs {
		snap[id] = v
	}
	hook := c.retrainHook
	go c.retrain(snap, gen, hook)
}

// retrain runs off the serving path: k-means over the snapshot without any
// lock held, then a brief locked merge that reconciles what changed while
// training (deletes drop out, overflow inserts are assigned to their nearest
// new centroid) and installs the new clustering with a pointer swap.
func (c *Clustered) retrain(snap map[int][]float32, gen int, hook func()) {
	// The measured window opens before the hook on purpose: the hook is the
	// injectable stand-in for "the retrain takes a while", which is what
	// the adaptive-cooldown tests advance the fake clock inside.
	start := c.clock()
	if hook != nil {
		hook()
	}
	cents, assign, spill, radii, qradii := trainKMeans(c.cfg, snap)

	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.cond.Broadcast()
	if gen != c.gen {
		// A Restore replaced the corpus while we trained; the result
		// describes vectors that no longer exist. Whoever bumped gen also
		// owns the retraining flag, so leave all state alone.
		return
	}
	ts := &trainedSet{
		centroids: cents,
		shards:    make([][]int, len(cents)),
		assign:    make(map[int]int, len(c.vecs)),
		spill:     map[int]int{},
		radii:     radii,
		qradii:    qradii,
	}
	for id, ci := range assign {
		if _, ok := c.vecs[id]; !ok {
			continue // deleted while training
		}
		if c.overflow[id] {
			// The vector was replaced mid-retrain; the k-means assignment
			// positions its *old* value. Reassign from the live vector
			// below instead.
			continue
		}
		ts.assign[id] = ci
		ts.shards[ci] = append(ts.shards[ci], id)
	}
	for id, ci := range spill {
		if _, ok := ts.assign[id]; !ok {
			continue // deleted or replaced mid-retrain; handled below
		}
		ts.spill[id] = ci
		ts.shards[ci] = append(ts.shards[ci], id)
	}
	// Everything else arrived (or was replaced) mid-retrain and is exactly
	// the overflow buffer — inserts and replacements during a retrain
	// always flag it, deletes always clear it. Assign each live vector as
	// an incremental insert would. Walking the overflow, not all of vecs,
	// keeps this O(Δ·k·d) for Δ mid-retrain changes — the only index work
	// that ever happens under the write lock during a retrain. (The radii
	// computed over the snapshot stay valid upper bounds for ids deleted
	// mid-retrain; insert only ever widens them.)
	for id := range c.overflow {
		v, ok := c.vecs[id]
		if !ok {
			continue
		}
		ts.insert(c.cfg, id, v)
	}
	c.trained = ts // the atomic swap: queries now see the new clustering
	c.overflow = map[int]bool{}
	// trainedAt is the corpus size the clustering was actually computed
	// over — the snapshot, not the live set. Using the live size here would
	// absorb everything that arrived mid-retrain into the "trained" count
	// and make the relaunch check below unreachable.
	c.trainedAt = len(snap)
	c.retraining = false
	c.retrains++
	dur := c.clock().Sub(start)
	c.lastRetrainDur = dur
	c.metrics.observeRetrain(dur.Seconds())
	// The corpus may have doubled (or churned) again while we were
	// training; go around — through the cooldown gate, which is exactly
	// where back-to-back retrain storms are broken.
	c.maybeRetrainLocked()
}

// numCentroids picks the cluster count for a corpus of n vectors.
func numCentroids(cfg ClusteredConfig, n int) int {
	k := cfg.Centroids
	if k <= 0 {
		k = int(math.Ceil(math.Sqrt(float64(n))))
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	return k
}

// trainKMeans clusters a vector set with a deterministic k-means: seeds are
// evenly spaced over the id-sorted corpus, up to maxLloydIters Lloyd
// iterations refine them (ties break toward the lowest centroid index), and
// a final pass assigns every id to its nearest *final* centroid so shard
// membership always agrees with the centroids a query probes against. The
// same final pass computes the spill replicas (second-nearest centroid
// within the configured ratio) and the per-shard radii — the max and the
// radiusQuantile — the adaptive probe bounds need. It is a pure function —
// the background retrain runs it without holding the index lock.
func trainKMeans(cfg ClusteredConfig, vecs map[int][]float32) ([][]float32, map[int]int, map[int]int, []float64, []float64) {
	n := len(vecs)
	if n == 0 {
		return nil, map[int]int{}, map[int]int{}, nil, nil
	}
	ids := make([]int, 0, n)
	for id := range vecs {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	k := numCentroids(cfg, n)
	cents := make([][]float32, k)
	for i := 0; i < k; i++ {
		cents[i] = append([]float32(nil), vecs[ids[i*n/k]]...)
	}
	assign := make([]int, len(ids))
	for i := range assign {
		assign[i] = -1
	}
	for iter := 0; iter < maxLloydIters; iter++ {
		changed := false
		for i, id := range ids {
			best := nearestCentroid(cents, vecs[id])
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		// Recompute each centroid as the normalized mean of its members;
		// empty clusters keep their previous centroid.
		sums := make([][]float64, k)
		counts := make([]int, k)
		for i, id := range ids {
			ci := assign[i]
			v := vecs[id]
			if sums[ci] == nil {
				sums[ci] = make([]float64, len(v))
			}
			s := sums[ci]
			for d := 0; d < len(v) && d < len(s); d++ {
				s[d] += float64(v[d])
			}
			counts[ci]++
		}
		for ci := range cents {
			if counts[ci] == 0 {
				continue
			}
			var norm float64
			for _, x := range sums[ci] {
				norm += x * x
			}
			norm = math.Sqrt(norm)
			if norm == 0 {
				continue
			}
			cent := make([]float32, len(sums[ci]))
			for d, x := range sums[ci] {
				cent[d] = float32(x / norm)
			}
			cents[ci] = cent
		}
	}

	out := make(map[int]int, n)
	spill := map[int]int{}
	radii := make([]float64, k)
	dists := make([][]float64, k)
	for _, id := range ids {
		v := vecs[id]
		best, second := nearestTwoCentroids(cents, v)
		out[id] = best
		d1 := distance(cents[best], v)
		if d1 > radii[best] {
			radii[best] = d1
		}
		dists[best] = append(dists[best], d1)
		if cfg.SpillRatio > 0 && second >= 0 {
			if d2 := distance(cents[second], v); d2 <= (1+cfg.SpillRatio)*d1 {
				spill[id] = second
				if d2 > radii[second] {
					radii[second] = d2
				}
				dists[second] = append(dists[second], d2)
			}
		}
	}
	qradii := make([]float64, k)
	for ci := range dists {
		qradii[ci] = quantileDist(dists[ci], radiusQuantile)
	}
	return cents, out, spill, radii, qradii
}

// nearestCentroid returns the index of the centroid most similar to v (ties
// break toward the lowest index).
func nearestCentroid(cents [][]float32, v []float32) int {
	best, bestScore := 0, math.Inf(-1)
	for ci, cent := range cents {
		if s := dot(cent, v); s > bestScore {
			best, bestScore = ci, s
		}
	}
	return best
}

// nearestTwoCentroids returns the indexes of the two centroids most similar
// to v. The primary follows nearestCentroid's exact tie rule (toward the
// lowest index); second is -1 when fewer than two centroids exist.
func nearestTwoCentroids(cents [][]float32, v []float32) (best, second int) {
	best, second = 0, -1
	bestScore, secondScore := math.Inf(-1), math.Inf(-1)
	for ci, cent := range cents {
		s := dot(cent, v)
		switch {
		case s > bestScore:
			second, secondScore = best, bestScore
			best, bestScore = ci, s
		case s > secondScore:
			second, secondScore = ci, s
		}
	}
	if len(cents) < 2 {
		second = -1
	}
	return best, second
}

// distance is the Euclidean distance over the common prefix of two vectors
// (the same prefix rule the shared dot product uses). Computed directly
// rather than via 2-2·cos so the shard radii are true distances, not
// unit-norm approximations — the adaptive stop rule's exactness proof at
// RecallTarget=1 leans on these being genuine upper bounds. vecmath.L2
// keeps the historic scalar loop's semantics bit-identically.
func distance(a, b []float32) float64 {
	return vecmath.L2(a, b)
}

// candidatePoolLocked decides how a clustered scan scores and sizes its
// candidate pool for a top-k query. The quantized pass engages whenever a
// companion set exists and the proof rule is not in play: RecallTarget >= 1
// promises byte-identical-to-Flat answers, which only exact scores can
// honor. Overfetch widens only a quantized pool. k is a client-controlled
// limit and travels here unclamped; a widened pool must saturate, never
// overflow into TopK(0).
func (c *Clustered) candidatePoolLocked(k int) (poolK int, quantized bool) {
	quantized = c.qset != nil && c.cfg.RecallTarget < 1
	of := c.cfg.Overfetch
	switch {
	case !quantized || of <= 1:
		return k, quantized
	case k > math.MaxInt/of:
		return math.MaxInt, true
	}
	return k * of, true
}

// boundPad is the safety margin added to a shard's score upper bound. The
// bound dot(q,c)+r is exact in real arithmetic for a unit-norm query; the
// pad absorbs the float32 normalization error of real queries (≲1e-6
// relative) and the float64 accumulation error of dot and distance, so a
// bound never rounds *below* a reachable score and the RecallTarget=1 stop
// rule stays a proof rather than a heuristic.
func boundPad(r float64) float64 { return 1e-5*r + 1e-9 }

// probePlan is how far one query walks the best-first shard order: the
// first floor shards are always scanned, the stop rules may end the walk
// anywhere in [floor, cap), and reaching cap ends it with capRule as the
// attribution.
type probePlan struct {
	floor, cap int
	capRule    string
	// exact: only the proof rule may stop the walk, over max-radius bounds
	// in best-bound-first order (RecallTarget 1.0).
	exact bool
	// patience arms the diminishing-returns rule when > 0.
	patience int
}

// probePlanLocked resolves the probe knobs against the live centroid set.
// The fixed regime (no RecallTarget) is the plan with floor = cap = NProbe
// (0 chooses centroids/4): every stop rule sits behind the floor, so none
// is ever consulted and the walk scans exactly that many shards.
func (c *Clustered) probePlanLocked() probePlan {
	n := len(c.trained.centroids)
	target := c.cfg.RecallTarget
	if target == 0 {
		p := c.cfg.NProbe
		if p <= 0 {
			p = n / 4
		}
		p = min(max(p, 1), n)
		return probePlan{floor: p, cap: p, capRule: StopFixed}
	}
	// An adaptive walk that runs out of shards degenerated to a full probe;
	// one the MaxProbe budget truncates says so.
	plan := probePlan{floor: max(c.cfg.NProbe, 1), cap: n, capRule: StopExhausted, exact: target >= 1}
	if mp := c.cfg.MaxProbe; mp > 0 && mp < n {
		plan.cap, plan.capRule = mp, StopBudget
	}
	plan.floor = min(plan.floor, plan.cap)
	if !plan.exact {
		plan.patience = patienceFor(target)
	}
	return plan
}

// probeTarget is one shard in a query's visit plan: its centroid index, the
// centroid's similarity to the query, and the upper bound on any member's
// score (centroid similarity + shard radius).
type probeTarget struct {
	ci    int
	score float64
	bound float64
}

// patienceFor maps a recall target to the adaptive probe loop's patience:
// how many consecutive shards may fail to improve the top-k before the scan
// concludes it has hit diminishing returns. The mapping grows without bound
// as the target approaches 1 (0.5→1, 0.8→2, 0.9→5, 0.95→10, 0.99→50);
// target 1.0 never uses it — only the provable bound rule may stop an exact
// scan.
func patienceFor(target float64) int {
	p := int(math.Ceil(target / (2 * (1 - target))))
	if p < 1 {
		p = 1
	}
	return p
}

// Search returns the top-k most similar stored vectors.
//
// Before the first training completes there are no centroids and the whole
// corpus is brute-scanned, which is both exact and cheap at that scale.
// With a clustering live the query runs the probe → (rescore) pipeline:
//
//  1. Probe selection. Shards are visited best-first between a floor and
//     a cap (see probePlanLocked). With RecallTarget set the floor is
//     NProbe, the cap MaxProbe, and between them the loop stops early on
//     the proof rule (the kth-best candidate exceeds every remaining
//     shard's score upper bound, so stopping loses nothing) or, below
//     target 1.0, the diminishing-returns rule (target-scaled patience
//     ran out with no top-k improvement). At target 1.0 only the proof
//     rule stops the scan, so with no MaxProbe cap the answer equals
//     Flat's exactly (the budget, when set, always wins over the target).
//     With RecallTarget unset floor = cap = NProbe: the same loop with no
//     room for a stop rule, scanning the NProbe most similar shards.
//  2. Candidate scoring. Shard members are scored with the shared exact dot
//     product, or — with Quantize — with the int8 companion's dot product,
//     keeping the best k·Overfetch. Spilled (replicated) members are
//     deduplicated as they are met.
//  3. Overflow. The exact overflow buffer (inserts a live retrain has not
//     folded in yet) is always scanned, so fresh vectors are immediately
//     findable.
//  4. Re-rank. A quantized pool is exact-rescored with full dot products
//     before the final top-k.
//
// Because shards plus overflow cover every live vector (spill replicas are
// deduplicated), probing every shard yields exactly the Flat result.
func (c *Clustered) Search(query []float32, k int, filter Filter) []Candidate {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.searchLocked(query, k, filter)
}

// searchLocked is Search's body. Callers hold c.mu (read or write).
func (c *Clustered) searchLocked(query []float32, k int, filter Filter) []Candidate {
	if k <= 0 {
		return []Candidate{}
	}
	met := c.metrics
	if c.trained == nil {
		top := NewTopK(k)
		scanned := 0
		for id, v := range c.vecs {
			if filter != nil && !filter(id) {
				continue
			}
			scanned++
			top.Push(Candidate{ID: id, Score: dot(query, v)})
		}
		met.observeQuery(0, scanned, StopBrute)
		return top.Sorted()
	}
	ts := c.trained
	plan := c.probePlanLocked()

	poolK, quantized := c.candidatePoolLocked(k)
	var qCodes []int8
	var qScale float32
	if quantized {
		qCodes, qScale = vecmath.Quantize(query)
	}

	pool := NewTopK(poolK)
	// gate tracks the kth-best score seen, feeding the stop rules; when the
	// pool is not widened it IS the pool, and a plan that can never consult
	// a stop rule needs none.
	gate := pool
	if poolK != k && plan.floor < plan.cap {
		gate = NewTopK(k)
	}
	var seen map[int]bool // lazy: only spilled ids can be met twice
	scanned := 0          // candidate vectors actually scored (observability)
	scanID := func(id int) {
		if filter != nil && !filter(id) {
			return
		}
		if _, spilled := ts.spill[id]; spilled {
			if seen[id] {
				return
			}
			if seen == nil {
				seen = map[int]bool{}
			}
			seen[id] = true
		}
		v, ok := c.vecs[id]
		if !ok {
			return
		}
		scanned++
		// No companion for this id (e.g. a damaged persisted entry adopted
		// partially) degrades to the exact float score, never to a miss.
		s, qok := 0.0, false
		if quantized {
			s, qok = c.qset.Dot(qCodes, qScale, id)
		}
		if !qok {
			s = dot(query, v)
		}
		cand := Candidate{ID: id, Score: s}
		pool.Push(cand)
		if gate != pool {
			gate.Push(cand)
		}
	}

	targets := make([]probeTarget, len(ts.centroids))
	for ci, cent := range ts.centroids {
		cs := dot(query, cent)
		// Exact scans bound each shard by its max radius — the provable
		// cap the proof rule needs. Approximate scans use the p95
		// quantile radius instead: a single outlier member can no longer
		// hold a shard's bound open, so the stop rules fire sooner, and
		// the members past the quantile are exactly the kind of long-shot
		// candidates a sub-1.0 target has already agreed to trade away.
		r := ts.qradii[ci]
		if plan.exact {
			r = ts.radii[ci]
		}
		targets[ci] = probeTarget{ci: ci, score: cs, bound: cs + r + boundPad(r)}
	}
	// An exact scan visits shards best-bound-first so the provable stop
	// rule sees a monotone bound sequence; every other one visits
	// best-centroid-first, which concentrates the likely hits up front
	// (a shard with an outlier-inflated radius must not jump the queue).
	sort.Slice(targets, func(i, j int) bool {
		a, b := targets[i], targets[j]
		if plan.exact && a.bound != b.bound {
			return a.bound > b.bound
		}
		if !plan.exact && a.score != b.score {
			return a.score > b.score
		}
		return a.ci < b.ci
	})
	// suffixBound[i] caps every score reachable from shard i onward.
	suffixBound := make([]float64, len(targets)+1)
	suffixBound[len(targets)] = math.Inf(-1)
	for i := len(targets) - 1; i >= 0; i-- {
		suffixBound[i] = math.Max(suffixBound[i+1], targets[i].bound)
	}
	// Every early break below overwrites this attribution.
	stopRule := plan.capRule
	unimproved := 0
	probes := 0 // shards visited (observability)
	for i, t := range targets[:plan.cap] {
		if i >= plan.floor {
			worst, full := gate.Worst()
			// The proof rule: nothing in any remaining shard can reach
			// the kth-best score, so stopping loses nothing. This is the
			// only rule an exact (target 1.0) scan may stop on. It is
			// unsound over quantized scores (they can drift either way
			// of the full dot the bounds cap), so it only runs when the
			// gate holds exact scores.
			if full && !quantized && worst.Score > suffixBound[i] {
				stopRule = StopProof
				break
			}
			// The diminishing-returns rule: enough consecutive shards
			// contributed nothing to the top-k that the rest are
			// unlikely to either. Patience scales with the target.
			// (Unlike the proof rule this is score-scale-free — it only
			// compares gate scores to each other — so quantized scoring
			// does not affect its validity, just its sharpness.)
			if plan.patience > 0 && full && unimproved >= plan.patience {
				stopRule = StopPatience
				break
			}
		}
		prevWorst, prevFull := gate.Worst()
		probes++
		for _, id := range ts.shards[t.ci] {
			scanID(id)
		}
		if plan.patience > 0 {
			if worst, full := gate.Worst(); full && prevFull && worst.Score <= prevWorst.Score {
				unimproved++
			} else {
				unimproved = 0
			}
		}
	}
	for id := range c.overflow {
		scanID(id)
	}
	met.observeQuery(probes, scanned, stopRule)
	if quantized {
		met.observeQuantized()
	}

	if !quantized {
		return pool.Sorted()
	}
	return c.rescoreLocked(query, pool, k)
}

// rescoreLocked exact-rescores a quantized pool with full dot products and
// keeps the top k — what keeps quantization a candidate-selection
// heuristic rather than a scoring change.
func (c *Clustered) rescoreLocked(query []float32, pool *TopK, k int) []Candidate {
	final := NewTopK(k)
	for _, cand := range pool.Sorted() {
		if v, ok := c.vecs[cand.ID]; ok {
			final.Push(Candidate{ID: cand.ID, Score: dot(query, v)})
		}
	}
	return final.Sorted()
}

// Snapshot captures the trained structure (centroids + shard assignments,
// primary and spilled) in the versioned serialized form. Ids sitting in the
// overflow buffer are simply omitted from the assignment map; Restore folds
// them back in via a nearest-centroid assignment. Shard radii are not
// persisted — Restore recomputes them from the members it re-shards.
func (c *Clustered) Snapshot() *Snapshot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	snap := &Snapshot{
		Version:  SnapshotVersion,
		Kind:     c.Name(),
		Count:    len(c.vecs),
		Checksum: ChecksumVectors(c.vecs),
	}
	if c.trained != nil {
		cs := &ClusteredSnapshot{
			Centroids:  make([][]float32, len(c.trained.centroids)),
			Assign:     make(map[int]int, len(c.trained.assign)),
			TrainedAt:  c.trainedAt,
			SpillRatio: c.cfg.SpillRatio,
		}
		for i, cent := range c.trained.centroids {
			cs.Centroids[i] = append([]float32(nil), cent...)
		}
		for id, ci := range c.trained.assign {
			cs.Assign[id] = ci
		}
		if len(c.trained.spill) > 0 {
			cs.Spill = make(map[int]int, len(c.trained.spill))
			for id, ci := range c.trained.spill {
				cs.Spill[id] = ci
			}
		}
		snap.Clustered = cs
	}
	if c.qset != nil {
		codes, scales := c.qset.Entries()
		snap.Quantized = &QuantizedSnapshot{Codes: codes, Scales: scales}
	}
	return snap
}

// Restore replaces the index contents from a snapshot and its vector set
// without retraining: centroids and shard assignments (primary and spill)
// come straight from the snapshot, shard radii are recomputed from the
// re-sharded members, and any id the snapshot leaves unassigned (it was in
// the overflow buffer at save time) is assigned to its nearest centroid,
// the same computation an incremental insert performs. An in-flight retrain
// is invalidated. On any validation failure the index is left unchanged.
func (c *Clustered) Restore(snap *Snapshot, vecs map[int][]float32) error {
	if err := validateSnapshot(snap, c.Name(), vecs); err != nil {
		return err
	}
	var ts *trainedSet
	trainedAt := len(vecs)
	if cs := snap.Clustered; cs != nil {
		k := len(cs.Centroids)
		if k == 0 {
			return fmt.Errorf("index: clustered snapshot carries no centroids")
		}
		// An explicitly pinned centroid count is authoritative: restoring a
		// snapshot trained with a different count would silently turn the
		// -index-centroids flag into a no-op until the next corpus
		// doubling. Rejecting makes the caller rebuild at the configured
		// count. The comparison goes through numCentroids so a snapshot
		// this very config produced always passes (k is clamped to the
		// corpus size at train time). Auto (0) accepts whatever the
		// snapshot trained.
		ta := cs.TrainedAt
		if ta <= 0 {
			ta = len(vecs)
		}
		if c.cfg.Centroids > 0 && k != numCentroids(c.cfg, ta) {
			return fmt.Errorf("index: snapshot trained %d centroids but config pins %d", k, c.cfg.Centroids)
		}
		// The spill ratio shapes the persisted structure the same way the
		// centroid count does: accepting a mismatch would turn -index-spill
		// into a silent no-op until the next retrain. Reject and let the
		// caller rebuild at the configured ratio. (Pre-spill snapshots
		// carry ratio 0, so they restore exactly when spill is off.)
		if cs.SpillRatio != c.cfg.SpillRatio {
			return fmt.Errorf("index: snapshot spill ratio %g but config wants %g", cs.SpillRatio, c.cfg.SpillRatio)
		}
		ts = &trainedSet{
			centroids: make([][]float32, k),
			shards:    make([][]int, k),
			assign:    make(map[int]int, len(vecs)),
			spill:     map[int]int{},
			radii:     make([]float64, k),
			qradii:    make([]float64, k),
		}
		for i, cent := range cs.Centroids {
			if len(cent) == 0 {
				return fmt.Errorf("index: clustered snapshot centroid %d is empty", i)
			}
			ts.centroids[i] = append([]float32(nil), cent...)
		}
		// Deterministic shard order: walk ids sorted, not in map order.
		// Snapshot-assigned ids re-shard first, collecting per-shard member
		// distances so the quantile radii can be computed over the full
		// restored membership; unassigned ids (the save-time overflow
		// buffer) fold in afterwards through the same incremental insert a
		// live index would use, widening both radius kinds as needed.
		ids := make([]int, 0, len(vecs))
		for id := range vecs {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		var pending []int
		dists := make([][]float64, k)
		for _, id := range ids {
			ci, ok := cs.Assign[id]
			if !ok {
				pending = append(pending, id)
				continue
			}
			if ci < 0 || ci >= k {
				return fmt.Errorf("index: snapshot assigns id %d to centroid %d of %d", id, ci, k)
			}
			ts.assign[id] = ci
			ts.shards[ci] = append(ts.shards[ci], id)
			d := distance(ts.centroids[ci], vecs[id])
			if d > ts.radii[ci] {
				ts.radii[ci] = d
			}
			dists[ci] = append(dists[ci], d)
			if sp, ok := cs.Spill[id]; ok {
				if sp < 0 || sp >= k {
					return fmt.Errorf("index: snapshot spills id %d to centroid %d of %d", id, sp, k)
				}
				ts.spill[id] = sp
				ts.shards[sp] = append(ts.shards[sp], id)
				d := distance(ts.centroids[sp], vecs[id])
				if d > ts.radii[sp] {
					ts.radii[sp] = d
				}
				dists[sp] = append(dists[sp], d)
			}
		}
		for ci := range dists {
			ts.qradii[ci] = quantileDist(dists[ci], radiusQuantile)
		}
		for _, id := range pending {
			ts.insert(c.cfg, id, vecs[id])
		}
		if cs.TrainedAt > 0 {
			trainedAt = cs.TrainedAt
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++ // a retrain in flight now describes a corpus that is gone
	c.retraining = false
	// Disown any pending cooldown deferral the same way: the stale
	// callback sees the gen bump and does nothing, and clearing the flag
	// here lets the first post-Restore gated trigger schedule a fresh
	// deferral instead of riding a callback that will refuse to act.
	c.deferred = false
	c.vecs = copyVecs(vecs)
	c.overflow = map[int]bool{}
	c.trained = ts
	c.trainedAt = trainedAt
	c.churn = 0
	// Rebuild the quantized companion set. Persisted entries are adopted
	// only when internally consistent with the float vector under the same
	// id (codes present, matching dimensionality, scale recorded); any
	// other entry — and the entire set when the snapshot carries none —
	// is re-quantized from the float source. Quantization is derived data:
	// a damaged or missing section degrades to a rebuild, never to a
	// failed load.
	if c.cfg.Quantize {
		qs := vecmath.NewQuantizedSet()
		for id, v := range c.vecs {
			if q := snap.Quantized; q != nil {
				if codes, ok := q.Codes[id]; ok && len(codes) == len(v) {
					if scale, sok := q.Scales[id]; sok {
						qs.Set(id, codes, scale)
						continue
					}
				}
			}
			qs.Upsert(id, v)
		}
		c.qset = qs
	} else {
		c.qset = nil
	}
	// Restore never retrains, by definition — even from an untrained
	// snapshot (corpus saved inside its first-training window). Such an
	// index serves exact brute-force answers until the next Upsert, whose
	// doubling check launches the training; side-effecting a goroutine
	// here would make "restored, no retrain" a lie and waste a k-means
	// when the caller discards this index (all-or-nothing registry
	// restore).
	return nil
}
