// Package registry implements Laminar's central repository (Section 3.1):
// users, Processing Elements and workflows with the exact schema of Table 2,
// one-way many-to-many user↔PE/workflow ownership, two-way many-to-many
// PE↔workflow association, and stored embeddings for semantic search.
//
// The package is the registry's *serving* layer. Since the layered-storage
// refactor it is organized by domain — users.go, pes.go, workflows.go,
// search.go — with persistence delegated to internal/registry/storage
// (persist.go holds the glue). Concurrency is sharded the same way: each
// domain has its own RWMutex, and each vector index is internally
// synchronized, so heavy semantic-search traffic on the PE shard no longer
// serializes against user logins or workflow registrations, and Save never
// holds any write lock while marshaling (see docs/storage.md).
//
// The store owns three incrementally maintained vector indexes — PE
// descriptions, PE code, and workflow descriptions — and persists their
// trained structure alongside its records, so Load restores a trained
// index with no k-means retrain whenever the snapshot still matches the
// records. Two BM25 lexical indexes (PEs, workflows) are maintained and
// persisted beside them.
//
// Retrieval has one entry, Store.Search (search.go): an optional vector
// leg and an optional lexical leg, reciprocal-rank fusion of the two, an
// optional cross-encoder rerank — which of them run is the Query's Mode —
// or, for a Query with Text set, an in-place scan of names and
// descriptions; for one Input or a batch that shares the WAN hop and the
// lock span. CompletionSearch, SemanticSearchBoth and HybridSearch are
// one-line calls into it, kept for the repo's benchmark.
//
// The paper hosts the registry on a remote web-based MySQL service; this
// implementation is an embedded, durable store with a configurable
// simulated WAN latency so the remote-registry deployments of Table 5 can
// be reproduced.
package registry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"laminar/internal/core"
	"laminar/internal/index"
	"laminar/internal/lexical"
	"laminar/internal/registry/storage"
)

// Store is the registry state. All methods are safe for concurrent use.
//
// Locking is sharded per domain. The shards are independent for
// single-domain operations; an operation spanning shards acquires them in
// the fixed order users → pes → wfs → idx (never the reverse), which is
// what makes the compound paths (AddWorkflow validating PE ids,
// RemovePE detaching workflow associations, Save copying everything)
// deadlock-free.
type Store struct {
	// users shard: accounts and session tokens.
	usersMu    sync.RWMutex
	users      map[int]*core.UserRecord
	tokens     map[string]int // session token → userID
	nextUserID int

	// pes shard: PE records and user→PE ownership.
	pesMu    sync.RWMutex
	pes      map[int]*core.PERecord
	userPEs  map[int]map[int]bool // userID → set of peIDs (ownership)
	nextPEID int

	// wfs shard: workflow records, user→workflow ownership, and the two-way
	// workflow↔PE association table.
	wfsMu          sync.RWMutex
	workflows      map[int]*core.WorkflowRecord
	userWorkflows  map[int]map[int]bool // userID → set of workflowIDs
	workflowPEs    map[int]map[int]bool // workflowID → set of peIDs
	nextWorkflowID int

	// idx shard guards the index *pointers* and restore bookkeeping; the
	// indexes themselves are internally synchronized, so holding idxMu.R
	// just long enough to copy a pointer is all a search needs.
	idxMu        sync.RWMutex
	indexFactory index.Factory
	descIndex    index.VectorIndex // PE description embeddings (semantic search)
	codeIndex    index.VectorIndex // PE code embeddings (code completion)
	wfIndex      index.VectorIndex // workflow description embeddings
	// The BM25 lexical leg of hybrid retrieval: inverted indexes over PE
	// text (name + description + decoded code) and workflow text. Guarded
	// by idxMu like the vector-index pointers; internally synchronized.
	peLex *lexical.Index
	wfLex *lexical.Index

	// loadedIndexSnaps stashes the index snapshots read by the last Load.
	// Lifecycle: a successful restore (in Load or ConfigureIndex) clears
	// it, and ConfigureIndex consumes it even on failure; it survives a
	// failed Load-restore only so an embedder using the load-then-configure
	// order can still restore (the checksum guards staleness). The one
	// case that retains it for the store's lifetime is a kind-switch
	// restart with no later ConfigureIndex — bounded by one registry's
	// assignment maps.
	loadedIndexSnaps *storage.IndexSnapshots
	// indexesRestored records whether the live indexes came from a snapshot
	// restore (true) or a rebuild (false) — observability for the
	// restart-without-retrain guarantee.
	indexesRestored bool
	// metrics, when set by SetTelemetry, holds the store's persistence
	// instruments and the per-index instrument sets re-installed into
	// every fresh index (guarded by idxMu).
	metrics *storeMetrics

	// saveMu serializes Save calls. The shard locks make the state *copy*
	// safe, but two interleaved v2 installs to the same path could each
	// sweep the sidecar the other's JSON references; one save at a time
	// keeps the sweep sound (and overlapping full-snapshot writes would
	// only waste IO anyway). It also guards the delta-chain bookkeeping
	// below — chain continuity is meaningless across interleaved saves.
	saveMu sync.Mutex
	// chain/chainPath/chainBaseBytes track the delta journal anchored to
	// the last full save or load at chainPath; deltaPolicy holds the
	// compaction thresholds. All guarded by saveMu. chainSegments mirrors
	// chain.Seq for lock-free telemetry scrapes.
	chain          storage.DeltaChain
	chainPath      string
	chainBaseBytes int64
	deltaPolicy    DeltaPolicy
	chainSegments  atomic.Int64

	// epoch counts mutations (plus loads, index reconfigurations and
	// read-only flips — anything that may change what a search returns).
	// Query caches tag entries with it; see Epoch.
	epoch atomic.Int64
	// dirtyMu guards dirty, the record/row change set the next SaveDelta
	// drains. A leaf lock: taken briefly under shard locks, never around
	// them.
	dirtyMu sync.Mutex
	dirty   dirtyState

	// readOnly, when set, rejects every mutating operation with
	// core.ErrReadOnly. Cluster query replicas restored from a snapshot
	// run in this mode: they serve searches and reads, never writes.
	readOnly atomic.Bool

	// latency simulates the WAN round trip to the remote registry service
	// (nanoseconds); wanHops counts the simulated round trips taken
	// (observability, and it lets tests pin "one registry call"
	// deterministically instead of timing sleeps).
	latency atomic.Int64
	wanHops atomic.Int64
	// clock is injectable for tests; set at construction, never mutated.
	clock func() time.Time
}

// NewStore creates an empty registry backed by the exact Flat index.
func NewStore() *Store {
	factory := func() index.VectorIndex { return index.NewFlat() }
	return &Store{
		users:          map[int]*core.UserRecord{},
		tokens:         map[string]int{},
		pes:            map[int]*core.PERecord{},
		userPEs:        map[int]map[int]bool{},
		workflows:      map[int]*core.WorkflowRecord{},
		userWorkflows:  map[int]map[int]bool{},
		workflowPEs:    map[int]map[int]bool{},
		indexFactory:   factory,
		descIndex:      factory(),
		codeIndex:      factory(),
		wfIndex:        factory(),
		peLex:          lexical.New(),
		wfLex:          lexical.New(),
		nextUserID:     1,
		nextPEID:       1,
		nextWorkflowID: 1,
		clock:          time.Now,
		dirty:          newDirtyState(),
		deltaPolicy:    DefaultDeltaPolicy(),
	}
}

// ConfigureIndex swaps the vector-index implementation (e.g. for the
// clustered ANN index) and repopulates all three indexes from the current
// record set — restoring from the snapshots of the last Load when they
// still match, retraining only when they don't. It consumes the stash
// either way: a stash that failed here can only fail again (the records
// it would have to match are not going to change back).
func (s *Store) ConfigureIndex(factory index.Factory) {
	s.pesMu.RLock()
	defer s.pesMu.RUnlock()
	s.wfsMu.RLock()
	defer s.wfsMu.RUnlock()
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	s.indexFactory = factory
	if !s.tryRestoreIndexesLocked() {
		s.rebuildIndexesLocked()
	}
	s.loadedIndexSnaps = nil
	// Swapping the index implementation replaces the structures every
	// cached ANN answer came from; the epoch bump is what invalidates them
	// (the per-index generation counter restarts with the fresh indexes).
	s.epoch.Add(1)
}

// IndexName reports the active vector-index implementation.
func (s *Store) IndexName() string {
	s.idxMu.RLock()
	defer s.idxMu.RUnlock()
	return s.descIndex.Name()
}

// IndexesRestored reports whether the live vector indexes were restored
// from a persisted snapshot (no retrain) rather than rebuilt.
func (s *Store) IndexesRestored() bool {
	s.idxMu.RLock()
	defer s.idxMu.RUnlock()
	return s.indexesRestored
}

// indexes returns the three live index pointers under a brief read lock.
func (s *Store) indexes() (desc, code, wf index.VectorIndex) {
	s.idxMu.RLock()
	defer s.idxMu.RUnlock()
	return s.descIndex, s.codeIndex, s.wfIndex
}

// WaitIndexReady blocks until no background index retrain is in flight —
// benchmarks and tests use it to measure a settled index; the serving path
// never calls it.
func (s *Store) WaitIndexReady() {
	desc, code, wf := s.indexes()
	for _, idx := range []index.VectorIndex{desc, code, wf} {
		if w, ok := idx.(interface{ WaitRetrain() }); ok {
			w.WaitRetrain()
		}
	}
}

// RetrainIndexes forces one full synchronous retrain of every index that
// supports it, reaching the same fully-trained-over-the-whole-corpus state
// a snapshot restore reproduces instantly. The three indexes retrain
// concurrently, mirroring the parallel restore path, so the
// rebuild-vs-restore benchmark compares like with like. It is the
// benchmark baseline for the restore path; serving deployments rely on
// background retrains instead.
func (s *Store) RetrainIndexes() {
	desc, code, wf := s.indexes()
	var wg sync.WaitGroup
	for _, idx := range []index.VectorIndex{desc, code, wf} {
		if tr, ok := idx.(interface{ TrainNow() }); ok {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr.TrainNow()
			}()
		}
	}
	wg.Wait()
}

// rebuildIndexesLocked re-creates all three indexes from the records.
// Caller holds pesMu.R (or stronger), wfsMu.R (or stronger) and idxMu.W.
func (s *Store) rebuildIndexesLocked() {
	s.indexesRestored = false
	s.descIndex = s.indexFactory()
	s.codeIndex = s.indexFactory()
	s.wfIndex = s.indexFactory()
	s.applyIndexMetricsLocked()
	for id, pe := range s.pes {
		if len(pe.DescEmbedding) > 0 {
			s.descIndex.Upsert(id, pe.DescEmbedding)
		}
		if len(pe.CodeEmbedding) > 0 {
			s.codeIndex.Upsert(id, pe.CodeEmbedding)
		}
	}
	for id, wf := range s.workflows {
		if len(wf.DescEmbedding) > 0 {
			s.wfIndex.Upsert(id, wf.DescEmbedding)
		}
	}
}

// indexPE upserts a PE's stored embeddings into both PE indexes (empty
// embeddings are skipped — such PEs are not semantically searchable) and
// its text into the lexical index (unconditionally — the BM25 leg works
// without embeddings). Callers hold the pes shard lock; the index pointers
// are fetched under idxMu.R, respecting the lock order.
func (s *Store) indexPE(id int, pe *core.PERecord) {
	desc, code, _ := s.indexes()
	if len(pe.DescEmbedding) > 0 {
		desc.Upsert(id, pe.DescEmbedding)
	}
	if len(pe.CodeEmbedding) > 0 {
		code.Upsert(id, pe.CodeEmbedding)
	}
	peLex, _ := s.lexIndexes()
	upsertPELex(peLex, id, pe)
}

// indexWorkflow upserts a workflow's description embedding into the
// workflow index and its text into the workflow lexical index.
func (s *Store) indexWorkflow(id int, wf *core.WorkflowRecord) {
	if len(wf.DescEmbedding) > 0 {
		_, _, wfIdx := s.indexes()
		wfIdx.Upsert(id, wf.DescEmbedding)
	}
	_, wfLex := s.lexIndexes()
	upsertWFLex(wfLex, id, wf)
}

// SetReadOnly switches the store's write protection. A read-only store
// (a cluster query replica) rejects registrations, removals and
// associations with a 403 ReadOnlyError; reads, logins and searches are
// unaffected. An actual flip bumps the mutation epoch: a replica being
// promoted (or a primary demoted) is exactly the moment cached results
// from the previous role must stop being served.
func (s *Store) SetReadOnly(ro bool) {
	if s.readOnly.Swap(ro) != ro {
		s.epoch.Add(1)
	}
}

// ReadOnly reports whether the store rejects mutations.
func (s *Store) ReadOnly() bool { return s.readOnly.Load() }

// checkWritable is the guard every mutating operation calls first.
func (s *Store) checkWritable() error {
	if s.readOnly.Load() {
		return core.ErrReadOnly("this node is a read-only query replica; send writes to a shard primary")
	}
	return nil
}

// SetLatency configures the simulated WAN round trip applied to every
// operation (the registry is "hosted remotely on the web-based service").
func (s *Store) SetLatency(d time.Duration) {
	s.latency.Store(int64(d))
}

func (s *Store) simulateWAN() {
	s.wanHops.Add(1)
	if d := time.Duration(s.latency.Load()); d > 0 {
		time.Sleep(d)
	}
}

// WANHops reports how many simulated remote round trips the store has
// served.
func (s *Store) WANHops() int64 { return s.wanHops.Load() }

func setToSlice(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}
