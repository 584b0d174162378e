package registry

import (
	"errors"
	"io/fs"
	"sync"
	"time"

	"laminar/internal/core"
	"laminar/internal/index"
	"laminar/internal/lexical"
	"laminar/internal/registry/storage"
)

// Persistence glue. The serving layer's only persistence jobs are (a)
// producing a consistent logical snapshot under briefly-held read locks and
// (b) installing a loaded one under the write locks; every on-disk concern
// — formats, streaming, the binary sidecar, atomicity — belongs to
// internal/registry/storage.

// Save writes the registry to path as a v2 snapshot pair. No shard
// write lock is ever involved and no shard lock at all is held while
// marshaling: collectSnapshot copies the state under the shard read locks
// (concurrent searches keep running; writers wait only for the copy, not
// the serialization or the disk), then the storage layer streams it out.
// Saves themselves are serialized by saveMu so two concurrent Saves to
// the same path cannot sweep each other's sidecar generation. A full save
// also re-anchors the delta journal: the fresh base subsumes (and its
// install sweeps) any segments chained to the previous one. Owners saving
// under churn should prefer SaveDelta, which writes a journal segment
// proportional to what changed and compacts through this path when the
// policy says so.
func (s *Store) Save(path string) error {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	return s.saveFullLocked(path, false)
}

// instruments reads the telemetry handle under the idx shard lock.
func (s *Store) instruments() *storeMetrics {
	s.idxMu.RLock()
	defer s.idxMu.RUnlock()
	return s.metrics
}

// collectSnapshot builds the logical snapshot handed to the storage layer.
// All four shard read locks are held together (in lock order) so the copy
// is a consistent point-in-time view; the index snapshots are taken under
// the same locks, which is what keeps their checksums bound to exactly the
// copied records. Vector slices are shared, not copied — they are
// immutable by convention once stored (writers always replace, never
// mutate in place). The dirty set is swapped out under the same locks —
// a full snapshot covers every pending change by construction — and
// returned so a failed save can merge it back.
func (s *Store) collectSnapshot() (*storage.Snapshot, dirtyState) {
	s.usersMu.RLock()
	defer s.usersMu.RUnlock()
	s.pesMu.RLock()
	defer s.pesMu.RUnlock()
	s.wfsMu.RLock()
	defer s.wfsMu.RUnlock()
	s.idxMu.RLock()
	defer s.idxMu.RUnlock()

	captured := s.swapDirtyLocked()

	snap := &storage.Snapshot{
		PasswordHashes:   map[int]string{},
		UserPEs:          map[int][]int{},
		UserWorkflows:    map[int][]int{},
		WorkflowPEs:      map[int][]int{},
		NextUserID:       s.nextUserID,
		NextPEID:         s.nextPEID,
		NextWorkflowID:   s.nextWorkflowID,
		PEDescVecs:       map[int][]float32{},
		PECodeVecs:       map[int][]float32{},
		WorkflowDescVecs: map[int][]float32{},
	}
	for _, u := range s.users {
		snap.Users = append(snap.Users, *u)
		snap.PasswordHashes[u.UserID] = u.PasswordHash
	}
	for _, pe := range s.pes {
		rec := *pe
		if len(rec.DescEmbedding) > 0 {
			snap.PEDescVecs[rec.PEID] = rec.DescEmbedding
			rec.DescEmbedding = nil
		}
		if len(rec.CodeEmbedding) > 0 {
			snap.PECodeVecs[rec.PEID] = rec.CodeEmbedding
			rec.CodeEmbedding = nil
		}
		snap.PEs = append(snap.PEs, rec)
	}
	for _, wf := range s.workflows {
		rec := *wf
		if len(rec.DescEmbedding) > 0 {
			snap.WorkflowDescVecs[rec.WorkflowID] = rec.DescEmbedding
			rec.DescEmbedding = nil
		}
		snap.Workflows = append(snap.Workflows, rec)
	}
	for uid, set := range s.userPEs {
		snap.UserPEs[uid] = setToSlice(set)
	}
	for uid, set := range s.userWorkflows {
		snap.UserWorkflows[uid] = setToSlice(set)
	}
	for wid, set := range s.workflowPEs {
		snap.WorkflowPEs[wid] = setToSlice(set)
	}
	snap.Indexes = &storage.IndexSnapshots{
		Desc:     s.descIndex.Snapshot(),
		Code:     s.codeIndex.Snapshot(),
		Workflow: s.wfIndex.Snapshot(),
	}
	snap.Lexical = &storage.LexicalSnapshots{
		PE:       s.peLex.Snapshot(),
		Workflow: s.wfLex.Snapshot(),
	}
	return snap, captured
}

// Load replaces the registry contents from a snapshot file (either
// format; auto-detected) plus any delta journal chained to it: the base
// installs first (restoring trained indexes when the snapshots still
// match), then each journal segment replays through the incremental index
// paths — the restored structure is kept, never retrained, exactly as if
// the segments' mutations had arrived live.
func (s *Store) Load(path string) error {
	m := s.instruments()
	start := time.Now()
	snap, deltas, chain, _, err := storage.LoadWithDeltas(path)
	if err != nil {
		// An absent file is a fresh start, not a failed load — owners
		// treat it as a no-op, so the error counter must too.
		if m != nil && !errors.Is(err, fs.ErrNotExist) {
			m.loadErrors.Inc()
		}
		return err
	}
	defer func() {
		if m != nil {
			m.loads.Inc()
			m.loadSeconds.ObserveSince(start)
		}
	}()
	// saveMu before the shard locks — the same order Save uses (saveMu →
	// shard read locks) — because the chain bookkeeping updated below
	// belongs to it.
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	s.usersMu.Lock()
	defer s.usersMu.Unlock()
	s.pesMu.Lock()
	defer s.pesMu.Unlock()
	s.wfsMu.Lock()
	defer s.wfsMu.Unlock()
	s.idxMu.Lock()
	defer s.idxMu.Unlock()

	installStart := time.Now()
	s.users = map[int]*core.UserRecord{}
	s.pes = map[int]*core.PERecord{}
	s.workflows = map[int]*core.WorkflowRecord{}
	s.userPEs = map[int]map[int]bool{}
	s.userWorkflows = map[int]map[int]bool{}
	s.workflowPEs = map[int]map[int]bool{}
	for i := range snap.Users {
		u := snap.Users[i]
		u.PasswordHash = snap.PasswordHashes[u.UserID]
		s.users[u.UserID] = &u
	}
	for i := range snap.PEs {
		pe := snap.PEs[i]
		if v, ok := snap.PEDescVecs[pe.PEID]; ok {
			pe.DescEmbedding = v
		}
		if v, ok := snap.PECodeVecs[pe.PEID]; ok {
			pe.CodeEmbedding = v
		}
		s.pes[pe.PEID] = &pe
	}
	for i := range snap.Workflows {
		wf := snap.Workflows[i]
		if v, ok := snap.WorkflowDescVecs[wf.WorkflowID]; ok {
			wf.DescEmbedding = v
		}
		s.workflows[wf.WorkflowID] = &wf
	}
	for uid, ids := range snap.UserPEs {
		if s.userPEs[uid] == nil {
			s.userPEs[uid] = map[int]bool{}
		}
		for _, id := range ids {
			s.userPEs[uid][id] = true
		}
	}
	for uid, ids := range snap.UserWorkflows {
		if s.userWorkflows[uid] == nil {
			s.userWorkflows[uid] = map[int]bool{}
		}
		for _, id := range ids {
			s.userWorkflows[uid][id] = true
		}
	}
	for wid, ids := range snap.WorkflowPEs {
		s.workflowPEs[wid] = map[int]bool{}
		for _, id := range ids {
			s.workflowPEs[wid][id] = true
		}
	}
	s.nextUserID = snap.NextUserID
	s.nextPEID = snap.NextPEID
	s.nextWorkflowID = snap.NextWorkflowID
	installed := time.Now()
	// The lexical indexes restore or rebuild beside the vector indexes:
	// both only read the records just installed, and neither needs the
	// other. Unlike the vector-index snapshots the lexical ones are not
	// stashed: their kind never changes, so no later ConfigureIndex could
	// use a retained snapshot.
	var peLex, wfLex *lexical.Index
	var lexTook time.Duration
	lexDone := make(chan struct{})
	go func() {
		defer close(lexDone)
		peLex, wfLex = s.loadLexicalLocked(snap.Lexical)
		lexTook = time.Since(installed)
	}()
	// Restore the persisted index structure when it still matches the
	// records (same kind, same version, checksum over exactly these
	// embeddings); otherwise — missing, stale, or foreign-kind snapshot —
	// fall back to a full rebuild. The snapshots are also stashed so a
	// later ConfigureIndex (the façade selects the index kind after
	// loading) gets the same restore-first treatment.
	s.loadedIndexSnaps = snap.Indexes
	if !s.tryRestoreIndexesLocked() {
		s.rebuildIndexesLocked()
	}
	indexTook := time.Since(installed)
	<-lexDone
	s.peLex, s.wfLex = peLex, wfLex
	// Replay the journal on top of the installed base. The storage layer
	// already proved the segments form an unbroken chain to exactly this
	// base, so applying them in order reproduces the last saved state.
	replayStart := time.Now()
	for _, d := range deltas {
		s.applyDeltaLocked(d)
	}
	if m != nil {
		st := snap.LoadStages
		for stage, took := range map[string]time.Duration{
			"records":          st.Records + installed.Sub(installStart),
			"vectors":          st.Vectors,
			"index_sections":   st.IndexSections,
			"lexical_sections": st.LexicalSections,
			"index_restore":    indexTook,
			"lexical_restore":  lexTook,
			"replay":           st.Journal + time.Since(replayStart),
		} {
			m.loadStageSeconds.With(stage).Set(took.Seconds())
		}
	}
	// Continue the journal where it left off, with a clean dirty set (the
	// in-memory state now equals the on-disk state byte for byte). saveMu
	// is already held (taken above, before the shard locks).
	s.chainPath = path
	s.chain = chain
	s.chainSegments.Store(int64(chain.Seq))
	if size, serr := storage.DiskSize(path); serr == nil {
		s.chainBaseBytes = size - chain.Bytes
	} else {
		s.chainBaseBytes = 0
	}
	s.swapDirtyLocked()
	// A load replaces every record a cached result could reference.
	s.epoch.Add(1)
	return nil
}

// embeddingSetsLocked collects the per-kind embedding maps exactly as the
// indexes hold them: only records with a non-empty embedding appear (the
// rest are not semantically searchable), so the maps line up with the
// snapshot checksums. Caller holds pesMu and wfsMu (read or write).
func (s *Store) embeddingSetsLocked() (desc, code, wf map[int][]float32) {
	desc = map[int][]float32{}
	code = map[int][]float32{}
	wf = map[int][]float32{}
	for id, pe := range s.pes {
		if len(pe.DescEmbedding) > 0 {
			desc[id] = pe.DescEmbedding
		}
		if len(pe.CodeEmbedding) > 0 {
			code[id] = pe.CodeEmbedding
		}
	}
	for id, w := range s.workflows {
		if len(w.DescEmbedding) > 0 {
			wf[id] = w.DescEmbedding
		}
	}
	return desc, code, wf
}

// tryRestoreIndexesLocked attempts to bring up all three indexes from the
// snapshots stashed by the last Load, restoring them in parallel (checksum
// validation and vector copies dominate and are independent per index).
// All-or-nothing: a single mismatch (kind, version, checksum) leaves the
// previous indexes in place and reports false so the caller rebuilds
// instead. Caller holds pesMu.R/wfsMu.R (or stronger) and idxMu.W.
func (s *Store) tryRestoreIndexesLocked() bool {
	snaps := s.loadedIndexSnaps
	if snaps == nil || snaps.Desc == nil || snaps.Code == nil || snaps.Workflow == nil {
		return false
	}
	descVecs, codeVecs, wfVecs := s.embeddingSetsLocked()
	desc, code, wf := s.indexFactory(), s.indexFactory(), s.indexFactory()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, r := range []struct {
		idx  index.VectorIndex
		snap *index.Snapshot
		vecs map[int][]float32
	}{
		{desc, snaps.Desc, descVecs},
		{code, snaps.Code, codeVecs},
		{wf, snaps.Workflow, wfVecs},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.idx.Restore(r.snap, r.vecs)
		}()
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil || errs[2] != nil {
		return false
	}
	s.descIndex, s.codeIndex, s.wfIndex = desc, code, wf
	s.indexesRestored = true
	s.applyIndexMetricsLocked()
	// The stash has served its purpose; dropping it releases the O(N)
	// assignment maps instead of pinning them for the store's lifetime.
	// (On failure Load keeps it for a subsequent ConfigureIndex with the
	// matching kind, which consumes it either way.)
	s.loadedIndexSnaps = nil
	return true
}
