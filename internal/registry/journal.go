package registry

import (
	"sort"
	"time"

	"laminar/internal/registry/storage"
)

// Dirty-record tracking and the delta-save path. Every mutator marks the
// records and relation rows it touched in a dirty set (and bumps the
// mutation epoch query caches key their entries to); SaveDelta drains the
// set into a small journal segment instead of rewriting the full snapshot
// pair, compacting into a full save once the journal passes the configured
// segment-count or size-ratio threshold. See docs/storage.md.

// dirtyState records which ids changed since the last save. One set per
// record domain is enough for both upserts and removals: at capture time,
// an id still present in the record map is an upsert, an absent one is a
// removal — last state wins, exactly the apply semantics. Ownership rows
// are tracked by owner id and travel as full replacement rows.
type dirtyState struct {
	users    map[int]bool // upserted user ids (users are never removed)
	pes      map[int]bool // touched PE ids (upserted or removed)
	wfs      map[int]bool // touched workflow ids (upserted or removed)
	ownerPEs map[int]bool // userIDs whose userPEs row changed
	ownerWFs map[int]bool // userIDs whose userWorkflows row changed
	assocWFs map[int]bool // workflowIDs whose workflowPEs row changed
}

func newDirtyState() dirtyState {
	return dirtyState{
		users:    map[int]bool{},
		pes:      map[int]bool{},
		wfs:      map[int]bool{},
		ownerPEs: map[int]bool{},
		ownerWFs: map[int]bool{},
		assocWFs: map[int]bool{},
	}
}

func (d dirtyState) empty() bool {
	return len(d.users) == 0 && len(d.pes) == 0 && len(d.wfs) == 0 &&
		len(d.ownerPEs) == 0 && len(d.ownerWFs) == 0 && len(d.assocWFs) == 0
}

// count is the number of touched records (not ownership rows) — the size
// signal the compaction policy compares against the corpus.
func (d dirtyState) count() int { return len(d.users) + len(d.pes) + len(d.wfs) }

// markDirty lets a mutator record what it touched. Called while holding the
// mutated shard's write lock; dirtyMu is a leaf lock below every shard
// lock, and the epoch bump rides along so "something changed" and "caches
// must revalidate" can never disagree.
func (s *Store) markDirty(fn func(*dirtyState)) {
	s.dirtyMu.Lock()
	fn(&s.dirty)
	s.dirtyMu.Unlock()
	s.epoch.Add(1)
}

// mergeDirty unions a captured-but-unsaved dirty set back in (the failure
// path of a save). Over-marking is harmless — the worst case is a record
// saved twice.
func (s *Store) mergeDirty(d dirtyState) {
	s.dirtyMu.Lock()
	defer s.dirtyMu.Unlock()
	for id := range d.users {
		s.dirty.users[id] = true
	}
	for id := range d.pes {
		s.dirty.pes[id] = true
	}
	for id := range d.wfs {
		s.dirty.wfs[id] = true
	}
	for id := range d.ownerPEs {
		s.dirty.ownerPEs[id] = true
	}
	for id := range d.ownerWFs {
		s.dirty.ownerWFs[id] = true
	}
	for id := range d.assocWFs {
		s.dirty.assocWFs[id] = true
	}
}

// swapDirtyLocked takes the dirty set, leaving a fresh one. Callers hold
// the shard read locks of everything the set describes, so no mutator can
// interleave between the state copy and the swap.
func (s *Store) swapDirtyLocked() dirtyState {
	s.dirtyMu.Lock()
	defer s.dirtyMu.Unlock()
	d := s.dirty
	s.dirty = newDirtyState()
	return d
}

// Epoch reports the registry mutation epoch: a counter bumped on every
// mutation, every Load, every ConfigureIndex and every SetReadOnly flip.
// Query caches tag entries with it (paired with IndexGeneration) and treat
// any change as an invalidation — including the replica-side
// restore/read-only transitions that change what a search may return
// without touching a single record.
func (s *Store) Epoch() int64 { return s.epoch.Load() }

// IndexGeneration folds the three vector indexes' trained-structure
// generations into one number. It moves when a retrain completes or a
// snapshot restores — the moments a cached ANN answer may go stale with no
// record mutation. Index swaps (rebuild, ConfigureIndex) can reset it, but
// every swap path also bumps the epoch, and caches compare the (epoch,
// generation) pair.
func (s *Store) IndexGeneration() uint64 {
	desc, code, wf := s.indexes()
	var g uint64
	for _, idx := range []interface{ Name() string }{desc, code, wf} {
		if gen, ok := idx.(interface{ Generation() uint64 }); ok {
			g += gen.Generation()
		}
	}
	return g
}

// DeltaPolicy is the journal compaction policy: a delta save falls back to
// a full (compacting) save once the journal holds MaxSegments segments,
// once its bytes exceed CompactRatio of the base snapshot's, or once a
// single delta would carry at least CompactRatio of the records anyway.
type DeltaPolicy struct {
	MaxSegments  int
	CompactRatio float64
}

// DefaultDeltaPolicy is the policy SaveDelta uses until SetDeltaPolicy.
func DefaultDeltaPolicy() DeltaPolicy { return DeltaPolicy{MaxSegments: 64, CompactRatio: 0.5} }

// SetDeltaPolicy configures the journal compaction thresholds. Zero fields
// keep their defaults.
func (s *Store) SetDeltaPolicy(p DeltaPolicy) {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	if p.MaxSegments > 0 {
		s.deltaPolicy.MaxSegments = p.MaxSegments
	}
	if p.CompactRatio > 0 {
		s.deltaPolicy.CompactRatio = p.CompactRatio
	}
}

// DeltaChainInfo reports the live journal state: installed segments and
// their total bytes (0, 0 right after a full save or against a v1 base).
func (s *Store) DeltaChainInfo() (segments uint64, bytes int64) {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	return s.chain.Seq, s.chain.Bytes
}

// SaveDelta persists the changes since the last save as one journal
// segment when that is cheap and sound, and as a full snapshot otherwise
// (no delta-capable base at this path yet — nothing saved there, or a v1
// file loaded from it — compaction threshold passed, or a change set so
// large a delta would not pay). It is the save entry point churn-driven
// owners (the ingestor, periodic saves) should prefer: cost scales with
// what changed, not with corpus size.
func (s *Store) SaveDelta(path string) error {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	if s.chainPath != path || s.chain.BaseSum == "" {
		return s.saveFullLocked(path, false)
	}
	pol := s.deltaPolicy
	dirtyCount, total := s.dirtySizeHint()
	if int(s.chain.Seq) >= pol.MaxSegments ||
		(s.chainBaseBytes > 0 && float64(s.chain.Bytes) >= pol.CompactRatio*float64(s.chainBaseBytes)) ||
		(total > 0 && float64(dirtyCount) >= pol.CompactRatio*float64(total)) {
		return s.saveFullLocked(path, true)
	}
	m := s.instruments()
	start := time.Now()
	captured, delta := s.collectDelta()
	if delta.Empty() {
		s.mergeDirty(captured) // nothing record-level; keep any stray marks
		return nil
	}
	chain, err := storage.SaveDelta(path, s.chain, delta)
	if err != nil {
		s.mergeDirty(captured)
		if m != nil {
			m.deltaSaveErrors.Inc()
		}
		return err
	}
	s.chain = chain
	s.chainSegments.Store(int64(chain.Seq))
	if m != nil {
		m.deltaSaves.Inc()
		m.deltaSaveSeconds.ObserveSince(start)
	}
	return nil
}

// dirtySizeHint sizes the pending change set against the corpus without
// taking shard locks in any particular order long (reads only counters).
func (s *Store) dirtySizeHint() (dirty, total int) {
	s.dirtyMu.Lock()
	dirty = s.dirty.count()
	s.dirtyMu.Unlock()
	s.usersMu.RLock()
	total = len(s.users)
	s.usersMu.RUnlock()
	s.pesMu.RLock()
	total += len(s.pes)
	s.pesMu.RUnlock()
	s.wfsMu.RLock()
	total += len(s.workflows)
	s.wfsMu.RUnlock()
	return dirty, total
}

// saveFullLocked is the full-snapshot save path shared by Save and
// SaveDelta's fallback/compaction branches. Caller holds saveMu. On
// success the delta chain re-anchors to the fresh base (whose install
// swept any previous journal).
func (s *Store) saveFullLocked(path string, compaction bool) error {
	m := s.instruments()
	start := time.Now()
	snap, captured := s.collectSnapshot()
	err := storage.Save(path, snap)
	if err != nil {
		s.mergeDirty(captured)
		if m != nil {
			m.saveErrors.Inc()
		}
		return err
	}
	if m != nil {
		m.saves.Inc()
		m.saveSeconds.ObserveSince(start)
		if compaction {
			m.compactions.Inc()
		}
	}
	s.chainPath = path
	baseSum, berr := storage.BaseIdentity(path)
	if berr != nil {
		baseSum = ""
	}
	s.chain = storage.DeltaChain{BaseSum: baseSum}
	s.chainSegments.Store(0)
	if size, serr := storage.DiskSize(path); serr == nil {
		s.chainBaseBytes = size
	} else {
		s.chainBaseBytes = 0
	}
	return nil
}

// collectDelta captures the dirty set and materializes it as a storage
// delta under the shard read locks — the same consistency argument as
// collectSnapshot, scoped to what changed. The swap happens under those
// locks too, so a mutation lands either in this delta or in the next dirty
// set, never between.
func (s *Store) collectDelta() (dirtyState, *storage.Delta) {
	s.usersMu.RLock()
	defer s.usersMu.RUnlock()
	s.pesMu.RLock()
	defer s.pesMu.RUnlock()
	s.wfsMu.RLock()
	defer s.wfsMu.RUnlock()

	d := s.swapDirtyLocked()
	delta := &storage.Delta{
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
	for id := range d.users {
		if u := s.users[id]; u != nil {
			delta.Users = append(delta.Users, *u)
			delta.PasswordHashes[id] = u.PasswordHash
		}
	}
	for id := range d.pes {
		pe := s.pes[id]
		if pe == nil {
			delta.RemovedPEs = append(delta.RemovedPEs, id)
			continue
		}
		rec := *pe
		if len(rec.DescEmbedding) > 0 {
			delta.PEDescVecs[id] = rec.DescEmbedding
			rec.DescEmbedding = nil
		}
		if len(rec.CodeEmbedding) > 0 {
			delta.PECodeVecs[id] = rec.CodeEmbedding
			rec.CodeEmbedding = nil
		}
		delta.PEs = append(delta.PEs, rec)
	}
	for id := range d.wfs {
		wf := s.workflows[id]
		if wf == nil {
			delta.RemovedWorkflows = append(delta.RemovedWorkflows, id)
			continue
		}
		rec := *wf
		if len(rec.DescEmbedding) > 0 {
			delta.WorkflowDescVecs[id] = rec.DescEmbedding
			rec.DescEmbedding = nil
		}
		delta.Workflows = append(delta.Workflows, rec)
	}
	for uid := range d.ownerPEs {
		delta.UserPEs[uid] = setToSlice(s.userPEs[uid])
	}
	for uid := range d.ownerWFs {
		delta.UserWorkflows[uid] = setToSlice(s.userWorkflows[uid])
	}
	for wid := range d.assocWFs {
		// A removed workflow's row travels via RemovedWorkflows; replaying
		// an empty row for it would resurrect an orphan entry.
		if _, ok := s.workflows[wid]; ok {
			delta.WorkflowPEs[wid] = setToSlice(s.workflowPEs[wid])
		}
	}
	sort.Slice(delta.Users, func(i, j int) bool { return delta.Users[i].UserID < delta.Users[j].UserID })
	sort.Slice(delta.PEs, func(i, j int) bool { return delta.PEs[i].PEID < delta.PEs[j].PEID })
	sort.Slice(delta.Workflows, func(i, j int) bool { return delta.Workflows[i].WorkflowID < delta.Workflows[j].WorkflowID })
	sort.Ints(delta.RemovedPEs)
	sort.Ints(delta.RemovedWorkflows)
	return d, delta
}

// applyDeltaLocked replays one journal segment through the serving-layer
// state: records are replaced or deleted, and the vector, quantized and
// lexical indexes are maintained *incrementally* — the same path live
// mutations take — so a restored-then-replayed index never retrains.
// Caller holds every shard write lock (the Load path).
func (s *Store) applyDeltaLocked(d *storage.Delta) {
	for i := range d.Users {
		u := d.Users[i]
		u.PasswordHash = d.PasswordHashes[u.UserID]
		s.users[u.UserID] = &u
		if u.UserID >= s.nextUserID {
			s.nextUserID = u.UserID + 1
		}
	}
	for _, id := range d.RemovedPEs {
		if _, ok := s.pes[id]; ok {
			delete(s.pes, id)
			s.descIndex.Delete(id)
			s.codeIndex.Delete(id)
			s.peLex.Delete(id)
		}
	}
	for i := range d.PEs {
		pe := d.PEs[i]
		pe.DescEmbedding = d.PEDescVecs[pe.PEID]
		pe.CodeEmbedding = d.PECodeVecs[pe.PEID]
		s.pes[pe.PEID] = &pe
		if len(pe.DescEmbedding) > 0 {
			s.descIndex.Upsert(pe.PEID, pe.DescEmbedding)
		} else {
			s.descIndex.Delete(pe.PEID)
		}
		if len(pe.CodeEmbedding) > 0 {
			s.codeIndex.Upsert(pe.PEID, pe.CodeEmbedding)
		} else {
			s.codeIndex.Delete(pe.PEID)
		}
		upsertPELex(s.peLex, pe.PEID, &pe)
	}
	for _, id := range d.RemovedWorkflows {
		if _, ok := s.workflows[id]; ok {
			delete(s.workflows, id)
			delete(s.workflowPEs, id)
			s.wfIndex.Delete(id)
			s.wfLex.Delete(id)
		}
	}
	for i := range d.Workflows {
		wf := d.Workflows[i]
		wf.DescEmbedding = d.WorkflowDescVecs[wf.WorkflowID]
		s.workflows[wf.WorkflowID] = &wf
		if len(wf.DescEmbedding) > 0 {
			s.wfIndex.Upsert(wf.WorkflowID, wf.DescEmbedding)
		} else {
			s.wfIndex.Delete(wf.WorkflowID)
		}
		upsertWFLex(s.wfLex, wf.WorkflowID, &wf)
	}
	for uid, ids := range d.UserPEs {
		s.userPEs[uid] = intSet(ids)
	}
	for uid, ids := range d.UserWorkflows {
		s.userWorkflows[uid] = intSet(ids)
	}
	for wid, ids := range d.WorkflowPEs {
		if _, ok := s.workflows[wid]; ok {
			s.workflowPEs[wid] = intSet(ids)
		}
	}
	if d.NextUserID > s.nextUserID {
		s.nextUserID = d.NextUserID
	}
	if d.NextPEID > s.nextPEID {
		s.nextPEID = d.NextPEID
	}
	if d.NextWorkflowID > s.nextWorkflowID {
		s.nextWorkflowID = d.NextWorkflowID
	}
}

func intSet(ids []int) map[int]bool {
	set := make(map[int]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return set
}
