package registry

import (
	"sort"
	"strings"

	"laminar/internal/core"
)

// PE operations live on the pes shard. Registrations and removals contend
// only with other PE traffic (and searches resolving PE candidates), never
// with user or workflow operations.

// AddPE registers a PE for a user. When a PE with the same name and code
// already exists (registered by another user), the user is added as an
// additional owner instead of creating a duplicate entry (Section 3.1).
func (s *Store) AddPE(userID int, req core.AddPERequest) (*core.PERecord, error) {
	s.simulateWAN()
	if err := s.checkWritable(); err != nil {
		return nil, err
	}
	if req.PEID < 0 {
		return nil, core.ErrBadRequest("peId", "peId must be positive when set")
	}
	if strings.TrimSpace(req.PEName) == "" {
		return nil, core.ErrBadRequest("peName", "PE name must not be empty")
	}
	if req.PECode == "" {
		return nil, core.ErrBadRequest("peCode", "PE code must not be empty")
	}
	if !s.userExists(userID) {
		return nil, core.ErrNotFound("user", "no such user id %d", userID)
	}
	s.pesMu.Lock()
	defer s.pesMu.Unlock()
	if s.userPEs[userID] == nil {
		s.userPEs[userID] = map[int]bool{}
	}
	for _, pe := range s.pes {
		if pe.PEName == req.PEName {
			// Same name: associate this user as an additional owner. As with
			// workflows, adopt embeddings the stored record lacks (a record
			// predating stored embeddings, re-registered by a newer client)
			// rather than silently discarding what the client computed.
			s.userPEs[userID][pe.PEID] = true
			adopted := false
			if len(pe.DescEmbedding) == 0 && len(req.DescEmbedding) > 0 {
				pe.DescEmbedding = append([]float32(nil), req.DescEmbedding...)
				adopted = true
			}
			if len(pe.CodeEmbedding) == 0 && len(req.CodeEmbedding) > 0 {
				pe.CodeEmbedding = append([]float32(nil), req.CodeEmbedding...)
				adopted = true
			}
			if adopted {
				s.indexPE(pe.PEID, pe)
			}
			peID := pe.PEID
			s.markDirty(func(d *dirtyState) {
				if adopted {
					d.pes[peID] = true
				}
				d.ownerPEs[userID] = true
			})
			return pe, nil
		}
	}
	// A pinned id (cluster write routing: the coordinator assigns global
	// ids and consistent-hashes them to shards) is honored verbatim; a
	// collision is a conflict, never a silent reassignment, because the
	// record's home shard is derived from its id.
	id := s.nextPEID
	if req.PEID > 0 {
		if _, taken := s.pes[req.PEID]; taken {
			return nil, core.ErrConflict("peId", "PE id %d is already registered", req.PEID)
		}
		id = req.PEID
	}
	pe := &core.PERecord{
		PEID:           id,
		PEName:         req.PEName,
		Description:    req.Description,
		AutoSummarized: req.AutoSummarized,
		PECode:         req.PECode,
		PEImports:      append([]string(nil), req.PEImports...),
		CodeEmbedding:  append([]float32(nil), req.CodeEmbedding...),
		DescEmbedding:  append([]float32(nil), req.DescEmbedding...),
		CreatedAt:      s.clock(),
	}
	if pe.PEID >= s.nextPEID {
		s.nextPEID = pe.PEID + 1
	}
	s.pes[pe.PEID] = pe
	s.userPEs[userID][pe.PEID] = true
	s.indexPE(pe.PEID, pe)
	s.markDirty(func(d *dirtyState) {
		d.pes[pe.PEID] = true
		d.ownerPEs[userID] = true
	})
	return pe, nil
}

// UpsertPE registers a PE or — unlike AddPE, whose same-name path only
// *adds an owner* — replaces an existing same-name PE's content in place:
// description, code, imports and embeddings are overwritten (the id, the
// creation time and every ownership row survive) and all indexes are
// updated incrementally. This is the re-registration path continuous
// ingestion needs: a watched source file changed, so the record must
// follow it. Reports whether a new record was created.
func (s *Store) UpsertPE(userID int, req core.AddPERequest) (*core.PERecord, bool, error) {
	s.simulateWAN()
	if err := s.checkWritable(); err != nil {
		return nil, false, err
	}
	if strings.TrimSpace(req.PEName) == "" {
		return nil, false, core.ErrBadRequest("peName", "PE name must not be empty")
	}
	if req.PECode == "" {
		return nil, false, core.ErrBadRequest("peCode", "PE code must not be empty")
	}
	if !s.userExists(userID) {
		return nil, false, core.ErrNotFound("user", "no such user id %d", userID)
	}
	s.pesMu.Lock()
	var existing *core.PERecord
	for _, pe := range s.pes {
		if pe.PEName == req.PEName {
			existing = pe
			break
		}
	}
	if existing == nil {
		s.pesMu.Unlock()
		// No record to replace: a plain registration. AddPE re-validates and
		// re-scans under its own lock acquisition; a same-name record that
		// appeared in the window becomes an owner association, which a
		// subsequent upsert will replace — eventual convergence under racing
		// ingestors, never a duplicate.
		pe, err := s.AddPE(userID, req)
		return pe, err == nil, err
	}
	defer s.pesMu.Unlock()
	if s.userPEs[userID] == nil {
		s.userPEs[userID] = map[int]bool{}
	}
	s.userPEs[userID][existing.PEID] = true
	existing.Description = req.Description
	existing.AutoSummarized = req.AutoSummarized
	existing.PECode = req.PECode
	existing.PEImports = append([]string(nil), req.PEImports...)
	existing.DescEmbedding = append([]float32(nil), req.DescEmbedding...)
	existing.CodeEmbedding = append([]float32(nil), req.CodeEmbedding...)
	// Re-index under the same shard lock. indexPE skips empty embeddings,
	// so stale index entries for an embedding the new content dropped must
	// be deleted explicitly.
	desc, code, _ := s.indexes()
	if len(existing.DescEmbedding) == 0 {
		desc.Delete(existing.PEID)
	}
	if len(existing.CodeEmbedding) == 0 {
		code.Delete(existing.PEID)
	}
	s.indexPE(existing.PEID, existing)
	s.markDirty(func(d *dirtyState) {
		d.pes[existing.PEID] = true
		d.ownerPEs[userID] = true
	})
	return existing, false, nil
}

// PEByID fetches a PE owned by (or visible to) the user.
func (s *Store) PEByID(userID, peID int) (*core.PERecord, error) {
	s.simulateWAN()
	s.pesMu.RLock()
	defer s.pesMu.RUnlock()
	pe, ok := s.pes[peID]
	if !ok {
		return nil, core.ErrNotFound("peId", "no PE with id %d", peID)
	}
	if !s.userPEs[userID][peID] {
		return nil, core.ErrNotFound("peId", "PE %d is not registered to this user", peID)
	}
	return pe, nil
}

// PEByName fetches a user's PE by class name.
func (s *Store) PEByName(userID int, name string) (*core.PERecord, error) {
	s.simulateWAN()
	s.pesMu.RLock()
	defer s.pesMu.RUnlock()
	for id := range s.userPEs[userID] {
		if pe := s.pes[id]; pe != nil && pe.PEName == name {
			return pe, nil
		}
	}
	return nil, core.ErrNotFound("peName", "no PE named %q for this user", name)
}

// PEsForUser lists the user's PEs ordered by id.
func (s *Store) PEsForUser(userID int) []core.PERecord {
	s.simulateWAN()
	s.pesMu.RLock()
	defer s.pesMu.RUnlock()
	owned := s.userPEs[userID]
	if len(owned) == 0 {
		return nil // not empty: the list routes encode it as null
	}
	out := make([]core.PERecord, 0, len(owned))
	for id := range owned {
		if pe := s.pes[id]; pe != nil {
			out = append(out, *pe)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PEID < out[j].PEID })
	return out
}

// RemovePE detaches the PE from the user; the record is deleted once no
// owner remains.
func (s *Store) RemovePE(userID, peID int) error {
	s.simulateWAN()
	if err := s.checkWritable(); err != nil {
		return err
	}
	s.pesMu.Lock()
	defer s.pesMu.Unlock()
	if _, ok := s.pes[peID]; !ok {
		return core.ErrNotFound("peId", "no PE with id %d", peID)
	}
	if !s.userPEs[userID][peID] {
		return core.ErrNotFound("peId", "PE %d is not registered to this user", peID)
	}
	delete(s.userPEs[userID], peID)
	// delete fully when orphaned
	owned := false
	for _, set := range s.userPEs {
		if set[peID] {
			owned = true
			break
		}
	}
	var detachedWFs []int
	if !owned {
		delete(s.pes, peID)
		desc, code, _ := s.indexes()
		desc.Delete(peID)
		code.Delete(peID)
		peLex, _ := s.lexIndexes()
		peLex.Delete(peID)
		// Detach the orphaned PE from every workflow. Taking the wfs lock
		// while holding the pes lock follows the pes → wfs shard order.
		s.wfsMu.Lock()
		for wid := range s.workflowPEs {
			if s.workflowPEs[wid][peID] {
				detachedWFs = append(detachedWFs, wid)
			}
			delete(s.workflowPEs[wid], peID)
		}
		s.wfsMu.Unlock()
	}
	s.markDirty(func(d *dirtyState) {
		d.ownerPEs[userID] = true
		if !owned {
			d.pes[peID] = true
			for _, wid := range detachedWFs {
				d.assocWFs[wid] = true
			}
		}
	})
	return nil
}

// RemovePEByName removes the user's PE by class name.
func (s *Store) RemovePEByName(userID int, name string) error {
	pe, err := s.PEByName(userID, name)
	if err != nil {
		return err
	}
	return s.RemovePE(userID, pe.PEID)
}
