package registry

import (
	"sort"
	"strings"

	"laminar/internal/core"
)

// Workflow operations live on the wfs shard; the ones that validate or
// resolve PE ids additionally take the pes shard read lock, always in the
// pes → wfs order.

// AddWorkflow registers a workflow, associating any referenced PEs.
func (s *Store) AddWorkflow(userID int, req core.AddWorkflowRequest) (*core.WorkflowRecord, error) {
	s.simulateWAN()
	if err := s.checkWritable(); err != nil {
		return nil, err
	}
	if req.WorkflowID < 0 {
		return nil, core.ErrBadRequest("workflowId", "workflowId must be positive when set")
	}
	if strings.TrimSpace(req.EntryPoint) == "" {
		return nil, core.ErrBadRequest("entryPoint", "workflow entry point must not be empty")
	}
	if req.WorkflowCode == "" {
		return nil, core.ErrBadRequest("workflowCode", "workflow code must not be empty")
	}
	if !s.userExists(userID) {
		return nil, core.ErrNotFound("user", "no such user id %d", userID)
	}
	// The pes read lock is held across the whole insert so the PEIDs
	// validated below cannot be deleted out from under the association.
	s.pesMu.RLock()
	defer s.pesMu.RUnlock()
	s.wfsMu.Lock()
	defer s.wfsMu.Unlock()
	if s.userWorkflows[userID] == nil {
		s.userWorkflows[userID] = map[int]bool{}
	}
	for _, wf := range s.workflows {
		if wf.EntryPoint == req.EntryPoint {
			s.userWorkflows[userID][wf.WorkflowID] = true
			// Adopt an embedding the stored record lacks (a record predating
			// workflow embeddings, re-registered by a newer client) so the
			// workflow becomes semantically searchable instead of silently
			// dropping what the client computed.
			adopted := false
			if len(wf.DescEmbedding) == 0 && len(req.DescEmbedding) > 0 {
				wf.DescEmbedding = append([]float32(nil), req.DescEmbedding...)
				s.indexWorkflow(wf.WorkflowID, wf)
				adopted = true
			}
			wfID := wf.WorkflowID
			s.markDirty(func(d *dirtyState) {
				if adopted {
					d.wfs[wfID] = true
				}
				d.ownerWFs[userID] = true
			})
			return wf, nil
		}
	}
	// A pinned id (cluster write routing — see AddPE) is honored verbatim;
	// a collision is a conflict, never a reassignment.
	id := s.nextWorkflowID
	if req.WorkflowID > 0 {
		if _, taken := s.workflows[req.WorkflowID]; taken {
			return nil, core.ErrConflict("workflowId", "workflow id %d is already registered", req.WorkflowID)
		}
		id = req.WorkflowID
	}
	wf := &core.WorkflowRecord{
		WorkflowID:    id,
		WorkflowName:  req.WorkflowName,
		EntryPoint:    req.EntryPoint,
		Description:   req.Description,
		WorkflowCode:  req.WorkflowCode,
		DescEmbedding: append([]float32(nil), req.DescEmbedding...),
		CreatedAt:     s.clock(),
	}
	if wf.WorkflowID >= s.nextWorkflowID {
		s.nextWorkflowID = wf.WorkflowID + 1
	}
	s.workflows[wf.WorkflowID] = wf
	s.indexWorkflow(wf.WorkflowID, wf)
	s.userWorkflows[userID][wf.WorkflowID] = true
	s.workflowPEs[wf.WorkflowID] = map[int]bool{}
	for _, peID := range req.PEIDs {
		if _, ok := s.pes[peID]; ok {
			s.workflowPEs[wf.WorkflowID][peID] = true
		}
	}
	s.markDirty(func(d *dirtyState) {
		d.wfs[wf.WorkflowID] = true
		d.ownerWFs[userID] = true
		d.assocWFs[wf.WorkflowID] = true
	})
	return wf, nil
}

// WorkflowByID fetches a user's workflow by id.
func (s *Store) WorkflowByID(userID, wfID int) (*core.WorkflowRecord, error) {
	s.simulateWAN()
	s.wfsMu.RLock()
	defer s.wfsMu.RUnlock()
	wf, ok := s.workflows[wfID]
	if !ok {
		return nil, core.ErrNotFound("workflowId", "no workflow with id %d", wfID)
	}
	if !s.userWorkflows[userID][wfID] {
		return nil, core.ErrNotFound("workflowId", "workflow %d is not registered to this user", wfID)
	}
	return wf, nil
}

// WorkflowByName fetches a user's workflow by its entry point name.
func (s *Store) WorkflowByName(userID int, name string) (*core.WorkflowRecord, error) {
	s.simulateWAN()
	s.wfsMu.RLock()
	defer s.wfsMu.RUnlock()
	for id := range s.userWorkflows[userID] {
		if wf := s.workflows[id]; wf != nil && (wf.EntryPoint == name || wf.WorkflowName == name) {
			return wf, nil
		}
	}
	return nil, core.ErrNotFound("workflowName", "no workflow named %q for this user", name)
}

// WorkflowsForUser lists the user's workflows ordered by id.
func (s *Store) WorkflowsForUser(userID int) []core.WorkflowRecord {
	s.simulateWAN()
	s.wfsMu.RLock()
	defer s.wfsMu.RUnlock()
	owned := s.userWorkflows[userID]
	if len(owned) == 0 {
		return nil // see PEsForUser
	}
	out := make([]core.WorkflowRecord, 0, len(owned))
	for id := range owned {
		if wf := s.workflows[id]; wf != nil {
			out = append(out, *wf)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].WorkflowID < out[j].WorkflowID })
	return out
}

// RemoveWorkflow detaches a workflow from the user, deleting it when
// orphaned.
func (s *Store) RemoveWorkflow(userID, wfID int) error {
	s.simulateWAN()
	if err := s.checkWritable(); err != nil {
		return err
	}
	s.wfsMu.Lock()
	defer s.wfsMu.Unlock()
	if _, ok := s.workflows[wfID]; !ok {
		return core.ErrNotFound("workflowId", "no workflow with id %d", wfID)
	}
	if !s.userWorkflows[userID][wfID] {
		return core.ErrNotFound("workflowId", "workflow %d is not registered to this user", wfID)
	}
	delete(s.userWorkflows[userID], wfID)
	owned := false
	for _, set := range s.userWorkflows {
		if set[wfID] {
			owned = true
			break
		}
	}
	if !owned {
		delete(s.workflows, wfID)
		delete(s.workflowPEs, wfID)
		_, _, wfIdx := s.indexes()
		wfIdx.Delete(wfID)
		_, wfLex := s.lexIndexes()
		wfLex.Delete(wfID)
	}
	s.markDirty(func(d *dirtyState) {
		d.ownerWFs[userID] = true
		if !owned {
			d.wfs[wfID] = true
		}
	})
	return nil
}

// RemoveWorkflowByName removes the user's workflow by name.
func (s *Store) RemoveWorkflowByName(userID int, name string) error {
	wf, err := s.WorkflowByName(userID, name)
	if err != nil {
		return err
	}
	return s.RemoveWorkflow(userID, wf.WorkflowID)
}

// AssociatePE links a PE to a workflow
// (PUT /registry/{user}/workflow/{workflowId}/pe/{peId}).
func (s *Store) AssociatePE(userID, wfID, peID int) error {
	s.simulateWAN()
	if err := s.checkWritable(); err != nil {
		return err
	}
	s.pesMu.RLock()
	defer s.pesMu.RUnlock()
	s.wfsMu.Lock()
	defer s.wfsMu.Unlock()
	if !s.userWorkflows[userID][wfID] {
		return core.ErrNotFound("workflowId", "workflow %d is not registered to this user", wfID)
	}
	if _, ok := s.pes[peID]; !ok {
		return core.ErrNotFound("peId", "no PE with id %d", peID)
	}
	if s.workflowPEs[wfID] == nil {
		s.workflowPEs[wfID] = map[int]bool{}
	}
	s.workflowPEs[wfID][peID] = true
	s.markDirty(func(d *dirtyState) { d.assocWFs[wfID] = true })
	return nil
}

// PEsByWorkflow returns all PEs belonging to a workflow — the query the
// two-way many-to-many design exists to make cheap (Section 3.1).
func (s *Store) PEsByWorkflow(userID, wfID int) ([]core.PERecord, error) {
	s.simulateWAN()
	s.pesMu.RLock()
	defer s.pesMu.RUnlock()
	s.wfsMu.RLock()
	defer s.wfsMu.RUnlock()
	if !s.userWorkflows[userID][wfID] {
		return nil, core.ErrNotFound("workflowId", "workflow %d is not registered to this user", wfID)
	}
	var out []core.PERecord
	for peID := range s.workflowPEs[wfID] {
		if pe := s.pes[peID]; pe != nil {
			out = append(out, *pe)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PEID < out[j].PEID })
	return out, nil
}

// Listing returns everything the user has registered
// (GET /registry/{user}/all).
func (s *Store) Listing(userID int) core.RegistryListing {
	return core.RegistryListing{
		PEs:       s.PEsForUser(userID),
		Workflows: s.WorkflowsForUser(userID),
	}
}
