package storage

import (
	"encoding/json"
	"fmt"
	"os"

	"laminar/internal/core"
)

// v1Document is the legacy single-file JSON layout, byte-compatible with
// every registry file written before the layered storage refactor: records
// inline, embeddings packed as base64 float32 in id-keyed maps (or, in the
// oldest files, inline number arrays on the records themselves), index
// snapshots embedded as JSON under "indexes".
type v1Document struct {
	Users          []core.UserRecord     `json:"users"`
	PasswordHashes map[int]string        `json:"passwordHashes"`
	PEs            []core.PERecord       `json:"pes"`
	Workflows      []core.WorkflowRecord `json:"workflows"`
	UserPEs        map[int][]int         `json:"userPes"`
	UserWorkflows  map[int][]int         `json:"userWorkflows"`
	WorkflowPEs    map[int][]int         `json:"workflowPes"`
	NextUserID     int                   `json:"nextUserId"`
	NextPEID       int                   `json:"nextPeId"`
	NextWorkflowID int                   `json:"nextWorkflowId"`

	PEDescVecs       map[int]packedVec `json:"peDescVecs,omitempty"`
	PECodeVecs       map[int]packedVec `json:"peCodeVecs,omitempty"`
	WorkflowDescVecs map[int]packedVec `json:"workflowDescVecs,omitempty"`

	Indexes *IndexSnapshots `json:"indexes,omitempty"`
}

// loadV1 reads a legacy file, normalizing the two historic embedding
// placements (packed maps, inline arrays) into the snapshot's vector maps.
func loadV1(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage: read snapshot: %w", err)
	}
	var doc v1Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("storage: parse v1 snapshot: %w", err)
	}
	snap := &Snapshot{
		Users:            doc.Users,
		PasswordHashes:   doc.PasswordHashes,
		PEs:              doc.PEs,
		Workflows:        doc.Workflows,
		UserPEs:          doc.UserPEs,
		UserWorkflows:    doc.UserWorkflows,
		WorkflowPEs:      doc.WorkflowPEs,
		NextUserID:       doc.NextUserID,
		NextPEID:         doc.NextPEID,
		NextWorkflowID:   doc.NextWorkflowID,
		PEDescVecs:       map[int][]float32{},
		PECodeVecs:       map[int][]float32{},
		WorkflowDescVecs: map[int][]float32{},
		Indexes:          doc.Indexes,
	}
	for id, v := range doc.PEDescVecs {
		snap.PEDescVecs[id] = v
	}
	for id, v := range doc.PECodeVecs {
		snap.PECodeVecs[id] = v
	}
	for id, v := range doc.WorkflowDescVecs {
		snap.WorkflowDescVecs[id] = v
	}
	// Oldest files carry embeddings inline on the records; detach them so
	// the serving layer sees one shape regardless of file vintage. Packed
	// maps win when both are somehow present (they are what newer writers
	// maintained).
	for i := range snap.PEs {
		pe := &snap.PEs[i]
		if len(pe.DescEmbedding) > 0 {
			if _, ok := snap.PEDescVecs[pe.PEID]; !ok {
				snap.PEDescVecs[pe.PEID] = pe.DescEmbedding
			}
			pe.DescEmbedding = nil
		}
		if len(pe.CodeEmbedding) > 0 {
			if _, ok := snap.PECodeVecs[pe.PEID]; !ok {
				snap.PECodeVecs[pe.PEID] = pe.CodeEmbedding
			}
			pe.CodeEmbedding = nil
		}
	}
	for i := range snap.Workflows {
		wf := &snap.Workflows[i]
		if len(wf.DescEmbedding) > 0 {
			if _, ok := snap.WorkflowDescVecs[wf.WorkflowID]; !ok {
				snap.WorkflowDescVecs[wf.WorkflowID] = wf.DescEmbedding
			}
			wf.DescEmbedding = nil
		}
	}
	return snap, nil
}
