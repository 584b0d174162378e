package storage

import (
	"path/filepath"
	"reflect"
	"testing"

	"laminar/internal/core"
)

// TestLoadV1InlineEmbeddings exercises the oldest file vintage: embeddings
// inline on the records, no packed maps. The loader must detach them into
// the vector maps; where a packed map entry exists too, the packed form
// wins.
func TestLoadV1InlineEmbeddings(t *testing.T) {
	path := goldenV1(t, "inline.json")
	snap, format, err := Load(path)
	if err != nil || format != FormatV1 {
		t.Fatalf("load = format %v, err %v", format, err)
	}
	if !reflect.DeepEqual(snap.PEDescVecs[1], []float32{1, 2}) {
		t.Fatalf("pe 1 desc vec not detached: %v", snap.PEDescVecs[1])
	}
	if !reflect.DeepEqual(snap.PECodeVecs[1], []float32{3, 4}) {
		t.Fatalf("pe 1 code vec not detached: %v", snap.PECodeVecs[1])
	}
	if !reflect.DeepEqual(snap.PEDescVecs[2], []float32{7, 8}) {
		t.Fatalf("packed map did not win over inline: %v", snap.PEDescVecs[2])
	}
	if !reflect.DeepEqual(snap.WorkflowDescVecs[1], []float32{5, 6}) {
		t.Fatalf("workflow vec not detached: %v", snap.WorkflowDescVecs[1])
	}
}

// TestSaveDetachesInlineWorkflowEmbeddings drives the normalized() detach
// path via the workflow-only trigger: no PE carries an inline embedding but
// a workflow does, and the caller's snapshot must not be mutated.
func TestSaveDetachesInlineWorkflowEmbeddings(t *testing.T) {
	snap := &Snapshot{
		Workflows: []core.WorkflowRecord{{
			WorkflowID: 1, WorkflowName: "w", DescEmbedding: []float32{1, 2, 3},
		}},
		UserWorkflows: map[int][]int{},
		WorkflowPEs:   map[int][]int{1: {}},
		NextUserID:    1, NextPEID: 1, NextWorkflowID: 2,
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	if snap.Workflows[0].DescEmbedding == nil {
		t.Fatal("save mutated the caller's snapshot")
	}
	loaded, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.WorkflowDescVecs[1], []float32{1, 2, 3}) {
		t.Fatalf("workflow embedding lost: %v", loaded.WorkflowDescVecs)
	}
	if loaded.Workflows[0].DescEmbedding != nil {
		t.Fatal("loaded record still carries an inline embedding")
	}
}
