package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"laminar/internal/core"
	"laminar/internal/index"
	"laminar/internal/registry"
)

// buildShardSnapshot makes a primary-shaped store — clustered index,
// trained, populated — and saves it in the v2 format.
func buildShardSnapshot(t *testing.T, path string, factory index.Factory) (userID int, query []float32) {
	t.Helper()
	st := registry.NewStore()
	if factory != nil {
		st.ConfigureIndex(factory)
	}
	u, err := st.RegisterUser("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 80; i++ {
		vec := make([]float32, 8)
		vec[i%8] = 1
		if _, err := st.AddPE(u.UserID, core.AddPERequest{
			PEName: fmt.Sprintf("PE%03d", i), PECode: "c", DescEmbedding: vec,
		}); err != nil {
			t.Fatal(err)
		}
	}
	st.RetrainIndexes()
	st.WaitIndexReady()
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	q := make([]float32, 8)
	q[3] = 1
	return u.UserID, q
}

func clusteredFactory() index.VectorIndex {
	return index.NewClustered(index.ClusteredConfig{RecallTarget: 1.0})
}

func TestOpenReplicaRestoresWithoutRetraining(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.json")
	userID, q := buildShardSnapshot(t, path, clusteredFactory)

	rep, err := OpenReplica(path, clusteredFactory)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IndexesRestored() {
		t.Fatal("replica ran k-means instead of restoring the sidecar snapshot")
	}
	if !rep.ReadOnly() {
		t.Fatal("replica is not read-only")
	}
	hits := rep.Search(userID, registry.Query{Type: core.SearchPEs, Limit: 5}, registry.Input{Embedding: q})[0]
	if len(hits) == 0 {
		t.Fatal("restored replica answers no queries")
	}
	if hits[0].Score < 0.99 {
		t.Errorf("best hit score %.3f, want ~1.0 for an exact-match query", hits[0].Score)
	}
}

func TestOpenReplicaRejectsWrites(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.json")
	userID, _ := buildShardSnapshot(t, path, clusteredFactory)

	rep, err := OpenReplica(path, clusteredFactory)
	if err != nil {
		t.Fatal(err)
	}
	wantForbidden := func(label string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: read-only replica accepted the write", label)
		}
		var apiErr *core.APIError
		if !errors.As(err, &apiErr) || apiErr.Code != 403 {
			t.Errorf("%s: got %v, want a 403 APIError", label, err)
		}
	}
	_, err = rep.AddPE(userID, core.AddPERequest{PEName: "new", PECode: "c"})
	wantForbidden("AddPE", err)
	wantForbidden("RemovePE", rep.RemovePE(userID, 1))
	_, err = rep.AddWorkflow(userID, core.AddWorkflowRequest{WorkflowName: "W", WorkflowCode: "c"})
	wantForbidden("AddWorkflow", err)
	_, err = rep.RegisterUser("bob", "pw")
	wantForbidden("RegisterUser", err)

	// Reads — including login, which replicas must serve — still work.
	if _, _, err := rep.Login("alice", "pw"); err != nil {
		t.Errorf("replica refused a login: %v", err)
	}
	if pes := rep.PEsForUser(userID); len(pes) != 80 {
		t.Errorf("replica lists %d PEs, want 80", len(pes))
	}
}

func TestOpenReplicaFailsOnMissingSnapshot(t *testing.T) {
	if _, err := OpenReplica(filepath.Join(t.TempDir(), "absent.json"), nil); err == nil {
		t.Fatal("want an error for a missing snapshot")
	}
}

func TestOpenReplicaFailsWhenSidecarMissing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.json")
	buildShardSnapshot(t, path, clusteredFactory)

	// Delete the vector sidecar: the registry JSON alone cannot restore
	// the trained index, and a "stateless" replica must refuse to boot
	// rather than silently run k-means.
	matches, err := filepath.Glob(filepath.Join(dir, "shard.json-*.vec"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no v2 sidecar next to the snapshot (matches=%v err=%v)", matches, err)
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenReplica(path, clusteredFactory); err == nil {
		t.Fatal("replica booted from a snapshot whose sidecar is gone")
	}
}

func TestOpenReplicaWithNilFactoryUsesFlat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.json")
	userID, q := buildShardSnapshot(t, path, nil)

	rep, err := OpenReplica(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hits := rep.Search(userID, registry.Query{Type: core.SearchPEs, Limit: 5}, registry.Input{Embedding: q})[0]; len(hits) == 0 {
		t.Fatal("flat replica answers no queries")
	}
}
