package registry

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"laminar/internal/core"
	"laminar/internal/index"
	"laminar/internal/registry/storage"
	"laminar/internal/search"
)

// pesByDesc and wfsByDesc run one ModeANN description query through
// Store.Search against the user's PEs / workflows.
func pesByDesc(s *Store, userID int, emb []float32, limit int) []core.SearchHit {
	return s.Search(userID, Query{Type: core.SearchPEs, Limit: limit}, Input{Embedding: emb})[0]
}

func wfsByDesc(s *Store, userID int, emb []float32, limit int) []core.SearchHit {
	return s.Search(userID, Query{Type: core.SearchWorkflows, Limit: limit}, Input{Embedding: emb})[0]
}

func newUser(t *testing.T, s *Store, name string) *core.UserRecord {
	t.Helper()
	u, err := s.RegisterUser(name, "pw-"+name)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func addPE(t *testing.T, s *Store, userID int, name string) *core.PERecord {
	t.Helper()
	pe, err := s.AddPE(userID, core.AddPERequest{
		PEName: name, Description: "desc " + name, PECode: "CODE-" + name,
		PEImports:     []string{"random"},
		CodeEmbedding: []float32{1, 2, 3},
		DescEmbedding: []float32{4, 5, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pe
}

func TestUserLifecycle(t *testing.T) {
	s := NewStore()
	u := newUser(t, s, "ann")
	if u.UserID != 1 {
		t.Errorf("id = %d", u.UserID)
	}
	if _, err := s.RegisterUser("ann", "other"); err == nil {
		t.Error("duplicate user should conflict")
	}
	if _, err := s.RegisterUser("", "pw"); err == nil {
		t.Error("empty user name should fail")
	}
	if _, err := s.RegisterUser("bob", ""); err == nil {
		t.Error("empty password should fail")
	}
	got, token, err := s.Login("ann", "pw-ann")
	if err != nil || got.UserID != u.UserID || token == "" {
		t.Fatalf("login: %v %v %q", got, err, token)
	}
	if id, ok := s.UserIDForToken(token); !ok || id != u.UserID {
		t.Errorf("token resolution: %d %v", id, ok)
	}
	if _, _, err := s.Login("ann", "wrong"); err == nil {
		t.Error("wrong password should fail")
	}
	if _, _, err := s.Login("ghost", "pw"); err == nil {
		t.Error("unknown user should fail")
	}
	if len(s.Users()) != 1 {
		t.Errorf("users: %v", s.Users())
	}
}

func TestPELifecycleAndOwnership(t *testing.T) {
	s := NewStore()
	ann := newUser(t, s, "ann")
	bob := newUser(t, s, "bob")

	pe := addPE(t, s, ann.UserID, "IsPrime")
	if pe.PEID != 1 {
		t.Errorf("pe id = %d", pe.PEID)
	}
	// Bob registering the same PE name becomes an additional owner, not a
	// duplicate (Section 3.1).
	pe2, err := s.AddPE(bob.UserID, core.AddPERequest{PEName: "IsPrime", PECode: "CODE"})
	if err != nil {
		t.Fatal(err)
	}
	if pe2.PEID != pe.PEID {
		t.Errorf("duplicate entry created: %d vs %d", pe2.PEID, pe.PEID)
	}
	if got := s.PEsForUser(bob.UserID); len(got) != 1 {
		t.Errorf("bob's PEs: %v", got)
	}
	// Ann removes: the PE survives for Bob.
	if err := s.RemovePE(ann.UserID, pe.PEID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PEByID(ann.UserID, pe.PEID); err == nil {
		t.Error("ann should no longer see the PE")
	}
	if _, err := s.PEByID(bob.UserID, pe.PEID); err != nil {
		t.Errorf("bob should still see the PE: %v", err)
	}
	// Bob removes too: the record is deleted.
	if err := s.RemovePEByName(bob.UserID, "IsPrime"); err != nil {
		t.Fatal(err)
	}
	if err := s.RemovePE(bob.UserID, pe.PEID); err == nil {
		t.Error("removing a removed PE should fail")
	}
}

func TestPEValidationAndLookups(t *testing.T) {
	s := NewStore()
	ann := newUser(t, s, "ann")
	if _, err := s.AddPE(ann.UserID, core.AddPERequest{PEName: "", PECode: "x"}); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := s.AddPE(ann.UserID, core.AddPERequest{PEName: "X", PECode: ""}); err == nil {
		t.Error("empty code should fail")
	}
	if _, err := s.AddPE(999, core.AddPERequest{PEName: "X", PECode: "c"}); err == nil {
		t.Error("unknown user should fail")
	}
	addPE(t, s, ann.UserID, "A")
	addPE(t, s, ann.UserID, "B")
	if _, err := s.PEByName(ann.UserID, "missing"); err == nil {
		t.Error("missing PE should 404")
	}
	pes := s.PEsForUser(ann.UserID)
	if len(pes) != 2 || pes[0].PEName != "A" || pes[1].PEName != "B" {
		t.Errorf("listing: %v", pes)
	}
	// embeddings survive storage
	if len(pes[0].CodeEmbedding) != 3 || len(pes[0].DescEmbedding) != 3 {
		t.Errorf("embeddings lost: %+v", pes[0])
	}
}

func TestWorkflowLifecycleAndAssociations(t *testing.T) {
	s := NewStore()
	ann := newUser(t, s, "ann")
	p1 := addPE(t, s, ann.UserID, "Producer")
	p2 := addPE(t, s, ann.UserID, "Consumer")
	wf, err := s.AddWorkflow(ann.UserID, core.AddWorkflowRequest{
		WorkflowName: "IsPrime", EntryPoint: "isPrime",
		Description: "prime workflow", WorkflowCode: "WF-CODE",
		PEIDs: []int{p1.PEID, p2.PEID},
	})
	if err != nil {
		t.Fatal(err)
	}
	pes, err := s.PEsByWorkflow(ann.UserID, wf.WorkflowID)
	if err != nil || len(pes) != 2 {
		t.Fatalf("workflow PEs: %v %v", pes, err)
	}
	// associate a third PE after the fact
	p3 := addPE(t, s, ann.UserID, "Filter")
	if err := s.AssociatePE(ann.UserID, wf.WorkflowID, p3.PEID); err != nil {
		t.Fatal(err)
	}
	pes, _ = s.PEsByWorkflow(ann.UserID, wf.WorkflowID)
	if len(pes) != 3 {
		t.Errorf("after associate: %v", pes)
	}
	// lookups by both name fields
	if _, err := s.WorkflowByName(ann.UserID, "isPrime"); err != nil {
		t.Errorf("by entry point: %v", err)
	}
	if _, err := s.WorkflowByName(ann.UserID, "IsPrime"); err != nil {
		t.Errorf("by workflow name: %v", err)
	}
	// removal
	if err := s.RemoveWorkflowByName(ann.UserID, "isPrime"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WorkflowByID(ann.UserID, wf.WorkflowID); err == nil {
		t.Error("workflow should be gone")
	}
}

func TestWorkflowValidation(t *testing.T) {
	s := NewStore()
	ann := newUser(t, s, "ann")
	if _, err := s.AddWorkflow(ann.UserID, core.AddWorkflowRequest{EntryPoint: "", WorkflowCode: "c"}); err == nil {
		t.Error("empty entry point should fail")
	}
	if _, err := s.AddWorkflow(ann.UserID, core.AddWorkflowRequest{EntryPoint: "x", WorkflowCode: ""}); err == nil {
		t.Error("empty code should fail")
	}
	if err := s.AssociatePE(ann.UserID, 42, 42); err == nil {
		t.Error("associating unknown entities should fail")
	}
	if _, err := s.PEsByWorkflow(ann.UserID, 42); err == nil {
		t.Error("unknown workflow should 404")
	}
}

func TestListing(t *testing.T) {
	s := NewStore()
	ann := newUser(t, s, "ann")
	addPE(t, s, ann.UserID, "A")
	if _, err := s.AddWorkflow(ann.UserID, core.AddWorkflowRequest{EntryPoint: "w", WorkflowCode: "c"}); err != nil {
		t.Fatal(err)
	}
	listing := s.Listing(ann.UserID)
	if len(listing.PEs) != 1 || len(listing.Workflows) != 1 {
		t.Errorf("listing: %+v", listing)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := NewStore()
	ann := newUser(t, s, "ann")
	bob := newUser(t, s, "bob")
	p := addPE(t, s, ann.UserID, "Shared")
	if _, err := s.AddPE(bob.UserID, core.AddPERequest{PEName: "Shared", PECode: "c"}); err != nil {
		t.Fatal(err)
	}
	wf, err := s.AddWorkflow(ann.UserID, core.AddWorkflowRequest{
		EntryPoint: "wf1", WorkflowCode: "code", PEIDs: []int{p.PEID},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "registry.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if err := s2.Load(path); err != nil {
		t.Fatal(err)
	}
	// users, credentials, ownership and associations survive
	if _, _, err := s2.Login("ann", "pw-ann"); err != nil {
		t.Errorf("login after load: %v", err)
	}
	got, err := s2.PEByID(bob.UserID, p.PEID)
	if err != nil || got.PEName != "Shared" {
		t.Errorf("bob's ownership lost: %v %v", got, err)
	}
	pes, err := s2.PEsByWorkflow(ann.UserID, wf.WorkflowID)
	if err != nil || len(pes) != 1 {
		t.Errorf("workflow association lost: %v %v", pes, err)
	}
	// id counters continue
	p2 := addPE(t, s2, ann.UserID, "New")
	if p2.PEID <= p.PEID {
		t.Errorf("id counter regressed: %d", p2.PEID)
	}
}

func TestLoadMissingFileFails(t *testing.T) {
	s := NewStore()
	if err := s.Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("loading a missing snapshot should fail")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore()
	ann := newUser(t, s, "ann")
	done := make(chan bool)
	for i := 0; i < 8; i++ {
		go func(i int) {
			defer func() { done <- true }()
			for j := 0; j < 20; j++ {
				name := "PE" + string(rune('A'+i))
				_, _ = s.AddPE(ann.UserID, core.AddPERequest{PEName: name, PECode: "c"})
				_ = s.PEsForUser(ann.UserID)
				_, _ = s.PEByName(ann.UserID, name)
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := len(s.PEsForUser(ann.UserID)); got != 8 {
		t.Errorf("concurrent adds produced %d PEs, want 8 (deduped)", got)
	}
}

// ---- vector-index maintenance ----

func addEmbeddedPE(t *testing.T, s *Store, userID int, name, desc string, emb []float32) *core.PERecord {
	t.Helper()
	pe, err := s.AddPE(userID, core.AddPERequest{
		PEName: name, Description: desc, PECode: "CODE-" + name,
		DescEmbedding: emb, CodeEmbedding: emb,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pe
}

func TestIndexMaintainedIncrementally(t *testing.T) {
	s := NewStore()
	u := newUser(t, s, "zz46")
	a := addEmbeddedPE(t, s, u.UserID, "A", "alpha", []float32{1, 0})
	b := addEmbeddedPE(t, s, u.UserID, "B", "beta", []float32{0, 1})

	hits := pesByDesc(s, u.UserID, []float32{1, 0}, 10)
	if len(hits) != 2 || hits[0].ID != a.PEID || hits[1].ID != b.PEID {
		t.Fatalf("hits: %+v", hits)
	}
	// deleting the last owner must also evict the PE from both indexes
	if err := s.RemovePE(u.UserID, a.PEID); err != nil {
		t.Fatal(err)
	}
	hits = pesByDesc(s, u.UserID, []float32{1, 0}, 10)
	if len(hits) != 1 || hits[0].ID != b.PEID {
		t.Fatalf("after remove: %+v", hits)
	}
	if hits = s.CompletionSearch(u.UserID, []float32{0, 1}, 10); len(hits) != 1 || hits[0].ID != b.PEID {
		t.Fatalf("code index after remove: %+v", hits)
	}
}

func TestIndexSearchRespectsOwnership(t *testing.T) {
	s := NewStore()
	u1 := newUser(t, s, "owner")
	u2 := newUser(t, s, "other")
	addEmbeddedPE(t, s, u1.UserID, "Mine", "mine", []float32{1, 0})

	if hits := pesByDesc(s, u2.UserID, []float32{1, 0}, 10); len(hits) != 0 {
		t.Fatalf("other user sees foreign PE: %+v", hits)
	}
	if hits := pesByDesc(s, u1.UserID, []float32{1, 0}, 10); len(hits) != 1 {
		t.Fatalf("owner search: %+v", hits)
	}
}

func TestLoadRebuildsIndexes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "reg.json")
	s := NewStore()
	u := newUser(t, s, "zz46")
	addEmbeddedPE(t, s, u.UserID, "A", "alpha", []float32{1, 0})
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}

	fresh := NewStore()
	if err := fresh.Load(path); err != nil {
		t.Fatal(err)
	}
	hits := pesByDesc(fresh, u.UserID, []float32{1, 0}, 10)
	if len(hits) != 1 || hits[0].Name != "A" {
		t.Fatalf("index not rebuilt after Load: %+v", hits)
	}
}

func addEmbeddedWorkflow(t *testing.T, s *Store, userID int, name string, emb []float32) *core.WorkflowRecord {
	t.Helper()
	wf, err := s.AddWorkflow(userID, core.AddWorkflowRequest{
		WorkflowName: name, EntryPoint: name, Description: "wf " + name,
		WorkflowCode: "WF-" + name, DescEmbedding: emb,
	})
	if err != nil {
		t.Fatal(err)
	}
	return wf
}

func TestWorkflowSemanticSearch(t *testing.T) {
	s := NewStore()
	u := newUser(t, s, "zz46")
	w1 := addEmbeddedWorkflow(t, s, u.UserID, "seismic", []float32{1, 0})
	w2 := addEmbeddedWorkflow(t, s, u.UserID, "astro", []float32{0, 1})

	hits := wfsByDesc(s, u.UserID, []float32{1, 0}, 10)
	if len(hits) != 2 || hits[0].ID != w1.WorkflowID || hits[0].Kind != "workflow" {
		t.Fatalf("workflow hits: %+v", hits)
	}
	// removal evicts from the workflow index
	if err := s.RemoveWorkflow(u.UserID, w1.WorkflowID); err != nil {
		t.Fatal(err)
	}
	hits = wfsByDesc(s, u.UserID, []float32{1, 0}, 10)
	if len(hits) != 1 || hits[0].ID != w2.WorkflowID {
		t.Fatalf("after remove: %+v", hits)
	}
	// ownership filtering
	other := newUser(t, s, "other")
	if hits := wfsByDesc(s, other.UserID, []float32{1, 0}, 10); len(hits) != 0 {
		t.Fatalf("foreign workflows visible: %+v", hits)
	}
}

// TestPEReRegistrationAdoptsEmbeddings mirrors the workflow adoption path:
// a PE stored without embeddings becomes searchable when a newer client
// re-registers the name with them.
func TestPEReRegistrationAdoptsEmbeddings(t *testing.T) {
	s := NewStore()
	u := newUser(t, s, "zz46")
	if _, err := s.AddPE(u.UserID, core.AddPERequest{PEName: "Legacy", PECode: "c"}); err != nil {
		t.Fatal(err)
	}
	if hits := pesByDesc(s, u.UserID, []float32{1, 0}, 10); len(hits) != 0 {
		t.Fatalf("embedding-less PE searchable: %+v", hits)
	}
	pe, err := s.AddPE(u.UserID, core.AddPERequest{
		PEName: "Legacy", PECode: "c",
		DescEmbedding: []float32{1, 0}, CodeEmbedding: []float32{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits := pesByDesc(s, u.UserID, []float32{1, 0}, 10); len(hits) != 1 || hits[0].ID != pe.PEID {
		t.Fatalf("adopted desc embedding not indexed: %+v", hits)
	}
	if hits := s.CompletionSearch(u.UserID, []float32{0, 1}, 10); len(hits) != 1 || hits[0].ID != pe.PEID {
		t.Fatalf("adopted code embedding not indexed: %+v", hits)
	}
}

// TestWorkflowReRegistrationAdoptsEmbedding: re-registering an existing
// entry point with an embedding the stored record lacks must make the
// workflow semantically searchable rather than silently dropping it.
func TestWorkflowReRegistrationAdoptsEmbedding(t *testing.T) {
	s := NewStore()
	u := newUser(t, s, "zz46")
	// Registered by an embedding-less client: invisible to semantic search.
	if _, err := s.AddWorkflow(u.UserID, core.AddWorkflowRequest{
		EntryPoint: "legacy", WorkflowCode: "WF",
	}); err != nil {
		t.Fatal(err)
	}
	if hits := wfsByDesc(s, u.UserID, []float32{1, 0}, 10); len(hits) != 0 {
		t.Fatalf("embedding-less workflow searchable: %+v", hits)
	}
	// Same entry point re-registered by a newer client carrying one.
	wf, err := s.AddWorkflow(u.UserID, core.AddWorkflowRequest{
		EntryPoint: "legacy", WorkflowCode: "WF", DescEmbedding: []float32{1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	hits := wfsByDesc(s, u.UserID, []float32{1, 0}, 10)
	if len(hits) != 1 || hits[0].ID != wf.WorkflowID {
		t.Fatalf("adopted embedding not indexed: %+v", hits)
	}
}

// TestSemanticSearchBothSingleRoundTrip: the combined search must return
// the score-merge of the two kinds while paying the simulated WAN latency
// once, not once per index.
func TestSemanticSearchBothSingleRoundTrip(t *testing.T) {
	s := NewStore()
	u := newUser(t, s, "zz46")
	addEmbeddedPE(t, s, u.UserID, "A", "alpha", []float32{1, 0})
	addEmbeddedPE(t, s, u.UserID, "B", "beta", []float32{0, 1})
	addEmbeddedWorkflow(t, s, u.UserID, "wfA", []float32{0.9, 0.1})

	query := []float32{1, 0}
	want := search.MergeRanked(
		pesByDesc(s, u.UserID, query, 10),
		wfsByDesc(s, u.UserID, query, 10), 10)
	got := s.SemanticSearchBoth(u.UserID, query, 10)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SemanticSearchBoth diverged from merged parts:\n got %+v\nwant %+v", got, want)
	}

	before := s.WANHops()
	s.SemanticSearchBoth(u.UserID, query, 10)
	if hops := s.WANHops() - before; hops != 1 {
		t.Fatalf("SemanticSearchBoth made %d WAN round trips, want 1", hops)
	}
}

func TestConfigureIndexPreservesResults(t *testing.T) {
	s := NewStore()
	u := newUser(t, s, "zz46")
	// 100 PEs: above the clustered index's training threshold, so the
	// reconfigured index really shards and probes instead of brute-scanning.
	for i := 0; i < 100; i++ {
		angle := float64(i) / 100
		addEmbeddedPE(t, s, u.UserID, fmt.Sprintf("PE%d", i), "pe",
			[]float32{float32(1 - angle), float32(angle)})
	}
	query := []float32{0.7, 0.3}
	flatHits := pesByDesc(s, u.UserID, query, 10)
	s.ConfigureIndex(func() index.VectorIndex {
		return index.NewClustered(index.ClusteredConfig{Centroids: 4, NProbe: 4})
	})
	if s.IndexName() != "clustered" {
		t.Fatalf("index name: %s", s.IndexName())
	}
	clusHits := pesByDesc(s, u.UserID, query, 10)
	if !reflect.DeepEqual(flatHits, clusHits) {
		t.Fatalf("full-probe clustered diverged from flat:\n flat %+v\n clus %+v", flatHits, clusHits)
	}
}

// ---- index persistence ----

func clusteredFactory() index.Factory {
	return func() index.VectorIndex {
		return index.NewClustered(index.ClusteredConfig{Centroids: 8, NProbe: 3})
	}
}

// circleVec is a deterministic unit-vector family for persistence tests.
func circleVec(i, n int) []float32 {
	angle := 2 * math.Pi * float64(i) / float64(n)
	return []float32{float32(0.8 * math.Cos(angle)), float32(0.8 * math.Sin(angle)), 0.6}
}

// populate fills a store with n embedded PEs and n/2 embedded workflows.
func populate(t *testing.T, s *Store, n int) *core.UserRecord {
	t.Helper()
	u := newUser(t, s, "zz46")
	for i := 0; i < n; i++ {
		addEmbeddedPE(t, s, u.UserID, fmt.Sprintf("PE%03d", i), "pe", circleVec(i, n))
	}
	for i := 0; i < n/2; i++ {
		addEmbeddedWorkflow(t, s, u.UserID, fmt.Sprintf("wf%03d", i), circleVec(i, n/2))
	}
	return u
}

// TestSaveLoadRestoresClusteredWithoutRetrain is the restart guarantee: a
// clustered deployment saves its trained structure and a fresh process
// restores it byte-identically to serving state — same limited-probe search
// results — with zero k-means retrains.
func TestSaveLoadRestoresClusteredWithoutRetrain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.json")
	s := NewStore()
	s.ConfigureIndex(clusteredFactory())
	u := populate(t, s, 200)
	s.WaitIndexReady()
	query := []float32{0.7, 0.3, 0.1}
	wantPE := pesByDesc(s, u.UserID, query, 10)
	wantCode := s.CompletionSearch(u.UserID, query, 10)
	wantWF := wfsByDesc(s, u.UserID, query, 10)
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}

	fresh := NewStore()
	fresh.ConfigureIndex(clusteredFactory())
	if err := fresh.Load(path); err != nil {
		t.Fatal(err)
	}
	if !fresh.IndexesRestored() {
		t.Fatal("indexes were rebuilt, not restored from snapshot")
	}
	for name, idx := range map[string]index.VectorIndex{
		"desc": fresh.descIndex, "code": fresh.codeIndex, "workflow": fresh.wfIndex,
	} {
		c, ok := idx.(*index.Clustered)
		if !ok {
			t.Fatalf("%s index is %T, want clustered", name, idx)
		}
		if c.Retrains() != 0 {
			t.Fatalf("%s index retrained %d times on restore, want 0", name, c.Retrains())
		}
	}
	if got := pesByDesc(fresh, u.UserID, query, 10); !reflect.DeepEqual(got, wantPE) {
		t.Fatalf("restored PE search diverged:\n got %+v\nwant %+v", got, wantPE)
	}
	if got := fresh.CompletionSearch(u.UserID, query, 10); !reflect.DeepEqual(got, wantCode) {
		t.Fatalf("restored code search diverged:\n got %+v\nwant %+v", got, wantCode)
	}
	if got := wfsByDesc(fresh, u.UserID, query, 10); !reflect.DeepEqual(got, wantWF) {
		t.Fatalf("restored workflow search diverged:\n got %+v\nwant %+v", got, wantWF)
	}
}

// TestConfigureIndexAfterLoadRestores covers the façade's order of
// operations when the kinds differ at load time: Load under the default
// flat factory (clustered snapshot rejected, flat rebuild), then
// ConfigureIndex(clustered) restores from the stashed snapshots instead of
// retraining.
func TestConfigureIndexAfterLoadRestores(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.json")
	s := NewStore()
	s.ConfigureIndex(clusteredFactory())
	u := populate(t, s, 150)
	s.WaitIndexReady()
	query := []float32{0.2, -0.9, 0.4}
	want := pesByDesc(s, u.UserID, query, 10)
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}

	fresh := NewStore() // flat factory
	if err := fresh.Load(path); err != nil {
		t.Fatal(err)
	}
	if fresh.IndexesRestored() {
		t.Fatal("clustered snapshot restored into a flat index")
	}
	fresh.ConfigureIndex(clusteredFactory())
	if !fresh.IndexesRestored() {
		t.Fatal("ConfigureIndex after Load rebuilt instead of restoring")
	}
	if c := fresh.descIndex.(*index.Clustered); c.Retrains() != 0 {
		t.Fatalf("restore retrained %d times", c.Retrains())
	}
	if got := pesByDesc(fresh, u.UserID, query, 10); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored search diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestLoadFlatRestoreSkipsRebuild: with the default flat factory a clean
// snapshot restores directly — Load no longer unconditionally rebuilds.
func TestLoadFlatRestoreSkipsRebuild(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.json")
	s := NewStore()
	u := populate(t, s, 20)
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	fresh := NewStore()
	if err := fresh.Load(path); err != nil {
		t.Fatal(err)
	}
	if !fresh.IndexesRestored() {
		t.Fatal("flat snapshot did not restore cleanly")
	}
	query := []float32{1, 0, 0}
	if got, want := pesByDesc(fresh, u.UserID, query, 5), pesByDesc(s, u.UserID, query, 5); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored flat search diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestLoadStaleSnapshotFallsBackToRebuild: records edited behind the
// snapshot's back fail the checksum and trigger a full rebuild — queries
// then reflect the *edited* records, never the stale structure.
func TestLoadStaleSnapshotFallsBackToRebuild(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.json")
	s := NewStore()
	s.ConfigureIndex(clusteredFactory())
	u := populate(t, s, 100)
	s.WaitIndexReady()
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}

	// Edit one embedding behind the index snapshot's back: load the raw
	// snapshot, swap a vector, and write it back with the original (now
	// stale) index structure still attached. The storage layer re-checksums
	// its own sections, so the file is internally consistent — only the
	// index-to-records binding is stale, which is exactly what the restore
	// path must catch.
	snap, _, err := storage.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	editedID := snap.PEs[0].PEID
	snap.PEDescVecs[editedID] = []float32{0, 0, 1}
	if err := storage.Save(path, snap); err != nil {
		t.Fatal(err)
	}

	fresh := NewStore()
	fresh.ConfigureIndex(clusteredFactory())
	if err := fresh.Load(path); err != nil {
		t.Fatal(err)
	}
	if fresh.IndexesRestored() {
		t.Fatal("stale snapshot restored despite checksum mismatch")
	}
	fresh.WaitIndexReady()
	// The rebuilt index serves the edited embedding.
	hits := pesByDesc(fresh, u.UserID, []float32{0, 0, 1}, 1)
	if len(hits) != 1 || hits[0].ID != editedID {
		t.Fatalf("rebuild did not pick up edited records: %+v", hits)
	}
}

// TestV1ToV2MigrationRoundTrip is the serving-layer migration guarantee:
// a registry file in the legacy v1 format — storage/testdata/v1/registry.json,
// the bytes a clustered deployment of populate(200) wrote before the v1
// writer was deleted — loads into a fresh store with its trained indexes
// restored from the embedded snapshots (zero retrains), and the next Save
// or SaveDelta migrates it to the layered format without losing a record
// or a search result.
func TestV1ToV2MigrationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	v1Path := filepath.Join(dir, "legacy.json")
	golden, err := os.ReadFile(filepath.Join("storage", "testdata", "v1", "registry.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v1Path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	if f, err := storage.DetectFormat(v1Path); err != nil || f != storage.FormatV1 {
		t.Fatalf("golden file format: %v (%v)", f, err)
	}
	// What the file must serve is stated independently of it: the same
	// corpus in an exact index. The query's top 10 sit well inside the 3
	// shards the restored clustering probes, so exact is also what the
	// restored approximate index must answer.
	s := NewStore()
	u := populate(t, s, 200)
	query := []float32{0.6, -0.4, 0.2}
	wantPE := pesByDesc(s, u.UserID, query, 10)
	wantWF := wfsByDesc(s, u.UserID, query, 10)

	// Load the v1 file: lossless, indexes restored with zero k-means.
	mid := NewStore()
	mid.ConfigureIndex(clusteredFactory())
	if err := mid.Load(v1Path); err != nil {
		t.Fatal(err)
	}
	if !mid.IndexesRestored() {
		t.Fatal("v1 load rebuilt instead of restoring")
	}
	if c := mid.descIndex.(*index.Clustered); c.Retrains() != 0 {
		t.Fatalf("v1 load retrained %d times", c.Retrains())
	}
	if got := pesByDesc(mid, u.UserID, query, 10); !reflect.DeepEqual(got, wantPE) {
		t.Fatalf("v1 load diverged:\n got %+v\nwant %+v", got, wantPE)
	}

	// A v1 file cannot anchor a journal, so the first incremental save
	// after loading one is a full v2 base; the journal starts after it.
	if err := mid.SaveDelta(v1Path); err != nil {
		t.Fatal(err)
	}
	if f, err := storage.DetectFormat(v1Path); err != nil || f != storage.FormatV2 {
		t.Fatalf("SaveDelta over a v1 file left format %v (%v)", f, err)
	}
	if segs, _ := mid.DeltaChainInfo(); segs != 0 {
		t.Fatalf("SaveDelta over a v1 file journaled %d segments before writing a base", segs)
	}
	addEmbeddedPE(t, mid, u.UserID, "journaled", "pe", []float32{0, 0, 1})
	if err := mid.SaveDelta(v1Path); err != nil {
		t.Fatal(err)
	}
	if segs, _ := mid.DeltaChainInfo(); segs != 1 {
		t.Fatalf("second SaveDelta journaled %d segments, want 1", segs)
	}
	if err := mid.RemovePEByName(u.UserID, "journaled"); err != nil {
		t.Fatal(err)
	}

	// A full Save of the same store elsewhere is a v2 pair too.
	v2Path := filepath.Join(dir, "migrated.json")
	if err := mid.Save(v2Path); err != nil {
		t.Fatal(err)
	}
	if f, err := storage.DetectFormat(v2Path); err != nil || f != storage.FormatV2 {
		t.Fatalf("migrated file format: %v (%v)", f, err)
	}
	fresh := NewStore()
	fresh.ConfigureIndex(clusteredFactory())
	if err := fresh.Load(v2Path); err != nil {
		t.Fatal(err)
	}
	if !fresh.IndexesRestored() {
		t.Fatal("migrated v2 load rebuilt instead of restoring")
	}
	if c := fresh.descIndex.(*index.Clustered); c.Retrains() != 0 {
		t.Fatalf("migrated load retrained %d times", c.Retrains())
	}
	if got := len(fresh.PEsForUser(u.UserID)); got != 200 {
		t.Fatalf("records lost in migration: %d PEs", got)
	}
	if got := pesByDesc(fresh, u.UserID, query, 10); !reflect.DeepEqual(got, wantPE) {
		t.Fatalf("migrated PE search diverged:\n got %+v\nwant %+v", got, wantPE)
	}
	if got := wfsByDesc(fresh, u.UserID, query, 10); !reflect.DeepEqual(got, wantWF) {
		t.Fatalf("migrated workflow search diverged:\n got %+v\nwant %+v", got, wantWF)
	}
	// Credentials and counters survive the format hop.
	if _, _, err := fresh.Login("zz46", "pw-zz46"); err != nil {
		t.Fatalf("login after migration: %v", err)
	}
	// (201 went to the journaled PE above.)
	pe, err := fresh.AddPE(u.UserID, core.AddPERequest{PEName: "post-migration", PECode: "c"})
	if err != nil || pe.PEID != 202 {
		t.Fatalf("id counter after migration: %+v %v", pe, err)
	}
}
