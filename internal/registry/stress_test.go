package registry

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"laminar/internal/core"
)

// TestStressConcurrentMutateSearchSave hammers the sharded store from four
// directions at once — PE registrations, removals, semantic searches, and
// full Saves — and then checks the survivors are intact. Run under
// `make race` this is the package's data-race canary for the per-domain
// locking; the assertions at the end catch lost updates.
func TestStressConcurrentMutateSearchSave(t *testing.T) {
	s := NewStore()
	s.ConfigureIndex(clusteredFactory())
	u := newUser(t, s, "zz46")
	dir := t.TempDir()

	// A settled base corpus so searches have something to rank while the
	// churn runs.
	const base = 64
	for i := 0; i < base; i++ {
		addEmbeddedPE(t, s, u.UserID, fmt.Sprintf("base%03d", i), "pe", circleVec(i, base))
	}

	const (
		workers = 4
		perW    = 60
	)
	var bounded, searchers sync.WaitGroup
	var stop atomic.Bool

	// Mutators: register churn PEs, then remove the even-indexed ones again.
	for w := 0; w < workers; w++ {
		bounded.Add(1)
		go func() {
			defer bounded.Done()
			for i := 0; i < perW; i++ {
				name := fmt.Sprintf("churn-%d-%d", w, i)
				pe, err := s.AddPE(u.UserID, core.AddPERequest{
					PEName: name, PECode: "code",
					DescEmbedding: circleVec(w*perW+i, workers*perW),
					CodeEmbedding: circleVec(w*perW+i, workers*perW),
				})
				if err != nil {
					t.Errorf("AddPE: %v", err)
					return
				}
				if i%2 == 0 {
					if err := s.RemovePE(u.UserID, pe.PEID); err != nil {
						t.Errorf("RemovePE: %v", err)
						return
					}
				}
			}
		}()
	}
	// Searchers: all three query kinds, continuously until the writers are
	// done.
	for w := 0; w < workers; w++ {
		searchers.Add(1)
		go func() {
			defer searchers.Done()
			for i := 0; !stop.Load(); i++ {
				q := circleVec(i%97, 97)
				pesByDesc(s, u.UserID, q, 5)
				s.CompletionSearch(u.UserID, q, 5)
				s.SemanticSearchBoth(u.UserID, q, 5)
			}
		}()
	}
	// Saver: full snapshots while the corpus is moving.
	bounded.Add(1)
	go func() {
		defer bounded.Done()
		for i := 0; i < 6; i++ {
			path := filepath.Join(dir, fmt.Sprintf("reg-%d.json", i))
			if err := s.Save(path); err != nil {
				t.Errorf("Save: %v", err)
				return
			}
		}
	}()
	// Workflow churn rides along so the wfs shard sees writes too.
	bounded.Add(1)
	go func() {
		defer bounded.Done()
		for i := 0; i < 40; i++ {
			wf, err := s.AddWorkflow(u.UserID, core.AddWorkflowRequest{
				EntryPoint: fmt.Sprintf("wf-%d", i), WorkflowCode: "wf",
				DescEmbedding: circleVec(i, 40),
			})
			if err != nil {
				t.Errorf("AddWorkflow: %v", err)
				return
			}
			if i%2 == 0 {
				if err := s.RemoveWorkflow(u.UserID, wf.WorkflowID); err != nil {
					t.Errorf("RemoveWorkflow: %v", err)
					return
				}
			}
		}
	}()

	bounded.Wait()
	stop.Store(true)
	searchers.Wait()
	if t.Failed() {
		return
	}

	// Survivor accounting: base PEs plus the odd-indexed churn PEs.
	wantPEs := base + workers*perW/2
	if got := len(s.PEsForUser(u.UserID)); got != wantPEs {
		t.Fatalf("surviving PEs: %d, want %d", got, wantPEs)
	}
	if got := len(s.WorkflowsForUser(u.UserID)); got != 20 {
		t.Fatalf("surviving workflows: %d, want 20", got)
	}
	// The store still round-trips losslessly after the storm.
	s.WaitIndexReady()
	path := filepath.Join(dir, "final.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	fresh := NewStore()
	fresh.ConfigureIndex(clusteredFactory())
	if err := fresh.Load(path); err != nil {
		t.Fatal(err)
	}
	if !fresh.IndexesRestored() {
		t.Fatal("settled save did not restore on load")
	}
	q := circleVec(7, 97)
	if got, want := pesByDesc(fresh, u.UserID, q, 10), pesByDesc(s, u.UserID, q, 10); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-stress round trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestConcurrentSaveSamePath: overlapping Saves to one path must leave a
// loadable pair behind. Before Save was serialized per store, two
// interleaved v2 installs could each sweep the sidecar the other's JSON
// referenced, wedging the next Load.
func TestConcurrentSaveSamePath(t *testing.T) {
	s := NewStore()
	u := newUser(t, s, "zz46")
	for i := 0; i < 32; i++ {
		addEmbeddedPE(t, s, u.UserID, fmt.Sprintf("pe%02d", i), "pe", circleVec(i, 32))
	}
	path := filepath.Join(t.TempDir(), "reg.json")
	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := s.Save(path); err != nil {
					t.Errorf("Save: %v", err)
				}
			}()
		}
		wg.Wait()
		fresh := NewStore()
		if err := fresh.Load(path); err != nil {
			t.Fatalf("round %d: load after concurrent saves: %v", round, err)
		}
		if got := len(fresh.PEsForUser(u.UserID)); got != 32 {
			t.Fatalf("round %d: %d PEs after reload", round, got)
		}
	}
}
