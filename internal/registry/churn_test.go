package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"laminar/internal/core"
)

// The churn wall: randomized add/remove/replace/search/save interleavings,
// asserting that a store reloaded through the base + delta-journal chain is
// byte-for-byte identical to one reloaded from a monolithic full save of
// the same live state. Run under -race it doubles as a locking audit of the
// dirty-tracking and journal paths.

// recordBytes serializes a store's record state deterministically (records
// by id; encoding/json sorts the map keys). Trained index structure and
// lexical postings are stripped: a restore and a replay legitimately build
// different internal shapes over the same records, and search equivalence
// is asserted separately.
func recordBytes(t *testing.T, s *Store) []byte {
	t.Helper()
	snap, _ := s.collectSnapshot()
	snap.Indexes = nil
	snap.Lexical = nil
	sort.Slice(snap.Users, func(i, j int) bool { return snap.Users[i].UserID < snap.Users[j].UserID })
	sort.Slice(snap.PEs, func(i, j int) bool { return snap.PEs[i].PEID < snap.PEs[j].PEID })
	sort.Slice(snap.Workflows, func(i, j int) bool { return snap.Workflows[i].WorkflowID < snap.Workflows[j].WorkflowID })
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func churnVec(rng *rand.Rand) []float32 {
	return []float32{rng.Float32(), rng.Float32(), rng.Float32()}
}

func TestChurnWallDeltaReloadMatchesFullSave(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			dir := t.TempDir()
			path := filepath.Join(dir, "reg.json")
			s := NewStore()
			// Long chains are the interesting case; keep compaction out of
			// the way except in the trial that provokes it.
			s.SetDeltaPolicy(DeltaPolicy{MaxSegments: 500, CompactRatio: 0.95})
			u := newUser(t, s, "ann")
			for i := 0; i < 12; i++ {
				addPE(t, s, u.UserID, fmt.Sprintf("Seed%02d", i))
			}
			if err := s.Save(path); err != nil {
				t.Fatal(err)
			}

			names := func() []string {
				var out []string
				for _, pe := range s.PEsForUser(u.UserID) {
					out = append(out, pe.PEName)
				}
				return out
			}
			nextWF := 0
			for op := 0; op < 120; op++ {
				switch rng.Intn(10) {
				case 0, 1, 2: // new or replacing registration
					name := fmt.Sprintf("Churn%02d", rng.Intn(20))
					_, _, err := s.UpsertPE(u.UserID, core.AddPERequest{
						PEName: name, Description: "d " + name,
						PECode:        fmt.Sprintf("code-op%d", op),
						DescEmbedding: churnVec(rng), CodeEmbedding: churnVec(rng),
					})
					if err != nil {
						t.Fatalf("op %d upsert: %v", op, err)
					}
				case 3: // removal
					if ns := names(); len(ns) > 1 {
						if err := s.RemovePEByName(u.UserID, ns[rng.Intn(len(ns))]); err != nil {
							t.Fatalf("op %d remove: %v", op, err)
						}
					}
				case 4: // workflows churn too
					nextWF++
					if _, err := s.AddWorkflow(u.UserID, core.AddWorkflowRequest{
						WorkflowName: fmt.Sprintf("wf%03d", nextWF), EntryPoint: "run",
						WorkflowCode: "code", DescEmbedding: churnVec(rng),
					}); err != nil {
						t.Fatalf("op %d workflow: %v", op, err)
					}
				case 5: // concurrent-feeling reads between mutations
					pesByDesc(s, u.UserID, churnVec(rng), 5)
				case 6, 7: // delta save mid-stream
					if err := s.SaveDelta(path); err != nil {
						t.Fatalf("op %d delta save: %v", op, err)
					}
				case 8: // retrain: moves the generation, must not corrupt state
					s.RetrainIndexes()
				case 9: // occasional full save re-anchors the journal
					if trial%2 == 0 {
						if err := s.Save(path); err != nil {
							t.Fatalf("op %d full save: %v", op, err)
						}
					}
				}
			}
			if err := s.SaveDelta(path); err != nil {
				t.Fatal(err)
			}

			// Ground truth: a monolithic save of the same live state.
			fullPath := filepath.Join(dir, "full.json")
			if err := s.Save(fullPath); err != nil {
				t.Fatal(err)
			}

			viaDeltas := NewStore()
			if err := viaDeltas.Load(path); err != nil {
				t.Fatalf("load via delta chain: %v", err)
			}
			viaFull := NewStore()
			if err := viaFull.Load(fullPath); err != nil {
				t.Fatalf("load via full save: %v", err)
			}

			got := recordBytes(t, viaDeltas)
			want := recordBytes(t, viaFull)
			if !bytes.Equal(got, want) {
				t.Fatalf("delta-chain reload diverged from full-save reload (%d vs %d bytes)", len(got), len(want))
			}

			// Search equivalence over the reloaded stores: same records must
			// answer the same queries identically (flat index, exact scan).
			for q := 0; q < 10; q++ {
				vec := churnVec(rng)
				a := pesByDesc(viaDeltas, u.UserID, vec, 5)
				b := pesByDesc(viaFull, u.UserID, vec, 5)
				if len(a) != len(b) {
					t.Fatalf("query %d: %d vs %d hits", q, len(a), len(b))
				}
				for i := range a {
					if a[i].ID != b[i].ID || a[i].Score != b[i].Score {
						t.Fatalf("query %d hit %d diverged: %+v vs %+v", q, i, a[i], b[i])
					}
				}
			}
		})
	}
}

// TestChurnCompactionThreshold drives the journal past its segment budget
// and checks the save path compacts into a fresh base instead of growing
// the chain without bound.
func TestChurnCompactionThreshold(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "reg.json")
	s := NewStore()
	s.SetDeltaPolicy(DeltaPolicy{MaxSegments: 3, CompactRatio: 0.95})
	u := newUser(t, s, "ann")
	for i := 0; i < 40; i++ {
		addPE(t, s, u.UserID, fmt.Sprintf("Seed%02d", i))
	}
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	maxSeen := uint64(0)
	for i := 0; i < 12; i++ {
		if _, _, err := s.UpsertPE(u.UserID, core.AddPERequest{
			PEName: "Hot", PECode: fmt.Sprintf("v%d", i),
			DescEmbedding: []float32{1, 0, 0}, CodeEmbedding: []float32{0, 1, 0},
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.SaveDelta(path); err != nil {
			t.Fatal(err)
		}
		if segs, _ := s.DeltaChainInfo(); segs > maxSeen {
			maxSeen = segs
		}
	}
	if maxSeen < 3 {
		t.Fatalf("journal never grew (max %d segments) — thresholds too eager for the test", maxSeen)
	}
	if segs, _ := s.DeltaChainInfo(); segs > 3 {
		t.Fatalf("chain at %d segments, policy caps at 3", segs)
	}
	// The compacted state still reloads losslessly.
	s2 := NewStore()
	if err := s2.Load(path); err != nil {
		t.Fatal(err)
	}
	pe, err := s2.PEByName(u.UserID, "Hot")
	if err != nil || pe.PECode != "v11" {
		t.Fatalf("hot record after compaction = %+v, %v", pe, err)
	}
}

// TestEpochMovesOnReplicaTransitions pins the cache-invalidation contract
// for every transition that changes what a search may return without
// touching a record: restore (Load), read-only flips, index swaps.
func TestEpochMovesOnReplicaTransitions(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "reg.json")
	seed := NewStore()
	u := newUser(t, seed, "ann")
	addPE(t, seed, u.UserID, "Alpha")
	if err := seed.Save(path); err != nil {
		t.Fatal(err)
	}

	s := NewStore()
	mark := s.Epoch()
	step := func(what string, fn func()) {
		t.Helper()
		fn()
		if now := s.Epoch(); now == mark {
			t.Fatalf("%s did not move the epoch", what)
		} else {
			mark = now
		}
	}
	step("Load (replica restore)", func() {
		if err := s.Load(path); err != nil {
			t.Fatal(err)
		}
	})
	step("SetReadOnly(true)", func() { s.SetReadOnly(true) })
	step("SetReadOnly(false)", func() { s.SetReadOnly(false) })
	step("mutation", func() { addPE(t, s, u.UserID, "Beta") })
	// Same-value flips are not transitions and must not thrash caches.
	s.SetReadOnly(false)
	if s.Epoch() != mark {
		t.Fatal("no-op read-only set bumped the epoch")
	}
}
