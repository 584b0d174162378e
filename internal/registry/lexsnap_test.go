package registry

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"laminar/internal/codec"
	"laminar/internal/core"
	"laminar/internal/lexical"
	"laminar/internal/registry/storage"
	"laminar/internal/search"
)

// The lexical snapshot wall: a snapshot entry is bound to the record
// fields its document is derived from (version 2), so a cold load restores
// without inflating one code envelope, and anything that could make the
// restored postings differ from re-tokenized ones refuses the restore.

// lexWallStore registers PEs whose code is a real codec envelope — the
// identifier gate_NNNN exists only inside the compressed source — and
// workflows, all with embeddings, and saves the store.
func lexWallStore(t *testing.T) (s *Store, u *core.UserRecord, path string) {
	t.Helper()
	s = NewStore()
	u = newUser(t, s, "wall")
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("photonFilter%02d", i)
		desc := fmt.Sprintf("filters photon events above threshold %d", i)
		addLexPE(t, s, u.UserID, name, desc, lexWallEnvelope(t, name, fmt.Sprintf("gate_%04d", i)))
	}
	for i := 0; i < 4; i++ {
		desc := fmt.Sprintf("counts words of stream %d", i)
		if _, err := s.AddWorkflow(u.UserID, core.AddWorkflowRequest{
			WorkflowName:  fmt.Sprintf("wordCount%02d", i),
			EntryPoint:    fmt.Sprintf("count_entry_%02d", i),
			Description:   desc,
			WorkflowCode:  "graph",
			DescEmbedding: search.EmbedDescription(desc),
		}); err != nil {
			t.Fatal(err)
		}
	}
	path = filepath.Join(t.TempDir(), "registry.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	return s, u, path
}

func lexWallEnvelope(t *testing.T, name, ident string) string {
	t.Helper()
	enc, err := codec.Encode(codec.Envelope{
		Kind:   codec.KindPE,
		Name:   name,
		Source: "class " + name + "(IterativePE):\n    def _process(self, x):\n        return " + ident + "(x)\n",
	})
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func loadedStore(t *testing.T, path string) *Store {
	t.Helper()
	s := NewStore()
	if err := s.Load(path); err != nil {
		t.Fatal(err)
	}
	return s
}

// restoreOnDisk reports whether the lexical sections stored at path would
// restore against the records stored beside them.
func restoreOnDisk(t *testing.T, path string) error {
	t.Helper()
	snap, _, err := storage.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Lexical == nil {
		return fmt.Errorf("no lexical sections")
	}
	peSums, wfSums := map[int]uint64{}, map[int]uint64{}
	for i := range snap.PEs {
		peSums[snap.PEs[i].PEID] = peLexSum(&snap.PEs[i])
	}
	for i := range snap.Workflows {
		wfSums[snap.Workflows[i].WorkflowID] = wfLexSum(&snap.Workflows[i])
	}
	if err := lexical.New().Restore(snap.Lexical.PE, peSums); err != nil {
		return err
	}
	return lexical.New().Restore(snap.Lexical.Workflow, wfSums)
}

// assertSameRetrieval holds two stores to the same lexical statistics and
// the same hybrid and reranked hits, for PEs, workflows and both.
func assertSameRetrieval(t *testing.T, got, want *Store, userID int) {
	t.Helper()
	gd, gt := got.LexicalStats()
	wd, wt := want.LexicalStats()
	if gd != wd || gt != wt {
		t.Fatalf("LexicalStats = %d docs, %d terms; want %d, %d", gd, gt, wd, wt)
	}
	for _, text := range []string{"gate_0007", "photon events threshold 3", "photonFilter05", "count_entry_02", "counts words of stream 1"} {
		for _, typ := range []core.SearchType{core.SearchPEs, core.SearchWorkflows, core.SearchBoth} {
			for _, rerank := range []bool{false, true} {
				q := HybridQuery{Text: text, Embedding: search.EmbedDescription(text), Type: typ, Limit: 5, Rerank: rerank}
				if a, b := got.HybridSearch(userID, q), want.HybridSearch(userID, q); !reflect.DeepEqual(a, b) {
					t.Fatalf("query %q type %v rerank %v:\n got %+v\nwant %+v", text, typ, rerank, a, b)
				}
			}
		}
	}
}

func TestLexicalSnapshotRestoreEqualsRebuild(t *testing.T) {
	live, u, path := lexWallStore(t)
	if err := restoreOnDisk(t, path); err != nil {
		t.Fatalf("a fresh save does not restore: %v", err)
	}
	restored := loadedStore(t, path)

	// The same snapshot without its lexical sections: the load rebuilds.
	snap, _, err := storage.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	snap.Lexical = nil
	bare := filepath.Join(t.TempDir(), "bare.json")
	if err := storage.Save(bare, snap); err != nil {
		t.Fatal(err)
	}
	rebuilt := loadedStore(t, bare)

	assertSameRetrieval(t, restored, rebuilt, u.UserID)
	assertSameRetrieval(t, restored, live, u.UserID)
	// The envelope-only identifier resolves after a restore that never
	// opened an envelope: the postings came from the snapshot.
	hits := restored.HybridSearch(u.UserID, HybridQuery{Text: "gate_0007", Type: core.SearchPEs, Limit: 1})
	if len(hits) != 1 || hits[0].Name != "photonFilter07" {
		t.Fatalf("envelope identifier lost across restore: %+v", hits)
	}
}

func TestLexicalSnapshotRefusesChangedSource(t *testing.T) {
	_, u, path := lexWallStore(t)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	oldEnvelope := lexWallEnvelope(t, "photonFilter03", "gate_0003")
	for _, tc := range []struct {
		field, old, new string
		query           string
		typ             core.SearchType
		wantID          int // photonFilter03 is PE 4, wordCount02 workflow 3
	}{
		{"PE name", `"peName":"photonFilter03"`, `"peName":"quasarFilter03"`, "quasar", core.SearchPEs, 4},
		{"PE description", `"description":"filters photon events above threshold 3"`, `"description":"filters neutrino events above threshold 3"`, "neutrino", core.SearchPEs, 4},
		{"PE code envelope", oldEnvelope, lexWallEnvelope(t, "photonFilter03", "sluice_0003"), "sluice_0003", core.SearchPEs, 4},
		{"workflow name", `"workflowName":"wordCount02"`, `"workflowName":"glyphCount02"`, "glyph", core.SearchWorkflows, 3},
		{"workflow entry point", `"entryPoint":"count_entry_02"`, `"entryPoint":"tally_entry_02"`, "tally", core.SearchWorkflows, 3},
		{"workflow description", `"description":"counts words of stream 2"`, `"description":"counts lemmas of stream 2"`, "lemmas", core.SearchWorkflows, 3},
	} {
		t.Run(tc.field, func(t *testing.T) {
			if bytes.Count(pristine, []byte(tc.old)) != 1 {
				t.Fatalf("%q does not occur exactly once in the saved JSON", tc.old)
			}
			if err := os.WriteFile(path, bytes.Replace(pristine, []byte(tc.old), []byte(tc.new), 1), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := restoreOnDisk(t, path); err == nil {
				t.Fatal("Restore accepted a snapshot whose source field changed")
			}
			// The load falls back to a rebuild: only re-tokenized postings
			// can hold a term the snapshot never saw.
			s := loadedStore(t, path)
			hits := s.HybridSearch(u.UserID, HybridQuery{Text: tc.query, Type: tc.typ, Limit: 1})
			if len(hits) != 1 || hits[0].ID != tc.wantID {
				t.Fatalf("query %q after the change: %+v, want id %d", tc.query, hits, tc.wantID)
			}
			if docs, _ := s.LexicalStats(); docs != 16 {
				t.Fatalf("rebuild indexed %d documents, want 16", docs)
			}
		})
	}
}

func TestLexicalSnapshotV1SectionRebuildsThenRewrites(t *testing.T) {
	live, u, path := lexWallStore(t)
	retagLexSections(t, path, 1)
	if snap, _, err := storage.Load(path); err != nil {
		t.Fatalf("a v1 lexical section failed the load: %v", err)
	} else if snap.Lexical != nil {
		t.Fatal("a v1 lexical section was decoded; it must read as an unknown version")
	}
	s := loadedStore(t, path)
	assertSameRetrieval(t, s, live, u.UserID)
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := restoreOnDisk(t, path); err != nil {
		t.Fatalf("the save after a v1 load did not write restorable v2 sections: %v", err)
	}
}

// retagLexSections rewrites the version word of both lexical sections in
// the sidecar of the v2 snapshot at path, then repairs what binds the
// pair: the sections' checksums in the footer and the pairing checksum in
// the JSON header. Version 1 had version 2's layout, so a retagged section
// is byte for byte what the previous release wrote.
func retagLexSections(t *testing.T, path string, version uint32) {
	t.Helper()
	le := binary.LittleEndian
	vecs, err := filepath.Glob(path + "-*.vec")
	if err != nil || len(vecs) != 1 {
		t.Fatalf("sidecars of %s: %v, %v", path, vecs, err)
	}
	raw, err := os.ReadFile(vecs[0])
	if err != nil {
		t.Fatal(err)
	}
	// trailer: u64 footerOffset | "LMSE"; footer: u32 count, then per
	// section u16 nameLen, name, u64 offset, u64 length, u64 fnv1a64.
	at := int(le.Uint64(raw[len(raw)-12:]))
	count := int(le.Uint32(raw[at:]))
	at += 4
	pairing := func() string {
		h := fnv.New64a()
		p := int(le.Uint64(raw[len(raw)-12:])) + 4
		for i := 0; i < count; i++ {
			n := int(le.Uint16(raw[p:]))
			h.Write(raw[p+2 : p+2+n+24])
			p += 2 + n + 24
		}
		return fmt.Sprintf("fnv1a64:%016x", h.Sum64())
	}
	before := pairing()
	retagged := 0
	for i := 0; i < count; i++ {
		n := int(le.Uint16(raw[at:]))
		name := string(raw[at+2 : at+2+n])
		nums := raw[at+2+n : at+2+n+24]
		if name == "lex-pe" || name == "lex-wf" {
			off, length := le.Uint64(nums), le.Uint64(nums[8:])
			le.PutUint32(raw[off:], version)
			h := fnv.New64a()
			h.Write(raw[off : off+length])
			le.PutUint64(nums[16:], h.Sum64())
			retagged++
		}
		at += 2 + n + 24
	}
	if retagged != 2 {
		t.Fatalf("retagged %d lexical sections, want 2", retagged)
	}
	if err := os.WriteFile(vecs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(doc, []byte(before)) != 1 {
		t.Fatalf("pairing checksum %s not found once in %s", before, path)
	}
	if err := os.WriteFile(path, bytes.Replace(doc, []byte(before), []byte(pairing()), 1), 0o644); err != nil {
		t.Fatal(err)
	}
}
