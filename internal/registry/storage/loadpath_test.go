package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"laminar/internal/index"
	"laminar/internal/lexical"
)

// lexicalTestSnapshot is testSnapshot plus lexical snapshots whose PE
// documents hold thousands of distinct terms between them — the shape that
// makes a field-at-a-time decoder expensive.
func lexicalTestSnapshot(t *testing.T, n int) *Snapshot {
	t.Helper()
	snap := testSnapshot(t, n)
	peLex, wfLex := lexical.New(), lexical.New()
	for _, pe := range snap.PEs {
		var doc strings.Builder
		for k := 0; k < 40; k++ {
			fmt.Fprintf(&doc, "term%dx%d shared%d ", pe.PEID, k, k)
		}
		peLex.Upsert(pe.PEID, doc.String())
	}
	for _, wf := range snap.Workflows {
		wfLex.Upsert(wf.WorkflowID, wf.WorkflowName+" "+wf.EntryPoint)
	}
	snap.Lexical = &LexicalSnapshots{PE: peLex.Snapshot(), Workflow: wfLex.Snapshot()}
	return snap
}

// savedSidecar saves snap as v2 and returns the JSON path and the sidecar's.
func savedSidecar(t *testing.T, snap *Snapshot) (path, vecPath string) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "registry.json")
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	hdr, err := readV2Header(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, filepath.Join(filepath.Dir(path), hdr.Sidecar)
}

type countingReaderAt struct {
	r     io.ReaderAt
	calls atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.calls.Add(1)
	return c.r.ReadAt(p, off)
}

// TestSectionReadsAreBuffered: a section costs a ReadAt per 64 KiB per
// pass however small the fields its decoder reads. Unbuffered, lex-pe here
// costs three reads per term.
func TestSectionReadsAreBuffered(t *testing.T) {
	snap := lexicalTestSnapshot(t, 400)
	_, vecPath := savedSidecar(t, snap)
	f, sections, err := openSidecar(vecPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	decoders := map[string]func(io.Reader) error{}
	for _, name := range []string{secPEDesc, secPECode, secWFDesc} {
		decoders[name] = func(r io.Reader) error { _, err := decodeVecSection(r); return err }
	}
	for _, name := range []string{secIdxDesc, secIdxCode, secIdxWF} {
		decoders[name] = func(r io.Reader) error { _, err := index.DecodeSnapshotBinary(r); return err }
	}
	var terms int
	for _, name := range []string{secLexPE, secLexWF} {
		decoders[name] = func(r io.Reader) error {
			s, err := lexical.DecodeSnapshot(r)
			if err == nil {
				for _, doc := range s.Docs {
					terms += len(doc.Terms)
				}
			}
			return err
		}
	}
	for _, sec := range sections {
		decode := decoders[sec.name]
		if decode == nil {
			t.Fatalf("no decoder for section %s", sec.name)
		}
		counted := &countingReaderAt{r: f}
		if err := readSection(counted, sec, decode); err != nil {
			t.Fatalf("section %s: %v", sec.name, err)
		}
		// Two passes (checksum, decode), each one read per buffer plus the
		// read that meets the end of the section.
		perPass := int64(sec.length/sectionBuffer) + 2
		if got := counted.calls.Load(); got > 2*perPass {
			t.Errorf("section %s (%d bytes): %d ReadAt calls, want at most %d", sec.name, sec.length, got, 2*perPass)
		}
	}
	if terms < 10000 {
		t.Fatalf("lexical sections held %d terms; the bound above needs far more terms than buffers", terms)
	}
}

// TestV2LexicalSectionsRoundTripAndDegrade: lexical sections come back
// exactly as saved; a corrupt one, or one of another snapshot version,
// degrades to "no lexical snapshot" on its own — records, vectors and the
// other sections still load.
func TestV2LexicalSectionsRoundTripAndDegrade(t *testing.T) {
	snap := lexicalTestSnapshot(t, 70)
	path, vecPath := savedSidecar(t, snap)
	got, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, got, stripHashes(snap))
	if got.Lexical == nil || !reflect.DeepEqual(got.Lexical.PE, snap.Lexical.PE) || !reflect.DeepEqual(got.Lexical.Workflow, snap.Lexical.Workflow) {
		t.Fatal("lexical snapshots changed across Save/Load")
	}

	f, sections, err := openSidecar(vecPath)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	raw, err := os.ReadFile(vecPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range sections {
		if sec.name == secLexPE {
			raw[sec.offset+sec.length/2] ^= 0xff
		}
	}
	if err := os.WriteFile(vecPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err = Load(path)
	if err != nil {
		t.Fatalf("corrupt lexical section failed the whole load: %v", err)
	}
	if got.Lexical == nil || got.Lexical.PE != nil || got.Lexical.Workflow == nil {
		t.Fatalf("want lex-pe dropped and lex-wf kept, got %+v", got.Lexical)
	}
	if got.Indexes == nil || len(got.PEDescVecs) != len(snap.PEDescVecs) {
		t.Fatal("a corrupt lexical section took other sections with it")
	}
}

// TestLoadReportsStages: a v2 load accounts for every stage it ran, a
// journal included; the stages are times, not flags, so each is positive.
func TestLoadReportsStages(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "registry.json")
	if err := Save(path, lexicalTestSnapshot(t, 70)); err != nil {
		t.Fatal(err)
	}
	sum, err := BaseIdentity(path)
	if err != nil {
		t.Fatal(err)
	}
	appendSegments(t, path, DeltaChain{BaseSum: sum}, 2)
	snap, deltas, _, _, err := LoadWithDeltas(path)
	if err != nil || len(deltas) != 2 {
		t.Fatalf("LoadWithDeltas: %d deltas, %v", len(deltas), err)
	}
	st := snap.LoadStages
	for name, took := range map[string]int64{
		"records": int64(st.Records), "vectors": int64(st.Vectors), "index sections": int64(st.IndexSections),
		"lexical sections": int64(st.LexicalSections), "journal": int64(st.Journal),
	} {
		if took <= 0 {
			t.Errorf("stage %s reported %d ns", name, took)
		}
	}
}

// TestEarlyHeaderIsOnlyAHint: the sidecar starts decoding from the header
// at the front of the JSON, but the sidecar attached is the one the full
// parse names. A document that names two (ours never does) loads the last,
// as a plain JSON parse would — whichever the early read saw.
func TestEarlyHeaderIsOnlyAHint(t *testing.T) {
	snap := lexicalTestSnapshot(t, 70)
	path, _ := savedSidecar(t, snap)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const decoy = `"sidecar":"decoy.vec","sidecarSum":"fnv1a64:0000000000000000"`

	// Decoy first: the early read starts on a sidecar that does not exist;
	// the real one, named later, is what loads.
	front := strings.Replace(string(pristine), v2Prefix, v2Prefix+","+decoy, 1)
	if err := os.WriteFile(path, []byte(front), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := Load(path)
	if err != nil {
		t.Fatalf("a decoy the full parse overrides failed the load: %v", err)
	}
	assertSnapshotsEqual(t, got, stripHashes(snap))

	// Decoy last: the early read decoded the real sidecar, the full parse
	// names the decoy, and the load must not attach what it did not name.
	back := strings.TrimSuffix(string(pristine), "}\n") + "," + decoy + "}\n"
	if err := os.WriteFile(path, []byte(back), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(path); err == nil || !strings.Contains(err.Error(), "decoy.vec") {
		t.Fatalf("load attached a sidecar the document's last word does not name: %v", err)
	}
}
