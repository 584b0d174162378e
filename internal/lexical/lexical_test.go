package lexical

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestTokenizeSplitsIdentifiers(t *testing.T) {
	got := Tokenize("parseHTTPRequest photon_events_filter_0042 v3")
	want := []string{"parse", "http", "request", "photon", "events", "filter", "0042", "v", "3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestUpsertSearchDelete(t *testing.T) {
	ix := New()
	ix.Upsert(1, "filter photon events from the detector stream")
	ix.Upsert(2, "aggregate photon counts per window")
	ix.Upsert(3, "render dashboard widgets")

	if ix.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ix.Len())
	}
	hits := ix.Search("photon events", 10, nil)
	if len(hits) != 2 {
		t.Fatalf("Search returned %d hits, want 2: %+v", len(hits), hits)
	}
	if hits[0].ID != 1 {
		t.Fatalf("doc 1 matches both terms and should rank first, got %+v", hits)
	}
	if hits[0].Score <= hits[1].Score {
		t.Fatalf("scores not descending: %+v", hits)
	}

	// The filter scopes visibility exactly like the vector indexes.
	hits = ix.Search("photon", 10, func(id int) bool { return id == 2 })
	if len(hits) != 1 || hits[0].ID != 2 {
		t.Fatalf("filtered search = %+v, want only doc 2", hits)
	}

	ix.Delete(1)
	if ix.Len() != 2 {
		t.Fatalf("Len after delete = %d, want 2", ix.Len())
	}
	hits = ix.Search("events detector", 10, nil)
	if len(hits) != 0 {
		t.Fatalf("deleted doc still retrievable: %+v", hits)
	}
	// Postings for terms unique to doc 1 must be gone, not empty husks.
	if ix.Terms() == 0 {
		t.Fatal("Terms = 0 after delete, other docs' terms vanished")
	}
	for _, term := range Tokenize("filter events from the detector stream") {
		if _, ok := ix.postings[term]; ok && term != "filter" {
			// "filter" could survive via no other doc — check emptiness instead.
			t.Fatalf("term %q retains postings after sole doc deleted", term)
		}
	}
}

func TestUpsertReplacesAndEmptyRemoves(t *testing.T) {
	ix := New()
	ix.Upsert(7, "alpha beta gamma")
	ix.Upsert(7, "delta epsilon")
	if hits := ix.Search("alpha", 10, nil); len(hits) != 0 {
		t.Fatalf("stale terms retrievable after replace: %+v", hits)
	}
	if hits := ix.Search("delta", 10, nil); len(hits) != 1 || hits[0].ID != 7 {
		t.Fatalf("replaced doc not retrievable: %+v", hits)
	}
	// Empty text removes, mirroring the vector indexes' convention.
	ix.Upsert(7, "   \t  ")
	if ix.Len() != 0 {
		t.Fatalf("Len after empty upsert = %d, want 0", ix.Len())
	}
	if ix.Terms() != 0 || ix.totalLen != 0 {
		t.Fatalf("index not empty after removal: terms=%d totalLen=%d", ix.Terms(), ix.totalLen)
	}
}

func TestSearchEdgeCases(t *testing.T) {
	ix := New()
	if hits := ix.Search("anything", 10, nil); hits != nil {
		t.Fatalf("empty index returned %+v", hits)
	}
	ix.Upsert(1, "alpha beta")
	if hits := ix.Search("", 10, nil); hits != nil {
		t.Fatalf("empty query returned %+v", hits)
	}
	if hits := ix.Search("alpha", 0, nil); hits != nil {
		t.Fatalf("k=0 returned %+v", hits)
	}
	if hits := ix.Search("zeta", 10, nil); len(hits) != 0 {
		t.Fatalf("unindexed term returned %+v", hits)
	}
}

func TestSearchDeterministicTiebreak(t *testing.T) {
	// Identical docs score identically; the (score desc, id asc) order must
	// break the tie by id regardless of map iteration order.
	ix := New()
	for _, id := range []int{9, 3, 7, 1, 5} {
		ix.Upsert(id, "identical text body")
	}
	for trial := 0; trial < 20; trial++ {
		hits := ix.Search("identical", 3, nil)
		ids := []int{hits[0].ID, hits[1].ID, hits[2].ID}
		if !reflect.DeepEqual(ids, []int{1, 3, 5}) {
			t.Fatalf("trial %d: tie order %v, want [1 3 5]", trial, ids)
		}
	}
}

func TestBM25RareTermOutweighsCommon(t *testing.T) {
	ix := New()
	for i := 0; i < 50; i++ {
		ix.Upsert(i, "process records batch pipeline")
	}
	ix.Upsert(99, "process quasar records")
	hits := ix.Search("quasar process", 5, nil)
	if len(hits) == 0 || hits[0].ID != 99 {
		t.Fatalf("doc holding the rare term should rank first, got %+v", hits)
	}
}

// sumsOf is what Restore compares a snapshot against when documents were
// indexed with plain Upsert: each text is its own single source field.
func sumsOf(docs map[int]string) map[int]uint64 {
	sums := make(map[int]uint64, len(docs))
	for id, text := range docs {
		sums[id] = SourceSum(text)
	}
	return sums
}

func TestSnapshotRoundTrip(t *testing.T) {
	ix := New()
	docs := map[int]string{
		1: "filter photonEvents by threshold",
		2: "aggregate window counts",
		3: "filter_noise from stream",
	}
	for id, text := range docs {
		ix.Upsert(id, text)
	}
	snap := ix.Snapshot()

	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	decoded, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if !reflect.DeepEqual(decoded, snap) {
		t.Fatalf("decode mismatch:\n got %+v\nwant %+v", decoded, snap)
	}

	restored := New()
	if err := restored.Restore(decoded, sumsOf(docs)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	// The restored index must rank identically to the rebuilt one.
	for _, q := range []string{"filter", "photon events", "window", "noise stream"} {
		a := ix.Search(q, 10, nil)
		b := restored.Search(q, 10, nil)
		if len(a) != len(b) {
			t.Fatalf("query %q: %d vs %d hits", q, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || math.Abs(a[i].Score-b[i].Score) > 1e-12 {
				t.Fatalf("query %q hit %d: %+v vs %+v", q, i, a[i], b[i])
			}
		}
	}
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	build := func() *bytes.Buffer {
		ix := New()
		ix.Upsert(2, "beta gamma alpha")
		ix.Upsert(1, "alpha beta")
		var buf bytes.Buffer
		if err := ix.Snapshot().Encode(&buf); err != nil {
			t.Fatalf("Encode: %v", err)
		}
		return &buf
	}
	a, b := build(), build()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical indexes encoded to different bytes")
	}
}

func TestRestoreRejectsStaleOrMismatched(t *testing.T) {
	ix := New()
	docs := map[int]string{1: "alpha beta", 2: "gamma delta"}
	for id, text := range docs {
		ix.Upsert(id, text)
	}
	snap := ix.Snapshot()

	cases := []struct {
		name string
		docs map[int]string
	}{
		{"source changed", map[int]string{1: "alpha beta CHANGED", 2: "gamma delta"}},
		{"doc missing", map[int]string{1: "alpha beta"}},
		{"doc added", map[int]string{1: "alpha beta", 2: "gamma delta", 3: "extra"}},
		{"ids swapped", map[int]string{2: "alpha beta", 1: "gamma delta"}},
	}
	for _, tc := range cases {
		fresh := New()
		fresh.Upsert(42, "pre-existing state")
		if err := fresh.Restore(snap, sumsOf(tc.docs)); err == nil {
			t.Errorf("%s: Restore succeeded, want error", tc.name)
		}
		// A failed restore must leave the index unchanged.
		if hits := fresh.Search("pre existing", 10, nil); len(hits) != 1 || hits[0].ID != 42 {
			t.Errorf("%s: failed restore mutated the index: %+v", tc.name, hits)
		}
	}

	// Happy path still works after the negative cases.
	fresh := New()
	if err := fresh.Restore(snap, sumsOf(docs)); err != nil {
		t.Fatalf("valid Restore: %v", err)
	}

	// Nil snapshot: valid only for an empty store.
	empty := New()
	if err := empty.Restore(nil, nil); err != nil {
		t.Fatalf("nil snapshot + empty store should restore: %v", err)
	}
	if err := empty.Restore(nil, sumsOf(docs)); err == nil {
		t.Fatal("nil snapshot + populated store should fail")
	}
}

func TestRestoreRejectsCorruptStatistics(t *testing.T) {
	docs := map[int]string{1: "alpha beta"}
	sum := SourceSum("alpha beta")
	cases := []struct {
		name string
		snap *Snapshot
	}{
		{"zero tf", &Snapshot{Docs: []DocSnapshot{{ID: 1, SourceSum: sum, Length: 2,
			Terms: []TermCount{{"alpha", 0}, {"beta", 2}}}}}},
		{"empty term", &Snapshot{Docs: []DocSnapshot{{ID: 1, SourceSum: sum, Length: 2,
			Terms: []TermCount{{"", 1}, {"beta", 1}}}}}},
		{"length mismatch", &Snapshot{Docs: []DocSnapshot{{ID: 1, SourceSum: sum, Length: 5,
			Terms: []TermCount{{"alpha", 1}, {"beta", 1}}}}}},
		{"duplicate term", &Snapshot{Docs: []DocSnapshot{{ID: 1, SourceSum: sum, Length: 2,
			Terms: []TermCount{{"alpha", 1}, {"alpha", 1}}}}}},
	}
	for _, tc := range cases {
		if err := New().Restore(tc.snap, sumsOf(docs)); err == nil {
			t.Errorf("%s: Restore succeeded, want error", tc.name)
		}
	}
}

func TestDecodeRejectsCorruptBytes(t *testing.T) {
	ix := New()
	ix.Upsert(1, "alpha beta gamma")
	var buf bytes.Buffer
	if err := ix.Snapshot().Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	full := buf.Bytes()

	if _, err := DecodeSnapshot(bytes.NewReader(nil)); err == nil {
		t.Error("empty input decoded")
	}
	if _, err := DecodeSnapshot(bytes.NewReader(full[:len(full)-3])); err == nil {
		t.Error("truncated input decoded")
	}
	bad := append([]byte(nil), full...)
	bad[0] = 99 // version byte
	if _, err := DecodeSnapshot(bytes.NewReader(bad)); err == nil {
		t.Error("wrong version decoded")
	}
}

func TestConcurrentUpsertSearch(t *testing.T) {
	ix := New()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			ix.Upsert(i%50, strings.Repeat("alpha beta gamma ", i%5+1))
			if i%7 == 0 {
				ix.Delete(i % 50)
			}
		}
	}()
	for i := 0; i < 500; i++ {
		ix.Search("alpha gamma", 10, nil)
		ix.Len()
		ix.Terms()
	}
	<-done
}

// SourceSum length-prefixes every field: the same bytes split at another
// field boundary are a different source.
func TestSourceSumBindsFieldBoundaries(t *testing.T) {
	base := SourceSum("name", "desc", "code")
	if base != SourceSum("name", "desc", "code") {
		t.Fatal("SourceSum is not deterministic")
	}
	for name, other := range map[string]uint64{
		"moved boundary": SourceSum("named", "esc", "code"),
		"merged fields":  SourceSum("namedesc", "code"),
		"empty field":    SourceSum("name", "desc", "code", ""),
		"changed byte":   SourceSum("name", "desc", "codf"),
		"swapped fields": SourceSum("desc", "name", "code"),
	} {
		if other == base {
			t.Errorf("%s: sum unchanged", name)
		}
	}
}

// A document upserted under a caller's sum restores against that sum and
// nothing else — not against the sum of its text.
func TestUpsertBoundRestoresAgainstCallerSum(t *testing.T) {
	ix := New()
	sum := SourceSum("photonFilter", "filters photons", "<opaque envelope>")
	ix.UpsertBound(7, "photonFilter\nfilters photons\nclass PhotonFilter: pass", sum)
	snap := ix.Snapshot()
	if snap.Docs[0].SourceSum != sum {
		t.Fatalf("snapshot carries sum %x, want the caller's %x", snap.Docs[0].SourceSum, sum)
	}
	restored := New()
	if err := restored.Restore(snap, map[int]uint64{7: sum}); err != nil {
		t.Fatalf("Restore against the caller's sum: %v", err)
	}
	if hits := restored.Search("photon filter", 5, nil); len(hits) != 1 || hits[0].ID != 7 {
		t.Fatalf("restored index lost the document: %+v", hits)
	}
	if err := New().Restore(snap, map[int]uint64{7: SourceSum("photonFilter\nfilters photons\nclass PhotonFilter: pass")}); err == nil {
		t.Fatal("Restore accepted the sum of the text for a document bound to its source fields")
	}
}

// A version-1 snapshot has the same layout but sums the document text; it
// must decode as an unknown version so the caller rebuilds, never restore
// against sums that mean something else.
func TestDecodeRejectsVersion1(t *testing.T) {
	ix := New()
	ix.Upsert(1, "alpha beta")
	var buf bytes.Buffer
	if err := ix.Snapshot().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if got := binary.LittleEndian.Uint32(raw); got != 2 {
		t.Fatalf("Encode wrote version %d, want 2", got)
	}
	binary.LittleEndian.PutUint32(raw, 1)
	if _, err := DecodeSnapshot(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "unknown snapshot version 1") {
		t.Fatalf("version 1 decoded: %v", err)
	}
}

// Equal terms of different documents decode to one shared string.
func TestDecodeInternsTerms(t *testing.T) {
	ix := New()
	for id := 1; id <= 3; id++ {
		ix.Upsert(id, "shared term everywhere")
	}
	var buf bytes.Buffer
	if err := ix.Snapshot().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	first := snap.Docs[0].Terms
	for _, doc := range snap.Docs[1:] {
		for i, tc := range doc.Terms {
			if tc.Term != first[i].Term || unsafe.StringData(tc.Term) != unsafe.StringData(first[i].Term) {
				t.Fatalf("doc %d term %q is its own copy", doc.ID, tc.Term)
			}
		}
	}
}
