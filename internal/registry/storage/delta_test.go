package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"laminar/internal/core"
)

// writeBase saves a v2 base snapshot and returns its path and the fresh
// (segment-less) chain anchored to it.
func writeBase(t *testing.T, dir string) (string, DeltaChain) {
	t.Helper()
	path := filepath.Join(dir, "registry.json")
	if err := Save(path, testSnapshot(t, 8)); err != nil {
		t.Fatalf("save base: %v", err)
	}
	chain, err := DeltaChainOf(path)
	if err != nil {
		t.Fatalf("chain of base: %v", err)
	}
	if chain.BaseSum == "" || chain.Seq != 0 {
		t.Fatalf("fresh base chain looks wrong: %+v", chain)
	}
	return path, chain
}

// churnDelta builds a distinguishable delta for segment seq: one PE upsert
// with both embeddings, one removal, a replaced ownership row and advanced
// counters.
func churnDelta(seq int) *Delta {
	id := 100 + seq
	return &Delta{
		PEs: []core.PERecord{{
			PEID: id, PEName: fmt.Sprintf("delta-pe-%03d", seq),
			Description: "from delta", PECode: fmt.Sprintf("code-v%d", seq),
			CreatedAt: time.Date(2026, 2, 1, 0, 0, seq, 0, time.UTC),
		}},
		RemovedPEs:     []int{seq},
		UserPEs:        map[int][]int{1: {id}},
		NextUserID:     3,
		NextPEID:       id + 1,
		NextWorkflowID: 5,
		PEDescVecs:     map[int][]float32{id: {float32(seq), 0.5, -1}},
		PECodeVecs:     map[int][]float32{id: {0, float32(seq), 2}},
	}
}

// appendSegments installs n chained segments and returns the deltas written
// plus the advanced chain.
func appendSegments(t *testing.T, path string, chain DeltaChain, n int) ([]*Delta, DeltaChain) {
	t.Helper()
	var written []*Delta
	for i := 1; i <= n; i++ {
		d := churnDelta(i)
		var err error
		chain, err = SaveDelta(path, chain, d)
		if err != nil {
			t.Fatalf("save delta %d: %v", i, err)
		}
		written = append(written, d)
	}
	return written, chain
}

func segPath(path string, seq uint64) string {
	return filepath.Join(filepath.Dir(path), deltaSegmentName(filepath.Base(path), seq))
}

// assertDeltaEqual compares a decoded delta against the one written.
// Decoded vec maps come back non-nil-but-empty where the writer had nil,
// so vec maps are compared by content.
func assertDeltaEqual(t *testing.T, got, want *Delta, seq int) {
	t.Helper()
	if !reflect.DeepEqual(got.PEs, want.PEs) || !reflect.DeepEqual(got.RemovedPEs, want.RemovedPEs) {
		t.Fatalf("segment %d records diverged:\n got %+v\nwant %+v", seq, got, want)
	}
	if !reflect.DeepEqual(got.UserPEs, want.UserPEs) {
		t.Fatalf("segment %d ownership diverged: got %v want %v", seq, got.UserPEs, want.UserPEs)
	}
	if got.NextUserID != want.NextUserID || got.NextPEID != want.NextPEID || got.NextWorkflowID != want.NextWorkflowID {
		t.Fatalf("segment %d counters diverged", seq)
	}
	for name, pair := range map[string][2]map[int][]float32{
		"peDesc": {got.PEDescVecs, want.PEDescVecs},
		"peCode": {got.PECodeVecs, want.PECodeVecs},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("segment %d %s vec count diverged: %d vs %d", seq, name, len(pair[0]), len(pair[1]))
		}
		for id, v := range pair[1] {
			if !reflect.DeepEqual(pair[0][id], v) {
				t.Fatalf("segment %d %s vec %d diverged", seq, name, id)
			}
		}
	}
}

func TestDeltaChainRoundTrip(t *testing.T) {
	path, chain := writeBase(t, t.TempDir())
	written, saved := appendSegments(t, path, chain, 3)

	snap, deltas, loaded, format, err := LoadWithDeltas(path)
	if err != nil {
		t.Fatalf("load with deltas: %v", err)
	}
	if format != FormatV2 {
		t.Fatalf("format = %v, want v2", format)
	}
	if snap == nil || len(snap.PEs) != 8 {
		t.Fatalf("base snapshot wrong: %+v", snap)
	}
	if len(deltas) != 3 {
		t.Fatalf("got %d deltas, want 3", len(deltas))
	}
	for i, d := range deltas {
		assertDeltaEqual(t, d, written[i], i+1)
	}
	if loaded != saved {
		t.Fatalf("reloaded chain %+v != saved chain %+v", loaded, saved)
	}
	rescanned, err := DeltaChainOf(path)
	if err != nil || rescanned != saved {
		t.Fatalf("DeltaChainOf = %+v, %v; want %+v", rescanned, err, saved)
	}
}

func TestSaveDeltaRefusesMissingBase(t *testing.T) {
	_, err := SaveDelta(filepath.Join(t.TempDir(), "registry.json"), DeltaChain{}, churnDelta(1))
	if err == nil || !strings.Contains(err.Error(), "no delta-capable base") {
		t.Fatalf("err = %v, want no-base refusal", err)
	}
}

func TestV1CannotAnchorJournal(t *testing.T) {
	path := goldenV1(t, "packed.json")
	sum, err := BaseIdentity(path)
	if err != nil || sum != "" {
		t.Fatalf("BaseIdentity(v1) = %q, %v; want empty", sum, err)
	}
	chain, err := DeltaChainOf(path)
	if err != nil || chain != (DeltaChain{}) {
		t.Fatalf("DeltaChainOf(v1) = %+v, %v; want zero chain", chain, err)
	}
	if _, err := SaveDelta(path, chain, churnDelta(1)); err == nil {
		t.Fatal("SaveDelta chained to a v1 base")
	}
	snap, deltas, _, format, err := LoadWithDeltas(path)
	if err != nil || format != FormatV1 || len(deltas) != 0 || snap == nil {
		t.Fatalf("LoadWithDeltas(v1) = %v deltas, format %v, err %v", len(deltas), format, err)
	}
}

// TestDeltaTailDamageRecoversPrefix truncates and byte-flips the *last*
// segment at fuzzed offsets: every flavor of tail damage must degrade to a
// lossless load of the two segments before it.
func TestDeltaTailDamageRecoversPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		dir := t.TempDir()
		path, chain := writeBase(t, dir)
		written, _ := appendSegments(t, path, chain, 3)
		tail := segPath(path, 3)
		data, err := os.ReadFile(tail)
		if err != nil {
			t.Fatal(err)
		}
		switch trial % 3 {
		case 0: // truncate at a random offset (including zero bytes)
			cut := rng.Intn(len(data))
			if err := os.WriteFile(tail, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
		case 1: // flip a random byte in place
			off := rng.Intn(len(data))
			data[off] ^= 0xff
			if err := os.WriteFile(tail, data, 0o644); err != nil {
				t.Fatal(err)
			}
		case 2: // the never-installed segment: gone entirely
			if err := os.Remove(tail); err != nil {
				t.Fatal(err)
			}
		}
		_, deltas, loaded, _, err := LoadWithDeltas(path)
		if err != nil {
			t.Fatalf("trial %d: tail damage must not fail the load: %v", trial, err)
		}
		if len(deltas) != 2 {
			t.Fatalf("trial %d: got %d deltas, want prefix of 2", trial, len(deltas))
		}
		for i, d := range deltas {
			assertDeltaEqual(t, d, written[i], i+1)
		}
		if loaded.Seq != 2 {
			t.Fatalf("trial %d: chain seq = %d, want 2", trial, loaded.Seq)
		}
	}
}

// TestDeltaMidChainDamageFailsLoudly damages segment 2 of 3 in every
// flavor. Segment 3 provably chains to this base, so the loader must
// refuse rather than apply segments across the hole.
func TestDeltaMidChainDamageFailsLoudly(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 9; trial++ {
		dir := t.TempDir()
		path, chain := writeBase(t, dir)
		appendSegments(t, path, chain, 3)
		mid := segPath(path, 2)
		data, err := os.ReadFile(mid)
		if err != nil {
			t.Fatal(err)
		}
		switch trial % 3 {
		case 0:
			if err := os.WriteFile(mid, data[:rng.Intn(len(data))], 0o644); err != nil {
				t.Fatal(err)
			}
		case 1:
			data[rng.Intn(len(data))] ^= 0xff
			if err := os.WriteFile(mid, data, 0o644); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := os.Remove(mid); err != nil {
				t.Fatal(err)
			}
		}
		_, _, _, _, err = LoadWithDeltas(path)
		if err == nil || !strings.Contains(err.Error(), "refusing to load around the hole") {
			t.Fatalf("trial %d: err = %v, want refusal to load around the hole", trial, err)
		}
	}
}

// TestDeltaStaleJournalIgnored reproduces a crash between a compacting full
// save's rename and its segment sweep: segments chained to the *old* base
// linger next to the new one. They must be ignored, not applied and not
// fatal.
func TestDeltaStaleJournalIgnored(t *testing.T) {
	dir := t.TempDir()
	path, chain := writeBase(t, dir)
	appendSegments(t, path, chain, 2)

	// Stash the segments, full-save a *different* snapshot (new sidecarSum),
	// then put the stale segments back as the crash would have left them.
	stashed := map[string][]byte{}
	for seq := uint64(1); seq <= 2; seq++ {
		data, err := os.ReadFile(segPath(path, seq))
		if err != nil {
			t.Fatal(err)
		}
		stashed[segPath(path, seq)] = data
	}
	if err := Save(path, testSnapshot(t, 6)); err != nil {
		t.Fatalf("compacting save: %v", err)
	}
	if matches, _ := filepath.Glob(path + ".delta-*"); len(matches) != 0 {
		t.Fatalf("full save left segments behind: %v", matches)
	}
	for p, data := range stashed {
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	snap, deltas, loaded, _, err := LoadWithDeltas(path)
	if err != nil {
		t.Fatalf("stale journal must not fail the load: %v", err)
	}
	if len(deltas) != 0 {
		t.Fatalf("stale segments were applied: %d deltas", len(deltas))
	}
	if len(snap.PEs) != 6 {
		t.Fatalf("loaded wrong base: %d PEs", len(snap.PEs))
	}
	if loaded.Seq != 0 || loaded.BaseSum == chain.BaseSum {
		t.Fatalf("chain did not re-anchor: %+v", loaded)
	}
}

// TestDeltaForeignTailGarbage plants undecodable garbage at the next
// sequence name. Garbage proves nothing about the journal continuing, so
// the valid prefix loads.
func TestDeltaForeignTailGarbage(t *testing.T) {
	path, chain := writeBase(t, t.TempDir())
	appendSegments(t, path, chain, 2)
	if err := os.WriteFile(segPath(path, 3), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, deltas, _, _, err := LoadWithDeltas(path)
	if err != nil || len(deltas) != 2 {
		t.Fatalf("got %d deltas, err %v; want 2, nil", len(deltas), err)
	}
}

func TestDeltaSegmentNameParsing(t *testing.T) {
	base := "registry.json"
	if got := deltaSegmentName(base, 7); got != "registry.json.delta-000007" {
		t.Fatalf("segment name = %q", got)
	}
	for name, want := range map[string]uint64{
		"registry.json.delta-000001":  1,
		"registry.json.delta-123456":  123456,
		"registry.json.delta-1000000": 1000000,
		"registry.json.delta-00001":   0, // too short
		"registry.json.delta-0000xy":  0,
		"registry.json.vec-abcdef":    0,
		"other.json.delta-000001":     0,
		"registry.json":               0,
	} {
		if got := parseDeltaSeq(name, base); got != want {
			t.Fatalf("parseDeltaSeq(%q) = %d, want %d", name, got, want)
		}
	}
}

func TestDeltaEmpty(t *testing.T) {
	if !(&Delta{NextUserID: 9, NextPEID: 9, NextWorkflowID: 9}).Empty() {
		t.Fatal("counter-only delta should be empty")
	}
	if (&Delta{RemovedPEs: []int{1}}).Empty() {
		t.Fatal("removal-carrying delta should not be empty")
	}
	if (&Delta{UserPEs: map[int][]int{1: {}}}).Empty() {
		t.Fatal("ownership-row delta should not be empty")
	}
}

// TestDecodeDeltaRejectsMalformed drives the decoder's validation paths
// that the file-level torture tests cannot reach deterministically.
func TestDecodeDeltaRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	segs := 0
	valid := func(meta deltaMeta) []byte {
		t.Helper()
		segs++
		p := filepath.Join(dir, fmt.Sprintf("seg-%03d", segs))
		if _, _, err := writeDeltaSegment(p, meta, churnDelta(1)); err != nil {
			t.Fatalf("write segment: %v", err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	goodMeta := deltaMeta{Format: deltaFormatName, Version: deltaVersion, Seq: 1, Base: "b", Parent: "p"}
	if _, meta, sum, err := DecodeDelta(valid(goodMeta)); err != nil || meta.Seq != 1 || sum == "" {
		t.Fatalf("valid segment rejected: %+v, %q, %v", meta, sum, err)
	}
	for name, data := range map[string][]byte{
		"empty":        nil,
		"short":        []byte("LM"),
		"wrong magic":  []byte("XXXX garbage that is long enough to have a trailer maybe"),
		"format claim": valid(deltaMeta{Format: "laminar/other", Version: deltaVersion, Seq: 1, Base: "b", Parent: "p"}),
		"zero seq":     valid(deltaMeta{Format: deltaFormatName, Version: deltaVersion, Seq: 0, Base: "b", Parent: "p"}),
		"no base":      valid(deltaMeta{Format: deltaFormatName, Version: deltaVersion, Seq: 2, Base: "", Parent: "p"}),
		"no parent":    valid(deltaMeta{Format: deltaFormatName, Version: deltaVersion, Seq: 3, Base: "b", Parent: ""}),
	} {
		if _, _, _, err := DecodeDelta(data); err == nil {
			t.Fatalf("%s: decode accepted malformed segment", name)
		}
	}
}

// TestDeltaOutOfOrderSegmentEndsChain renames segment 2 to sequence 3: the
// loader sees a gap at 2 and a segment at 3 whose meta says 2 — it chains
// to this base, so the load must refuse.
func TestDeltaSeqMismatchRefuses(t *testing.T) {
	path, chain := writeBase(t, t.TempDir())
	appendSegments(t, path, chain, 2)
	if err := os.Rename(segPath(path, 2), segPath(path, 3)); err != nil {
		t.Fatal(err)
	}
	_, _, _, _, err := LoadWithDeltas(path)
	if err == nil || !strings.Contains(err.Error(), "refusing to load around the hole") {
		t.Fatalf("err = %v, want refusal", err)
	}
}

// FuzzDecodeDelta is the trust-boundary fuzz target: arbitrary bytes must
// produce an error or a structurally valid delta — never a panic. Seeds
// cover a pristine segment, every flavor of damage the torture tests use,
// and the checked-in corpus under testdata/fuzz.
func FuzzDecodeDelta(f *testing.F) {
	dir := f.TempDir()
	p := filepath.Join(dir, "seed-segment")
	meta := deltaMeta{Format: deltaFormatName, Version: deltaVersion, Seq: 1, Base: "basesum", Parent: "basesum"}
	if _, _, err := writeDeltaSegment(p, meta, churnDelta(1)); err != nil {
		f.Fatalf("write seed segment: %v", err)
	}
	pristine, err := os.ReadFile(p)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pristine)
	f.Add(pristine[:len(pristine)/2])
	f.Add(pristine[:4])
	flipped := append([]byte(nil), pristine...)
	flipped[len(flipped)/3] ^= 0x55
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte(deltaMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, meta, sum, err := DecodeDelta(data)
		if err != nil {
			if d != nil {
				t.Fatal("decode returned both a delta and an error")
			}
			return
		}
		if d == nil || sum == "" {
			t.Fatal("successful decode returned no delta or no checksum")
		}
		if meta.Seq == 0 || meta.Base == "" || meta.Parent == "" {
			t.Fatalf("successful decode with incomplete meta: %+v", meta)
		}
	})
}
