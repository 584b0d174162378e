package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"laminar/internal/core"
	"laminar/internal/index"
)

// testSnapshot builds a snapshot with n PEs, n/2 workflows, 2 users, full
// relation tables and trained clustered index snapshots.
func testSnapshot(t *testing.T, n int) *Snapshot {
	t.Helper()
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	snap := &Snapshot{
		PasswordHashes:   map[int]string{1: "hash-one", 2: "hash-two"},
		UserPEs:          map[int][]int{1: {}, 2: {}},
		UserWorkflows:    map[int][]int{1: {}, 2: {}},
		WorkflowPEs:      map[int][]int{},
		NextUserID:       3,
		NextPEID:         n + 1,
		NextWorkflowID:   n/2 + 1,
		PEDescVecs:       map[int][]float32{},
		PECodeVecs:       map[int][]float32{},
		WorkflowDescVecs: map[int][]float32{},
	}
	snap.Users = []core.UserRecord{
		{UserID: 1, UserName: "ann", PasswordHash: "hash-one", CreatedAt: now},
		{UserID: 2, UserName: "bob", PasswordHash: "hash-two", CreatedAt: now},
	}
	descIdx := index.NewClustered(index.ClusteredConfig{Centroids: 4, NProbe: 2})
	codeIdx := index.NewClustered(index.ClusteredConfig{Centroids: 4, NProbe: 2})
	wfIdx := index.NewFlat()
	for i := 1; i <= n; i++ {
		v := []float32{float32(i) / float32(n), 1 - float32(i)/float32(n), 0.25}
		snap.PEs = append(snap.PEs, core.PERecord{
			PEID: i, PEName: fmt.Sprintf("PE%04d", i), Description: "desc",
			PECode: "code", PEImports: []string{"math"}, CreatedAt: now,
		})
		snap.PEDescVecs[i] = v
		snap.PECodeVecs[i] = v
		descIdx.Upsert(i, v)
		codeIdx.Upsert(i, v)
		owner := 1 + i%2
		snap.UserPEs[owner] = append(snap.UserPEs[owner], i)
	}
	for i := 1; i <= n/2; i++ {
		v := []float32{0.5, float32(i) / float32(n), 0}
		snap.Workflows = append(snap.Workflows, core.WorkflowRecord{
			WorkflowID: i, WorkflowName: fmt.Sprintf("wf%03d", i),
			EntryPoint: fmt.Sprintf("entry%03d", i), WorkflowCode: "wfcode", CreatedAt: now,
		})
		snap.WorkflowDescVecs[i] = v
		wfIdx.Upsert(i, v)
		snap.UserWorkflows[1] = append(snap.UserWorkflows[1], i)
		snap.WorkflowPEs[i] = []int{i, (i % n) + 1}
	}
	descIdx.WaitRetrain()
	codeIdx.WaitRetrain()
	snap.Indexes = &IndexSnapshots{
		Desc:     descIdx.Snapshot(),
		Code:     codeIdx.Snapshot(),
		Workflow: wfIdx.Snapshot(),
	}
	return snap
}

// assertSnapshotsEqual compares two snapshots field by field (records must
// already be id-sorted, which both Save paths guarantee).
func assertSnapshotsEqual(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(got.Users, want.Users) {
		t.Fatalf("users diverged:\n got %+v\nwant %+v", got.Users, want.Users)
	}
	if !reflect.DeepEqual(got.PEs, want.PEs) {
		t.Fatalf("pes diverged (lens %d vs %d)", len(got.PEs), len(want.PEs))
	}
	if !reflect.DeepEqual(got.Workflows, want.Workflows) {
		t.Fatalf("workflows diverged")
	}
	if !reflect.DeepEqual(got.PasswordHashes, want.PasswordHashes) {
		t.Fatalf("password hashes diverged")
	}
	for name, pair := range map[string][2]map[int][]int{
		"userPes":       {got.UserPEs, want.UserPEs},
		"userWorkflows": {got.UserWorkflows, want.UserWorkflows},
		"workflowPes":   {got.WorkflowPEs, want.WorkflowPEs},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("%s diverged:\n got %v\nwant %v", name, pair[0], pair[1])
		}
	}
	for name, pair := range map[string][2]map[int][]float32{
		"peDescVecs":       {got.PEDescVecs, want.PEDescVecs},
		"peCodeVecs":       {got.PECodeVecs, want.PECodeVecs},
		"workflowDescVecs": {got.WorkflowDescVecs, want.WorkflowDescVecs},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("%s diverged", name)
		}
	}
	if got.NextUserID != want.NextUserID || got.NextPEID != want.NextPEID || got.NextWorkflowID != want.NextWorkflowID {
		t.Fatalf("counters diverged: %d/%d/%d vs %d/%d/%d",
			got.NextUserID, got.NextPEID, got.NextWorkflowID,
			want.NextUserID, want.NextPEID, want.NextWorkflowID)
	}
	if !reflect.DeepEqual(got.Indexes, want.Indexes) {
		t.Fatalf("index snapshots diverged:\n got %+v\nwant %+v", got.Indexes, want.Indexes)
	}
}

// strippedUsers mirrors what loads return: UserRecord.PasswordHash is a
// json:"-" field, so it round-trips via the PasswordHashes map, not the
// record.
func stripHashes(snap *Snapshot) *Snapshot {
	out := snap.normalized()
	for i := range out.Users {
		out.Users[i].PasswordHash = ""
	}
	return out
}

func TestV2RoundTrip(t *testing.T) {
	snap := testSnapshot(t, 100)
	path := filepath.Join(t.TempDir(), "registry.json")
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	got, format, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if format != FormatV2 {
		t.Fatalf("detected format %v, want v2", format)
	}
	assertSnapshotsEqual(t, got, stripHashes(snap))
}

// goldenV1 copies one of the checked-in v1 registry files into a temp dir
// and returns the copy's path, so a test may save over or beside it. The
// files under testdata/v1 were written once, by the last commit that had a
// v1 writer (packed.json is testSnapshot(80), packed-quantized.json is
// quantizedSnapshot(70), registry.json a served 200-PE clustered store;
// inline.json is the hand-written oldest vintage): "v1 loads forever" is
// pinned on real bytes, not on a writer and a reader agreeing with each
// other.
func goldenV1(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "v1", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "registry.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadGoldenV1 loads a golden file and checks it against the snapshot it
// was written from. Records, relations, counters and vectors must match
// bit for bit. The embedded index snapshots are whatever k-means produced
// the day the file was written, so they are held to what a restart needs
// of them instead: each still restores over the file's own vectors.
func loadGoldenV1(t *testing.T, name string, want *Snapshot) (string, *Snapshot) {
	t.Helper()
	path := goldenV1(t, name)
	got, format, err := Load(path)
	if err != nil || format != FormatV1 {
		t.Fatalf("load %s: %v (format %v)", name, err, format)
	}
	if got.Indexes == nil || got.Indexes.Desc == nil || got.Indexes.Code == nil || got.Indexes.Workflow == nil {
		t.Fatalf("%s: embedded index snapshots lost: %+v", name, got.Indexes)
	}
	for kind, restore := range map[string]error{
		"desc":     index.NewClustered(index.ClusteredConfig{}).Restore(got.Indexes.Desc, got.PEDescVecs),
		"code":     index.NewClustered(index.ClusteredConfig{}).Restore(got.Indexes.Code, got.PECodeVecs),
		"workflow": index.NewFlat().Restore(got.Indexes.Workflow, got.WorkflowDescVecs),
	} {
		if restore != nil {
			t.Fatalf("%s: embedded %s index snapshot no longer restores: %v", name, kind, restore)
		}
	}
	want = stripHashes(want)
	want.Indexes = got.Indexes
	assertSnapshotsEqual(t, got, want)
	return path, got
}

// TestV1RoundTrip: the write half of this round trip ran once, at the last
// commit with a v1 writer; the read half runs forever.
func TestV1RoundTrip(t *testing.T) {
	loadGoldenV1(t, "packed.json", testSnapshot(t, 80))
}

// TestV1ToV2Migration is the storage-level half of the migration story: a
// v1 file loads, saves as v2 over itself, and the v2 pair carries the
// identical snapshot — including the index structure, bit for bit.
func TestV1ToV2Migration(t *testing.T) {
	path, loaded := loadGoldenV1(t, "packed.json", testSnapshot(t, 80))
	if err := Save(path, loaded); err != nil {
		t.Fatal(err)
	}
	migrated, format, err := Load(path)
	if err != nil || format != FormatV2 {
		t.Fatalf("load migrated v2: %v (format %v)", err, format)
	}
	assertSnapshotsEqual(t, migrated, loaded)
}

// TestV2SmallerThanV1: the binary sidecar must beat base64-in-JSON on disk.
func TestV2SmallerThanV1(t *testing.T) {
	v1Path, snap := loadGoldenV1(t, "packed.json", testSnapshot(t, 80))
	v2Path := filepath.Join(t.TempDir(), "v2.json")
	if err := Save(v2Path, snap); err != nil {
		t.Fatal(err)
	}
	v1Size, err := DiskSize(v1Path)
	if err != nil {
		t.Fatal(err)
	}
	v2Size, err := DiskSize(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	if v2Size >= v1Size {
		t.Fatalf("v2 on-disk total %d >= v1 %d", v2Size, v1Size)
	}
}

// TestV2CorruptVectorSectionFailsLoad: flipping one payload byte in a
// vector section must fail the load — embeddings are data, not derivable.
func TestV2CorruptVectorSectionFailsLoad(t *testing.T) {
	snap := testSnapshot(t, 70)
	dir := t.TempDir()
	path := filepath.Join(dir, "registry.json")
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	hdr, err := readV2Header(path)
	if err != nil {
		t.Fatal(err)
	}
	vecPath := filepath.Join(dir, hdr.Sidecar)
	raw, err := os.ReadFile(vecPath)
	if err != nil {
		t.Fatal(err)
	}
	// The first vector section's payload starts right after the 8-byte
	// header; flip a byte well inside it.
	raw[64] ^= 0xff
	if err := os.WriteFile(vecPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(path); err == nil {
		t.Fatal("corrupt vector section loaded cleanly")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("unexpected error (want checksum failure): %v", err)
	}
}

// TestV2MismatchedSidecarFailsLoad: a JSON pointing at a sidecar from a
// different generation must be refused via the pairing checksum.
func TestV2MismatchedSidecarFailsLoad(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.json")
	pathB := filepath.Join(dir, "b.json")
	if err := Save(pathA, testSnapshot(t, 70)); err != nil {
		t.Fatal(err)
	}
	if err := Save(pathB, testSnapshot(t, 71)); err != nil {
		t.Fatal(err)
	}
	hdrA, err := readV2Header(pathA)
	if err != nil {
		t.Fatal(err)
	}
	hdrB, err := readV2Header(pathB)
	if err != nil {
		t.Fatal(err)
	}
	// Graft B's sidecar under A's expected name.
	bVec, err := os.ReadFile(filepath.Join(dir, hdrB.Sidecar))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, hdrA.Sidecar), bVec, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(pathA); err == nil {
		t.Fatal("mismatched sidecar loaded cleanly")
	}
}

// TestV2CorruptIndexSectionDegradesToRebuild: index sections are derivable;
// corruption there must surface as "no index snapshot", not a failed load.
func TestV2CorruptIndexSectionDegradesToRebuild(t *testing.T) {
	snap := testSnapshot(t, 70)
	dir := t.TempDir()
	path := filepath.Join(dir, "registry.json")
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	hdr, err := readV2Header(path)
	if err != nil {
		t.Fatal(err)
	}
	vecPath := filepath.Join(dir, hdr.Sidecar)
	f, sections, err := openSidecar(vecPath)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	raw, err := os.ReadFile(vecPath)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, sec := range sections {
		if strings.HasPrefix(sec.name, "idx-") {
			raw[sec.offset+sec.length/2] ^= 0xff
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("no index sections present")
	}
	if err := os.WriteFile(vecPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := Load(path)
	if err != nil {
		t.Fatalf("corrupt index section failed the whole load: %v", err)
	}
	if got.Indexes != nil {
		t.Fatalf("corrupt index sections still surfaced: %+v", got.Indexes)
	}
	if len(got.PEs) != len(snap.PEs) {
		t.Fatalf("records lost: %d vs %d", len(got.PEs), len(snap.PEs))
	}
}

// TestSaveSweepsStaleSidecars: each successful save removes the previous
// generation's content-named sidecar.
func TestSaveSweepsStaleSidecars(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "registry.json")
	if err := Save(path, testSnapshot(t, 70)); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, testSnapshot(t, 75)); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "registry.json-*.vec"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("expected exactly one live sidecar, found %v", matches)
	}
	if _, _, err := Load(path); err != nil {
		t.Fatalf("load after sweep: %v", err)
	}
}

// TestLoadMissingFile keeps the fs.ErrNotExist contract the façade's
// fresh-start path depends on.
func TestLoadMissingFile(t *testing.T) {
	_, _, err := Load(filepath.Join(t.TempDir(), "absent.json"))
	if err == nil {
		t.Fatal("loading a missing file succeeded")
	}
	if !os.IsNotExist(errUnwrapAll(err)) {
		t.Fatalf("error does not unwrap to fs.ErrNotExist: %v", err)
	}
}

func errUnwrapAll(err error) error {
	for {
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return err
		}
		err = u.Unwrap()
	}
}

// TestNormalizedDetachesInlineEmbeddings: a naive snapshot with embeddings
// still inline on records must persist identically to a pre-stripped one.
func TestNormalizedDetachesInlineEmbeddings(t *testing.T) {
	inline := &Snapshot{
		Users:          []core.UserRecord{{UserID: 1, UserName: "ann"}},
		PasswordHashes: map[int]string{1: "h"},
		PEs: []core.PERecord{{
			PEID: 1, PEName: "X", PECode: "c",
			DescEmbedding: []float32{1, 0}, CodeEmbedding: []float32{0, 1},
		}},
		UserPEs:       map[int][]int{1: {1}},
		UserWorkflows: map[int][]int{1: {}},
		WorkflowPEs:   map[int][]int{},
		NextUserID:    2, NextPEID: 2, NextWorkflowID: 1,
	}
	path := filepath.Join(t.TempDir(), "registry.json")
	if err := Save(path, inline); err != nil {
		t.Fatal(err)
	}
	// Save must not have mutated the caller's records.
	if len(inline.PEs[0].DescEmbedding) == 0 {
		t.Fatal("Save mutated the caller's snapshot")
	}
	got, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.PEs[0].DescEmbedding) != 0 {
		t.Fatal("embeddings not detached from records")
	}
	if !reflect.DeepEqual(got.PEDescVecs[1], []float32{1, 0}) || !reflect.DeepEqual(got.PECodeVecs[1], []float32{0, 1}) {
		t.Fatalf("vectors lost: %v %v", got.PEDescVecs, got.PECodeVecs)
	}
}

// TestV2MissingSidecarIsNotErrNotExist: a JSON half whose sidecar is gone
// is a damaged snapshot, not an absent one — the error must NOT satisfy
// fs.ErrNotExist, or the façade's fresh-start exemption would boot an
// empty registry over the still-recoverable JSON and let the shutdown
// save destroy it.
func TestV2MissingSidecarIsNotErrNotExist(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "registry.json")
	if err := Save(path, testSnapshot(t, 70)); err != nil {
		t.Fatal(err)
	}
	hdr, err := readV2Header(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, hdr.Sidecar)); err != nil {
		t.Fatal(err)
	}
	_, _, err = Load(path)
	if err == nil {
		t.Fatal("load with a missing sidecar succeeded")
	}
	if errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing-sidecar error satisfies fs.ErrNotExist (would boot empty over a recoverable file): %v", err)
	}
}

// TestSweepSparesForeignSidecars: the post-save sweep must only remove
// this registry's own content-named generations, never the live sidecar
// of another registry in the same directory whose name shares the prefix.
func TestSweepSparesForeignSidecars(t *testing.T) {
	dir := t.TempDir()
	main := filepath.Join(dir, "registry.json")
	foreign := filepath.Join(dir, "registry.json-staging")
	if err := Save(foreign, testSnapshot(t, 70)); err != nil {
		t.Fatal(err)
	}
	if err := Save(main, testSnapshot(t, 71)); err != nil {
		t.Fatal(err)
	}
	// The foreign registry (whose sidecar "registry.json-staging-<sum>.vec"
	// matches the loose glob "registry.json-*.vec") must still load.
	if _, _, err := Load(foreign); err != nil {
		t.Fatalf("foreign registry damaged by sweep: %v", err)
	}
	if _, _, err := Load(main); err != nil {
		t.Fatal(err)
	}
}

// quantizedSnapshot swaps the desc index of a testSnapshot for one with
// int8 quantization configured, so its snapshot carries a companion set.
func quantizedSnapshot(t *testing.T, n int) *Snapshot {
	t.Helper()
	snap := testSnapshot(t, n)
	desc := index.NewClustered(index.ClusteredConfig{Centroids: 4, NProbe: 2, Quantize: true})
	for id, v := range snap.PEDescVecs {
		desc.Upsert(id, v)
	}
	desc.WaitRetrain()
	snap.Indexes.Desc = desc.Snapshot()
	if snap.Indexes.Desc.Quantized == nil {
		t.Fatal("quantize-configured index snapshot carries no companion set")
	}
	return snap
}

// TestV2QuantizedSectionRoundTrip: a quantized index snapshot persists
// its companion set in a q8 sidecar section and a load restores it bit
// for bit; indexes without a companion set write no q8 section at all,
// which is also why pre-quantization sidecars keep loading unchanged.
func TestV2QuantizedSectionRoundTrip(t *testing.T) {
	snap := quantizedSnapshot(t, 80)
	dir := t.TempDir()
	path := filepath.Join(dir, "registry.json")
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	hdr, err := readV2Header(path)
	if err != nil {
		t.Fatal(err)
	}
	f, sections, err := openSidecar(filepath.Join(dir, hdr.Sidecar))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	have := map[string]bool{}
	for _, sec := range sections {
		have[sec.name] = true
	}
	if !have[secQ8Desc] {
		t.Fatalf("quantized desc index wrote no %s section (sections: %v)", secQ8Desc, have)
	}
	if have[secQ8Code] || have[secQ8WF] {
		t.Fatalf("unquantized indexes wrote q8 sections (sections: %v)", have)
	}
	got, format, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if format != FormatV2 {
		t.Fatalf("detected format %v, want v2", format)
	}
	assertSnapshotsEqual(t, got, stripHashes(snap))
}

// TestV1QuantizedRoundTrip: the monolithic JSON format carries the
// companion set inline through the snapshot's Quantized field.
func TestV1QuantizedRoundTrip(t *testing.T) {
	_, got := loadGoldenV1(t, "packed-quantized.json", quantizedSnapshot(t, 70))
	if got.Indexes.Desc.Quantized == nil {
		t.Fatal("v1 file's inline companion set was not loaded")
	}
}

// TestV2CorruptQuantizedSectionDegrades: the companion set is doubly
// derivable, so a damaged q8 section must cost exactly that section —
// the load succeeds, the index snapshots survive, and the restoring
// index re-quantizes from its float vectors.
func TestV2CorruptQuantizedSectionDegrades(t *testing.T) {
	snap := quantizedSnapshot(t, 80)
	dir := t.TempDir()
	path := filepath.Join(dir, "registry.json")
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	hdr, err := readV2Header(path)
	if err != nil {
		t.Fatal(err)
	}
	vecPath := filepath.Join(dir, hdr.Sidecar)
	f, sections, err := openSidecar(vecPath)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	raw, err := os.ReadFile(vecPath)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, sec := range sections {
		if strings.HasPrefix(sec.name, "q8-") {
			raw[sec.offset+sec.length/2] ^= 0xff
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("no q8 sections present")
	}
	if err := os.WriteFile(vecPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := Load(path)
	if err != nil {
		t.Fatalf("corrupt quantized section failed the whole load: %v", err)
	}
	if got.Indexes == nil || got.Indexes.Desc == nil {
		t.Fatal("index snapshots lost with the quantized section")
	}
	if got.Indexes.Desc.Quantized != nil {
		t.Fatal("corrupt quantized section still surfaced a companion set")
	}
	if len(got.PEs) != len(snap.PEs) {
		t.Fatalf("records lost: %d vs %d", len(got.PEs), len(snap.PEs))
	}
}
