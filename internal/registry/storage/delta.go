package storage

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"laminar/internal/core"
)

// The delta journal is the incremental half of v2 persistence: instead of
// rewriting the full snapshot pair on every save, a small change appends a
// small *segment* next to the base — `<base>.delta-000001`, -000002, … —
// holding only the records, ownership rows and embedding vectors that
// changed since the previous save. Each segment is a self-contained
// sectioned container in the sidecar's mold:
//
//	magic "LMDJ" | u32 version
//	section payloads, back to back:
//	  "meta"    JSON  {format, version, seq, base, parent}
//	  "records" JSON  upserts, removals, ownership rows, next-id counters
//	  "pe-desc" / "pe-code" / "wf-desc"  binary vec sections (upserts only)
//	footer: u32 count, then per-section {name, offset, length, fnv1a64}
//	trailer: u64 footerOffset | magic "LMDE"
//
// Chain integrity is a hash chain over the combined section checksums:
// segment 1's meta names the base snapshot's pairing sum (the sidecarSum
// echoed in the v2 JSON header), and every later segment names its
// predecessor's combined sum. A loader therefore proves, before applying
// anything, that the segments it found belong to exactly this base and
// form an unbroken prefix — segments from a pre-compaction base (stale
// leftovers of a crash between install and sweep) fail the base check and
// are ignored, and a truncated or corrupt *tail* segment degrades to
// lossless recovery of the prefix before it. A damaged segment *followed*
// by a provably-chained later segment is unrecoverable data loss and fails
// the load loudly; silently skipping the hole would load wrong data.
//
// Install ordering is the same story as the base pair: a segment is
// written to a temp name, fsynced, and renamed to its sequence name, so a
// crash mid-write leaves nothing visible. A full save supersedes the whole
// journal and sweeps it (saveV2 removes every segment after the JSON
// rename commits).
const (
	deltaMagic        = "LMDJ"
	deltaTrailerMagic = "LMDE"
	deltaVersion      = 1
	deltaFormatName   = "laminar/delta"

	secDeltaMeta    = "meta"
	secDeltaRecords = "records"
)

// Delta is one journal segment's logical content: everything that changed
// between two saves. Upserted records carry their embeddings detached in
// the vec maps (exactly like Snapshot); an upserted record with no vec-map
// entry has no embedding of that kind, which is how an embedding removal
// travels. Ownership rows are full replacements for the touched owner,
// never diffs — a row's absence means "unchanged", not "empty".
type Delta struct {
	Users            []core.UserRecord
	PasswordHashes   map[int]string
	PEs              []core.PERecord
	Workflows        []core.WorkflowRecord
	RemovedPEs       []int
	RemovedWorkflows []int
	UserPEs          map[int][]int
	UserWorkflows    map[int][]int
	WorkflowPEs      map[int][]int
	NextUserID       int
	NextPEID         int
	NextWorkflowID   int

	PEDescVecs       map[int][]float32
	PECodeVecs       map[int][]float32
	WorkflowDescVecs map[int][]float32
}

// Empty reports whether the delta carries no changes at all (the next-id
// counters alone don't warrant a segment — they only ever advance alongside
// a record change).
func (d *Delta) Empty() bool {
	return len(d.Users) == 0 && len(d.PEs) == 0 && len(d.Workflows) == 0 &&
		len(d.RemovedPEs) == 0 && len(d.RemovedWorkflows) == 0 &&
		len(d.UserPEs) == 0 && len(d.UserWorkflows) == 0 && len(d.WorkflowPEs) == 0
}

// deltaMeta is the chain-link header section.
type deltaMeta struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Seq     uint64 `json:"seq"`
	Base    string `json:"base"`
	Parent  string `json:"parent"`
}

// deltaRecords is the JSON wire shape of the records section.
type deltaRecords struct {
	Users            []core.UserRecord     `json:"users,omitempty"`
	PasswordHashes   map[int]string        `json:"passwordHashes,omitempty"`
	PEs              []core.PERecord       `json:"pes,omitempty"`
	Workflows        []core.WorkflowRecord `json:"workflows,omitempty"`
	RemovedPEs       []int                 `json:"removedPes,omitempty"`
	RemovedWorkflows []int                 `json:"removedWorkflows,omitempty"`
	UserPEs          map[int][]int         `json:"userPes,omitempty"`
	UserWorkflows    map[int][]int         `json:"userWorkflows,omitempty"`
	WorkflowPEs      map[int][]int         `json:"workflowPes,omitempty"`
	NextUserID       int                   `json:"nextUserId"`
	NextPEID         int                   `json:"nextPeId"`
	NextWorkflowID   int                   `json:"nextWorkflowId"`
}

// DeltaChain is the loader/saver bookkeeping for a journal: the identity of
// the base snapshot, the last installed segment and the journal's on-disk
// footprint. The zero value means "no delta-capable base" (v1 file, or no
// save yet) — SaveDelta refuses it and the owner falls back to a full save.
type DeltaChain struct {
	// BaseSum is the pairing fingerprint of the base v2 snapshot (its
	// sidecarSum); "" when the base cannot anchor a journal.
	BaseSum string
	// Seq is the sequence number of the last installed segment (0 = none).
	Seq uint64
	// LastSum is the combined section checksum of the last installed
	// segment; the next segment's parent link.
	LastSum string
	// Bytes is the total size of the installed segments.
	Bytes int64
}

// tip is the checksum the next segment must name as its parent.
func (c DeltaChain) tip() string {
	if c.Seq == 0 {
		return c.BaseSum
	}
	return c.LastSum
}

// deltaSegmentName names segment seq of the journal for base
// ("registry.json" → "registry.json.delta-000001"). Fixed-width sequence
// numbers keep lexical order equal to numeric order for the first million
// segments; compaction thresholds keep real journals orders of magnitude
// shorter.
func deltaSegmentName(base string, seq uint64) string {
	return fmt.Sprintf("%s.delta-%06d", base, seq)
}

// parseDeltaSeq extracts the sequence number from a segment file name, or
// 0 when name is not a well-formed segment name for base.
func parseDeltaSeq(name, base string) uint64 {
	rest, ok := strings.CutPrefix(name, base+".delta-")
	if !ok || len(rest) < 6 {
		return 0
	}
	var seq uint64
	for _, c := range rest {
		if c < '0' || c > '9' {
			return 0
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq
}

// BaseIdentity reports the pairing fingerprint of the snapshot at path that
// a delta journal chains to: the v2 sidecarSum, or "" for a v1 file (which
// cannot anchor a journal).
func BaseIdentity(path string) (string, error) {
	format, err := DetectFormat(path)
	if err != nil {
		return "", err
	}
	if format != FormatV2 {
		return "", nil
	}
	hdr, err := readV2Header(path)
	if err != nil {
		return "", err
	}
	return hdr.SidecarSum, nil
}

// SaveDelta installs the next journal segment for the base snapshot at
// path, returning the advanced chain. The caller owns chain continuity
// (the registry tracks it across saves and loads) and must serialize calls
// the same way it serializes full saves.
func SaveDelta(path string, chain DeltaChain, d *Delta) (DeltaChain, error) {
	if chain.BaseSum == "" {
		return chain, fmt.Errorf("storage: no delta-capable base snapshot to chain to (save a full v2 snapshot first)")
	}
	seq := chain.Seq + 1
	meta := deltaMeta{
		Format:  deltaFormatName,
		Version: deltaVersion,
		Seq:     seq,
		Base:    chain.BaseSum,
		Parent:  chain.tip(),
	}
	dir, base := filepath.Dir(path), filepath.Base(path)
	segPath := filepath.Join(dir, deltaSegmentName(base, seq))
	sum, size, err := writeDeltaSegment(segPath, meta, d)
	if err != nil {
		return chain, err
	}
	return DeltaChain{BaseSum: chain.BaseSum, Seq: seq, LastSum: sum, Bytes: chain.Bytes + size}, nil
}

// writeDeltaSegment writes one segment atomically (temp + fsync + rename —
// the rename is the install point, so a crash mid-write leaves nothing
// visible under a sequence name) and returns its combined section checksum
// and size.
func writeDeltaSegment(path string, meta deltaMeta, d *Delta) (sum string, size int64, err error) {
	var sections []sidecarSection
	err = writeFileAtomic(path, func(f *os.File) error {
		cw := &countingWriter{w: bufio.NewWriterSize(f, 1<<16)}
		if _, err := cw.Write([]byte(deltaMagic)); err != nil {
			return err
		}
		if err := writeU32(cw, deltaVersion); err != nil {
			return err
		}
		writeSec := func(name string, body func(io.Writer) error) error {
			start := cw.off
			cw.beginSection()
			if err := body(cw); err != nil {
				return fmt.Errorf("storage: write delta section %s: %w", name, err)
			}
			sections = append(sections, cw.endSection(name, start))
			return nil
		}
		if err := writeSec(secDeltaMeta, func(w io.Writer) error {
			return json.NewEncoder(w).Encode(&meta)
		}); err != nil {
			return err
		}
		if err := writeSec(secDeltaRecords, func(w io.Writer) error {
			return json.NewEncoder(w).Encode(&deltaRecords{
				Users:            d.Users,
				PasswordHashes:   d.PasswordHashes,
				PEs:              d.PEs,
				Workflows:        d.Workflows,
				RemovedPEs:       d.RemovedPEs,
				RemovedWorkflows: d.RemovedWorkflows,
				UserPEs:          d.UserPEs,
				UserWorkflows:    d.UserWorkflows,
				WorkflowPEs:      d.WorkflowPEs,
				NextUserID:       d.NextUserID,
				NextPEID:         d.NextPEID,
				NextWorkflowID:   d.NextWorkflowID,
			})
		}); err != nil {
			return err
		}
		for _, vs := range []struct {
			name string
			vecs map[int][]float32
		}{
			{secPEDesc, d.PEDescVecs},
			{secPECode, d.PECodeVecs},
			{secWFDesc, d.WorkflowDescVecs},
		} {
			vecs := vs.vecs
			if err := writeSec(vs.name, func(w io.Writer) error { return encodeVecSection(w, vecs) }); err != nil {
				return err
			}
		}
		footerOff := cw.off
		if err := writeU32(cw, uint32(len(sections))); err != nil {
			return err
		}
		for _, sec := range sections {
			if err := writeSecHeader(cw, sec); err != nil {
				return err
			}
		}
		if err := writeU64(cw, footerOff); err != nil {
			return err
		}
		if _, err := cw.Write([]byte(deltaTrailerMagic)); err != nil {
			return err
		}
		size = int64(cw.off)
		return cw.w.Flush()
	})
	if err != nil {
		return "", 0, err
	}
	return combinedSum(sections), size, nil
}

// DecodeDelta validates and decodes one journal segment from raw bytes: the
// magic/version head, the footer-indexed section table, every per-section
// checksum, and the meta and payload sections themselves. It returns the
// delta, its chain-link meta and the segment's combined checksum. This is
// the whole trust boundary for journal bytes — the crash-torture tests and
// the FuzzDecodeDelta target drive arbitrary inputs through it, and the
// contract is an error, never a panic and never silently wrong data.
func DecodeDelta(data []byte) (*Delta, DeltaMeta, string, error) {
	r := bytes.NewReader(data)
	sections, err := readSectionTable(r, int64(len(data)), deltaMagic, deltaTrailerMagic, deltaVersion, "delta segment")
	if err != nil {
		return nil, DeltaMeta{}, "", err
	}
	byName := map[string]sidecarSection{}
	for _, sec := range sections {
		byName[sec.name] = sec
	}
	readJSON := func(name string, into any) error {
		sec, ok := byName[name]
		if !ok {
			return fmt.Errorf("storage: delta segment is missing section %s", name)
		}
		return readSection(r, sec, func(sr io.Reader) error {
			dec := json.NewDecoder(sr)
			if err := dec.Decode(into); err != nil {
				return err
			}
			// Trailing garbage after the JSON document inside a checksummed
			// section cannot happen from our writer; reject it rather than
			// ignore bytes that were deliberately placed there.
			if dec.More() {
				return fmt.Errorf("trailing data after JSON document")
			}
			return nil
		})
	}
	var meta deltaMeta
	if err := readJSON(secDeltaMeta, &meta); err != nil {
		return nil, DeltaMeta{}, "", err
	}
	if meta.Format != deltaFormatName || meta.Version != deltaVersion {
		return nil, DeltaMeta{}, "", fmt.Errorf("storage: delta segment claims format %q version %d", meta.Format, meta.Version)
	}
	if meta.Seq == 0 || meta.Base == "" || meta.Parent == "" {
		return nil, DeltaMeta{}, "", fmt.Errorf("storage: delta segment meta incomplete (seq %d)", meta.Seq)
	}
	var recs deltaRecords
	if err := readJSON(secDeltaRecords, &recs); err != nil {
		return nil, DeltaMeta{}, "", err
	}
	d := &Delta{
		Users:            recs.Users,
		PasswordHashes:   recs.PasswordHashes,
		PEs:              recs.PEs,
		Workflows:        recs.Workflows,
		RemovedPEs:       recs.RemovedPEs,
		RemovedWorkflows: recs.RemovedWorkflows,
		UserPEs:          recs.UserPEs,
		UserWorkflows:    recs.UserWorkflows,
		WorkflowPEs:      recs.WorkflowPEs,
		NextUserID:       recs.NextUserID,
		NextPEID:         recs.NextPEID,
		NextWorkflowID:   recs.NextWorkflowID,
	}
	readVecs := func(name string) (map[int][]float32, error) {
		sec, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("storage: delta segment is missing section %s", name)
		}
		return decodeSection(r, sec, decodeVecSection)
	}
	if d.PEDescVecs, err = readVecs(secPEDesc); err != nil {
		return nil, DeltaMeta{}, "", err
	}
	if d.PECodeVecs, err = readVecs(secPECode); err != nil {
		return nil, DeltaMeta{}, "", err
	}
	if d.WorkflowDescVecs, err = readVecs(secWFDesc); err != nil {
		return nil, DeltaMeta{}, "", err
	}
	return d, DeltaMeta{Seq: meta.Seq, Base: meta.Base, Parent: meta.Parent}, combinedSum(sections), nil
}

// DeltaMeta is a decoded segment's chain link, exported for tooling and
// tests.
type DeltaMeta struct {
	Seq    uint64
	Base   string
	Parent string
}

// readDeltaSegment decodes the segment file at path.
func readDeltaSegment(path string) (d *Delta, meta DeltaMeta, sum string, size int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, DeltaMeta{}, "", 0, err
	}
	d, meta, sum, err = DecodeDelta(data)
	return d, meta, sum, int64(len(data)), err
}

// LoadWithDeltas loads the snapshot at path together with its valid delta
// chain. The returned deltas are the longest prefix of segments that
// provably chain to this exact base, in order; the caller applies them on
// top of the base snapshot. Recovery semantics:
//
//   - a missing, truncated, corrupt or foreign-base segment at the *tail*
//     ends the chain — the prefix before it loads losslessly (a crash mid
//     append loses at most the never-installed segment);
//   - the same damage *mid-chain* — a later segment provably belongs to
//     this base — is unrecoverable loss and fails the load, because
//     applying segments across the hole would silently load wrong data.
func LoadWithDeltas(path string) (*Snapshot, []*Delta, DeltaChain, Format, error) {
	snap, format, err := Load(path)
	if err != nil {
		return nil, nil, DeltaChain{}, 0, err
	}
	if format != FormatV2 {
		return snap, nil, DeltaChain{}, format, nil
	}
	baseSum, err := BaseIdentity(path)
	if err != nil {
		return nil, nil, DeltaChain{}, 0, err
	}
	chain := DeltaChain{BaseSum: baseSum}
	dir, base := filepath.Dir(path), filepath.Base(path)
	var deltas []*Delta
	journalStart := time.Now()
	for seq := uint64(1); ; seq++ {
		segPath := filepath.Join(dir, deltaSegmentName(base, seq))
		d, meta, sum, size, derr := readDeltaSegment(segPath)
		if derr == nil && meta.Base != baseSum {
			derr = fmt.Errorf("storage: delta segment %d chains to base %s, not %s (stale journal)", seq, meta.Base, baseSum)
		}
		if derr == nil && (meta.Seq != seq || meta.Parent != chain.tip()) {
			derr = fmt.Errorf("storage: delta segment %d does not chain (seq %d, parent %s)", seq, meta.Seq, meta.Parent)
		}
		if derr != nil {
			if later := laterChainSegment(dir, base, seq, baseSum); later != 0 {
				return nil, nil, DeltaChain{}, 0, fmt.Errorf("storage: delta journal damaged at segment %d but segment %d still chains to this base — refusing to load around the hole: %v", seq, later, derr)
			}
			// Tail damage (or simply the end of the journal): the prefix is
			// the last consistent state. Quantifying what was dropped is the
			// caller's journal-sweep job; loading it is ours.
			break
		}
		deltas = append(deltas, d)
		chain.Seq, chain.LastSum, chain.Bytes = seq, sum, chain.Bytes+size
	}
	snap.LoadStages.Journal = time.Since(journalStart)
	return snap, deltas, chain, format, nil
}

// laterChainSegment reports the lowest segment sequence above seq that
// decodes cleanly and names baseSum as its base — proof that the journal
// did not end at seq. Undecodable later files prove nothing (they may be
// unrelated garbage) and stale-base files are exactly the leftovers a
// compaction sweep missed.
func laterChainSegment(dir, base string, seq uint64, baseSum string) uint64 {
	matches, err := filepath.Glob(filepath.Join(dir, base+".delta-*"))
	if err != nil {
		return 0
	}
	seqs := make([]uint64, 0, len(matches))
	for _, m := range matches {
		if s := parseDeltaSeq(filepath.Base(m), base); s > seq {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		_, meta, _, _, err := readDeltaSegment(filepath.Join(dir, deltaSegmentName(base, s)))
		if err == nil && meta.Base == baseSum {
			return s
		}
	}
	return 0
}

// cleanDeltaSegments removes every journal segment for base in dir. A full
// save calls it after its JSON rename commits: the new base subsumes the
// journal, and any segment left behind would be a stale-base leftover the
// loader has to ignore anyway.
func cleanDeltaSegments(dir, base string) {
	matches, err := filepath.Glob(filepath.Join(dir, base+".delta-*"))
	if err != nil {
		return
	}
	for _, m := range matches {
		if parseDeltaSeq(filepath.Base(m), base) != 0 {
			os.Remove(m)
		}
	}
}

// DeltaChainOf scans the journal for the base at path without loading the
// base records — the chain state a store needs to *continue* a journal it
// did not just write (benchmarks and tooling; the registry gets the same
// state from LoadWithDeltas).
func DeltaChainOf(path string) (DeltaChain, error) {
	baseSum, err := BaseIdentity(path)
	if err != nil {
		return DeltaChain{}, err
	}
	chain := DeltaChain{BaseSum: baseSum}
	if baseSum == "" {
		return chain, nil
	}
	dir, base := filepath.Dir(path), filepath.Base(path)
	for seq := uint64(1); ; seq++ {
		_, meta, sum, size, derr := readDeltaSegment(filepath.Join(dir, deltaSegmentName(base, seq)))
		if derr != nil || meta.Base != baseSum || meta.Seq != seq || meta.Parent != chain.tip() {
			break
		}
		chain.Seq, chain.LastSum, chain.Bytes = seq, sum, chain.Bytes+size
	}
	return chain, nil
}
