package lexical

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// snapshotVersion is bumped whenever the binary layout or the meaning of a
// field changes; a restore of an unknown version fails and the caller
// rebuilds from source text. Version 2 kept version 1's layout and changed
// what DocSnapshot.SourceSum covers: the source fields (SourceSum), not
// the document text derived from them.
const snapshotVersion = 2

// Snapshot is the index's durable term statistics: everything needed to
// serve BM25 without re-tokenizing the corpus. Each document carries the
// checksum of the source it was built from, so a restore can refuse a
// snapshot that no longer matches the records it rides alongside — the
// same derivable-section contract the vector index snapshots use (see
// storage: absent or stale sections mean rebuild, never corruption).
type Snapshot struct {
	Docs []DocSnapshot
}

// DocSnapshot is one document's stored statistics.
type DocSnapshot struct {
	ID        int
	SourceSum uint64 // the sum the document was upserted under
	Length    uint32 // total tokens
	Terms     []TermCount
}

// TermCount is one (term, tf) pair.
type TermCount struct {
	Term string
	TF   uint32
}

// SourceSum is the FNV-1a checksum that binds a document to the source it
// was derived from. Each field contributes its length and then its bytes,
// so moving text across a field boundary changes the sum. A caller whose
// documents are expensive to derive (the registry inflates a PE's code
// envelope to build one) sums the fields it derives them from and restores
// without deriving anything. The hash is written out rather than taken
// from hash/fnv so a sum costs no hasher and no copy of its strings.
func SourceSum(fields ...string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, f := range fields {
		for n, shift := uint64(len(f)), 0; shift < 64; shift += 8 {
			h = (h ^ (n>>shift)&0xff) * prime
		}
		for i := 0; i < len(f); i++ {
			h = (h ^ uint64(f[i])) * prime
		}
	}
	return h
}

// Snapshot captures the index's current statistics in deterministic order
// (docs by id, terms lexicographically) so identical indexes encode to
// identical bytes — the sidecar's content-derived file naming depends on
// that.
func (ix *Index) Snapshot() *Snapshot {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	snap := &Snapshot{Docs: make([]DocSnapshot, 0, len(ix.docs))}
	for id, entry := range ix.docs {
		doc := DocSnapshot{
			ID:        id,
			SourceSum: entry.sum,
			Length:    entry.length,
			Terms:     make([]TermCount, 0, len(entry.terms)),
		}
		for t, tf := range entry.terms {
			doc.Terms = append(doc.Terms, TermCount{Term: t, TF: tf})
		}
		sort.Slice(doc.Terms, func(i, j int) bool { return doc.Terms[i].Term < doc.Terms[j].Term })
		snap.Docs = append(snap.Docs, doc)
	}
	sort.Slice(snap.Docs, func(i, j int) bool { return snap.Docs[i].ID < snap.Docs[j].ID })
	return snap
}

// Restore replaces the index's contents from a snapshot, validating each
// stored document against the live source in sums (id → the sum an Upsert
// of that document would bind today). The check is all-or-nothing: any
// missing document, extra document, or checksum mismatch returns an error
// and leaves the index unchanged, and the caller rebuilds from source via
// Upsert. A nil snapshot restores only when sums is empty too.
func (ix *Index) Restore(snap *Snapshot, sums map[int]uint64) error {
	var sdocs []DocSnapshot
	if snap != nil {
		sdocs = snap.Docs
	}
	if len(sdocs) != len(sums) {
		return fmt.Errorf("lexical: snapshot has %d docs, store has %d", len(sdocs), len(sums))
	}
	entries := make(map[int]*docEntry, len(sdocs))
	for _, doc := range sdocs {
		sum, ok := sums[doc.ID]
		if !ok {
			return fmt.Errorf("lexical: snapshot doc %d not in store", doc.ID)
		}
		if doc.SourceSum != sum {
			return fmt.Errorf("lexical: snapshot doc %d stale (source changed)", doc.ID)
		}
		if _, dup := entries[doc.ID]; dup {
			return fmt.Errorf("lexical: snapshot doc %d duplicated", doc.ID)
		}
		entry := &docEntry{
			terms:  make(map[string]uint32, len(doc.Terms)),
			length: doc.Length,
			sum:    doc.SourceSum,
		}
		var total uint64
		for _, tc := range doc.Terms {
			if tc.Term == "" || tc.TF == 0 {
				return fmt.Errorf("lexical: snapshot doc %d has empty term or zero tf", doc.ID)
			}
			if _, dup := entry.terms[tc.Term]; dup {
				return fmt.Errorf("lexical: snapshot doc %d repeats term %q", doc.ID, tc.Term)
			}
			entry.terms[tc.Term] = tc.TF
			total += uint64(tc.TF)
		}
		if total != uint64(doc.Length) || doc.Length == 0 {
			return fmt.Errorf("lexical: snapshot doc %d length %d != tf sum %d", doc.ID, doc.Length, total)
		}
		entries[doc.ID] = entry
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.docs = make(map[int]*docEntry, len(entries))
	ix.postings = map[string]map[int]uint32{}
	ix.totalLen = 0
	for id, entry := range entries {
		ix.installLocked(id, entry)
	}
	return nil
}

// Encode writes the snapshot's binary form: little-endian, length-prefixed
// strings, versioned. The layout is
//
//	u32 version | u32 docCount
//	per doc: u64 id | u64 sourceSum | u32 length | u32 termCount
//	  per term: u16 len | bytes | u32 tf
func (s *Snapshot) Encode(w io.Writer) error {
	le := binary.LittleEndian
	var scratch [8]byte
	writeU32 := func(v uint32) error {
		le.PutUint32(scratch[:4], v)
		_, err := w.Write(scratch[:4])
		return err
	}
	writeU64 := func(v uint64) error {
		le.PutUint64(scratch[:8], v)
		_, err := w.Write(scratch[:8])
		return err
	}
	if err := writeU32(snapshotVersion); err != nil {
		return err
	}
	if err := writeU32(uint32(len(s.Docs))); err != nil {
		return err
	}
	for _, doc := range s.Docs {
		if err := writeU64(uint64(doc.ID)); err != nil {
			return err
		}
		if err := writeU64(doc.SourceSum); err != nil {
			return err
		}
		if err := writeU32(doc.Length); err != nil {
			return err
		}
		if err := writeU32(uint32(len(doc.Terms))); err != nil {
			return err
		}
		for _, tc := range doc.Terms {
			if len(tc.Term) > 0xFFFF {
				return fmt.Errorf("lexical: term longer than 64KiB")
			}
			le.PutUint16(scratch[:2], uint16(len(tc.Term)))
			if _, err := w.Write(scratch[:2]); err != nil {
				return err
			}
			if _, err := io.WriteString(w, tc.Term); err != nil {
				return err
			}
			if err := writeU32(tc.TF); err != nil {
				return err
			}
		}
	}
	return nil
}

// DecodeSnapshot reads the binary form Encode writes. It validates
// structure (version, counts, sane lengths) but not source checksums —
// that is Restore's job, which has the live source to compare against.
// It reads a few bytes at a time, so hand it a buffered reader. Equal
// terms share one string: a corpus repeats each of its terms in many
// documents, and the restored index keeps every one of them alive.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	le := binary.LittleEndian
	var scratch [8]byte
	var termBuf []byte
	interned := map[string]string{}
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(r, scratch[:4]); err != nil {
			return 0, err
		}
		return le.Uint32(scratch[:4]), nil
	}
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(r, scratch[:8]); err != nil {
			return 0, err
		}
		return le.Uint64(scratch[:8]), nil
	}
	version, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("lexical: snapshot header: %w", err)
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("lexical: unknown snapshot version %d", version)
	}
	docCount, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("lexical: snapshot doc count: %w", err)
	}
	snap := &Snapshot{Docs: make([]DocSnapshot, 0, min(int(docCount), 1<<16))}
	for i := uint32(0); i < docCount; i++ {
		id, err := readU64()
		if err != nil {
			return nil, fmt.Errorf("lexical: snapshot doc %d id: %w", i, err)
		}
		sum, err := readU64()
		if err != nil {
			return nil, fmt.Errorf("lexical: snapshot doc %d sum: %w", i, err)
		}
		length, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("lexical: snapshot doc %d length: %w", i, err)
		}
		termCount, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("lexical: snapshot doc %d term count: %w", i, err)
		}
		doc := DocSnapshot{
			ID:        int(id),
			SourceSum: sum,
			Length:    length,
			Terms:     make([]TermCount, 0, min(int(termCount), 1<<12)),
		}
		for j := uint32(0); j < termCount; j++ {
			if _, err := io.ReadFull(r, scratch[:2]); err != nil {
				return nil, fmt.Errorf("lexical: snapshot doc %d term %d: %w", i, j, err)
			}
			termLen := int(le.Uint16(scratch[:2]))
			if cap(termBuf) < termLen {
				termBuf = make([]byte, termLen)
			}
			termBuf = termBuf[:termLen]
			if _, err := io.ReadFull(r, termBuf); err != nil {
				return nil, fmt.Errorf("lexical: snapshot doc %d term %d bytes: %w", i, j, err)
			}
			term, ok := interned[string(termBuf)]
			if !ok {
				term = string(termBuf)
				interned[term] = term
			}
			tf, err := readU32()
			if err != nil {
				return nil, fmt.Errorf("lexical: snapshot doc %d term %d tf: %w", i, j, err)
			}
			doc.Terms = append(doc.Terms, TermCount{Term: term, TF: tf})
		}
		snap.Docs = append(snap.Docs, doc)
	}
	return snap, nil
}
