// Package storage is the registry's persistence layer: it owns the on-disk
// snapshot formats and nothing else. The serving layer (internal/registry)
// hands it a logical Snapshot — plain records, relation tables, embedding
// maps and index snapshots — and gets one back on load; locking, index
// maintenance and every business rule stay out of this package.
//
// Two formats are read, one is written:
//
//   - v1 (legacy, read-only): one monolithic JSON document, embeddings
//     packed as base64 float32, index snapshots embedded as JSON. Every
//     registry file written before the layered storage refactor is a v1
//     file. v1 loads forever (testdata/v1 holds real files of each
//     vintage); nothing writes it.
//   - v2 (current): record metadata is *streamed* as JSON — encoded and
//     decoded record by record, never materializing the registry as one
//     giant in-memory document — while embeddings and index snapshots live
//     in a binary little-endian float32 sidecar file with per-section
//     FNV-1a checksums. The sidecar is content-named and installed before
//     the JSON, so the pair is crash-consistent (see docs/storage.md).
//
// Load auto-detects the format and Save always writes v2, which is also
// the entire migration story: load a v1 file, save, and the registry is a
// v2 pair on disk.
package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"laminar/internal/core"
	"laminar/internal/index"
	"laminar/internal/lexical"
)

// Format identifies an on-disk snapshot format.
type Format int

// The supported formats.
const (
	// FormatV1 is the legacy monolithic JSON document (read-only).
	FormatV1 Format = 1
	// FormatV2 is the streamed JSON + binary sidecar pair (current).
	FormatV2 Format = 2
)

// String names the format ("v1", "v2").
func (f Format) String() string {
	switch f {
	case FormatV1:
		return "v1"
	case FormatV2:
		return "v2"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// IndexSnapshots groups the per-embedding-kind vector-index snapshots.
type IndexSnapshots struct {
	Desc     *index.Snapshot `json:"desc,omitempty"`
	Code     *index.Snapshot `json:"code,omitempty"`
	Workflow *index.Snapshot `json:"workflow,omitempty"`
}

// LexicalSnapshots groups the BM25 inverted-index snapshots (PE documents
// and workflow documents). Like the vector-index snapshots they are
// derivable state: v2 persists them as optional sidecar sections, v1 does
// not persist them at all, and a missing or stale snapshot means the
// serving layer re-tokenizes the records — never a load failure.
type LexicalSnapshots struct {
	PE       *lexical.Snapshot
	Workflow *lexical.Snapshot
}

// Snapshot is the logical registry state exchanged with the serving layer.
// Records never carry embeddings here — vectors travel in the id-keyed
// maps, which is what lets v2 route them to the binary sidecar. Save
// normalizes a snapshot whose records still hold embeddings inline, so
// callers may be naive about it.
type Snapshot struct {
	Users          []core.UserRecord
	PasswordHashes map[int]string
	PEs            []core.PERecord
	Workflows      []core.WorkflowRecord
	UserPEs        map[int][]int
	UserWorkflows  map[int][]int
	WorkflowPEs    map[int][]int
	NextUserID     int
	NextPEID       int
	NextWorkflowID int

	// Embedding vectors by record id; only records with a non-empty
	// embedding appear.
	PEDescVecs       map[int][]float32
	PECodeVecs       map[int][]float32
	WorkflowDescVecs map[int][]float32

	// Indexes carries the serialized vector-index structure (centroids +
	// assignments, not vectors); nil when no usable snapshot exists, in
	// which case the serving layer rebuilds.
	Indexes *IndexSnapshots

	// Lexical carries the BM25 inverted-index statistics; nil when no
	// usable snapshot exists (v1 files, pre-lexical v2 sidecars), in which
	// case the serving layer re-tokenizes the records.
	Lexical *LexicalSnapshots

	// LoadStages reports where the Load that produced this snapshot spent
	// its time. Observability only: Save ignores it.
	LoadStages LoadStages
}

// LoadStages is the time one load spent per stage, summed over that
// stage's decodes. Decodes of a v2 load run side by side on up to
// GOMAXPROCS processors, so the stages can add up to more than the load's
// wall-clock time. A v1 load reports nothing.
type LoadStages struct {
	Records         time.Duration // the JSON record stream
	Vectors         time.Duration // pe-desc, pe-code, wf-desc
	IndexSections   time.Duration // idx-* and q8-*
	LexicalSections time.Duration // lex-*
	Journal         time.Duration // reading and decoding delta segments
}

// Save writes the snapshot to path as a v2 pair, atomically: a crash
// mid-write never damages the previous good snapshot. Concurrent Saves to
// the *same* path must be serialized by the caller (the registry store
// does): the post-install sidecar sweep assumes no other install is in
// flight for that path.
func Save(path string, snap *Snapshot) error {
	return saveV2(path, snap.normalized())
}

// Load reads a snapshot from path, auto-detecting the format, and reports
// which format the file was in. The returned snapshot always has
// embeddings detached into the vector maps regardless of source format.
func Load(path string) (*Snapshot, Format, error) {
	format, err := DetectFormat(path)
	if err != nil {
		return nil, 0, err
	}
	switch format {
	case FormatV2:
		snap, err := loadV2(path)
		return snap, FormatV2, err
	default:
		snap, err := loadV1(path)
		return snap, FormatV1, err
	}
}

// DetectFormat sniffs the on-disk format of path without loading it. v2
// files start with the exact byte prefix the v2 writer emits; everything
// else that exists is treated as v1 (whose own parser reports corruption).
func DetectFormat(path string) (Format, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("storage: read snapshot: %w", err)
	}
	defer f.Close()
	prefix := make([]byte, len(v2Prefix))
	n, _ := f.Read(prefix)
	if string(prefix[:n]) == v2Prefix {
		return FormatV2, nil
	}
	return FormatV1, nil
}

// DiskSize reports the total on-disk footprint of the snapshot at path —
// the file itself plus, for v2, its sidecar.
func DiskSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	total := fi.Size()
	format, err := DetectFormat(path)
	if err != nil {
		return 0, err
	}
	if format == FormatV2 {
		hdr, err := readV2Header(path)
		if err != nil {
			return 0, err
		}
		sfi, err := os.Stat(filepath.Join(filepath.Dir(path), hdr.Sidecar))
		if err != nil {
			return 0, err
		}
		total += sfi.Size()
		// Journal segments are part of the snapshot's footprint: a reload
		// reads base + segments, and the churn benchmarks compare exactly
		// that against a monolithic full save.
		dir, base := filepath.Dir(path), filepath.Base(path)
		if matches, err := filepath.Glob(filepath.Join(dir, base+".delta-*")); err == nil {
			for _, m := range matches {
				if parseDeltaSeq(filepath.Base(m), base) == 0 {
					continue
				}
				if fi, err := os.Stat(m); err == nil {
					total += fi.Size()
				}
			}
		}
	}
	return total, nil
}

// normalized returns a copy of the snapshot with record-inline embeddings
// detached into the vector maps and records sorted by id, without mutating
// the caller's snapshot. The record slices are always copied (sorting must
// not reorder the caller's); the vector maps are copy-on-write — the
// registry's collectSnapshot already hands over fully-detached maps, and
// re-copying three 10k-entry maps on every periodic save would be pure
// allocation overhead, so they are only cloned when a naive caller left
// embeddings inline. Vector slices themselves are shared, never copied —
// they are immutable by convention across the registry.
func (s *Snapshot) normalized() *Snapshot {
	out := *s
	out.Users = append([]core.UserRecord(nil), s.Users...)
	out.PEs = append([]core.PERecord(nil), s.PEs...)
	out.Workflows = append([]core.WorkflowRecord(nil), s.Workflows...)
	needsDetach := false
	for i := range out.PEs {
		if len(out.PEs[i].DescEmbedding) > 0 || len(out.PEs[i].CodeEmbedding) > 0 {
			needsDetach = true
			break
		}
	}
	if !needsDetach {
		for i := range out.Workflows {
			if len(out.Workflows[i].DescEmbedding) > 0 {
				needsDetach = true
				break
			}
		}
	}
	if needsDetach {
		out.PEDescVecs = copyVecMap(s.PEDescVecs)
		out.PECodeVecs = copyVecMap(s.PECodeVecs)
		out.WorkflowDescVecs = copyVecMap(s.WorkflowDescVecs)
		for i := range out.PEs {
			pe := &out.PEs[i]
			if len(pe.DescEmbedding) > 0 {
				out.PEDescVecs[pe.PEID] = pe.DescEmbedding
				pe.DescEmbedding = nil
			}
			if len(pe.CodeEmbedding) > 0 {
				out.PECodeVecs[pe.PEID] = pe.CodeEmbedding
				pe.CodeEmbedding = nil
			}
		}
		for i := range out.Workflows {
			wf := &out.Workflows[i]
			if len(wf.DescEmbedding) > 0 {
				out.WorkflowDescVecs[wf.WorkflowID] = wf.DescEmbedding
				wf.DescEmbedding = nil
			}
		}
	}
	if out.PEDescVecs == nil {
		out.PEDescVecs = map[int][]float32{}
	}
	if out.PECodeVecs == nil {
		out.PECodeVecs = map[int][]float32{}
	}
	if out.WorkflowDescVecs == nil {
		out.WorkflowDescVecs = map[int][]float32{}
	}
	sort.Slice(out.Users, func(i, j int) bool { return out.Users[i].UserID < out.Users[j].UserID })
	sort.Slice(out.PEs, func(i, j int) bool { return out.PEs[i].PEID < out.PEs[j].PEID })
	sort.Slice(out.Workflows, func(i, j int) bool { return out.Workflows[i].WorkflowID < out.Workflows[j].WorkflowID })
	return &out
}

func copyVecMap(m map[int][]float32) map[int][]float32 {
	out := make(map[int][]float32, len(m))
	for id, v := range m {
		out[id] = v
	}
	return out
}

// writeFileAtomic writes data-producing fn to a temp file in path's
// directory, fsyncs, and renames over path. The fsync-before-rename matters:
// some filesystems commit the rename ahead of the data blocks, and a power
// loss would otherwise install an empty file.
func writeFileAtomic(path string, fn func(f *os.File) error) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return fmt.Errorf("storage: write snapshot: %w", err)
	}
	tmp := f.Name()
	err = fn(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: write snapshot: %w", err)
	}
	return nil
}
