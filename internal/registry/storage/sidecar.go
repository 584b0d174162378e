package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"laminar/internal/index"
	"laminar/internal/lexical"
)

// The sidecar is the binary half of a v2 snapshot: every embedding vector
// and every vector-index snapshot, as little-endian float32, so the JSON
// half stays small and parse-cheap. Layout:
//
//	magic "LMSC" | u32 version
//	section payloads, back to back
//	footer: u32 count, then per section
//	        {u16 nameLen, name, u64 offset, u64 length, u64 fnv1a64(payload)}
//	trailer: u64 footerOffset | magic "LMSE"
//
// The footer-at-the-end design is what lets the writer stream: payloads are
// written (and hashed) in one pass with no per-section buffering, and the
// reader seeks to the trailer to find them again. Each section carries its
// own checksum so corruption is localized; the combined checksum over all
// section descriptors is echoed in the JSON header, pairing the two files
// of a generation.
const (
	sidecarMagic        = "LMSC"
	sidecarTrailerMagic = "LMSE"
	sidecarVersion      = 1
)

// Section names. The three vector sections are always present; the index
// sections are present only when the registry had a snapshot to persist.
// The q8 sections carry each index's int8 quantized companion set and are
// doubly optional: written only when quantization was on, and treated as
// derivable on read — absent or corrupt q8 bytes degrade to a rebuild from
// the float vectors, never to a load failure. Pre-quantization sidecars
// therefore keep loading unchanged.
// The lex sections carry the BM25 inverted-index statistics and follow the
// same optional/derivable contract as q8: written only when the registry
// had lexical snapshots to persist, rebuilt from record text when absent or
// corrupt. Pre-lexical sidecars keep loading unchanged.
const (
	secPEDesc  = "pe-desc"
	secPECode  = "pe-code"
	secWFDesc  = "wf-desc"
	secIdxDesc = "idx-desc"
	secIdxCode = "idx-code"
	secIdxWF   = "idx-wf"
	secQ8Desc  = "q8-desc"
	secQ8Code  = "q8-code"
	secQ8WF    = "q8-wf"
	secLexPE   = "lex-pe"
	secLexWF   = "lex-wf"
)

type sidecarSection struct {
	name   string
	offset uint64
	length uint64
	sum    uint64
}

// combinedSum folds every section descriptor into one pairing fingerprint.
func combinedSum(sections []sidecarSection) string {
	h := fnv.New64a()
	for _, s := range sections {
		io.WriteString(h, s.name)
		var b [24]byte
		binary.LittleEndian.PutUint64(b[0:], s.offset)
		binary.LittleEndian.PutUint64(b[8:], s.length)
		binary.LittleEndian.PutUint64(b[16:], s.sum)
		h.Write(b[:])
	}
	return fmt.Sprintf("fnv1a64:%016x", h.Sum64())
}

// sidecarName derives the content-addressed sidecar file name for a
// registry at base (e.g. "registry.json" → "registry.json-<sum>.vec").
// Naming by content is what makes the two-file install crash-consistent:
// the new sidecar lands under a name no previous JSON references, so until
// the JSON rename commits, the old JSON + old sidecar pair stays intact.
func sidecarName(base, sum string) string {
	short := strings.TrimPrefix(sum, "fnv1a64:")
	return base + "-" + short + ".vec"
}

// countingWriter tracks the byte offset and hashes everything written while
// a section is open.
type countingWriter struct {
	w   *bufio.Writer
	off uint64
	h   hash.Hash64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.off += uint64(n)
	if cw.h != nil {
		cw.h.Write(p[:n])
	}
	return n, err
}

func (cw *countingWriter) beginSection() { cw.h = fnv.New64a() }

func (cw *countingWriter) endSection(name string, start uint64) sidecarSection {
	sec := sidecarSection{name: name, offset: start, length: cw.off - start, sum: cw.h.Sum64()}
	cw.h = nil
	return sec
}

// writeSidecar writes the sidecar for snap into dir, returning the final
// (content-named) file name and the combined checksum to echo in the JSON
// header. The file is written to a temp name, fsynced, and renamed to its
// content name before the caller installs the JSON.
func writeSidecar(dir, base string, snap *Snapshot) (name, sum string, err error) {
	f, err := os.CreateTemp(dir, "."+base+".vec-*")
	if err != nil {
		return "", "", fmt.Errorf("storage: write sidecar: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()

	cw := &countingWriter{w: bufio.NewWriterSize(f, 1<<16)}
	if _, err = cw.Write([]byte(sidecarMagic)); err != nil {
		return "", "", err
	}
	if err = writeU32(cw, sidecarVersion); err != nil {
		return "", "", err
	}

	var sections []sidecarSection
	writeSec := func(secName string, body func(io.Writer) error) error {
		start := cw.off
		cw.beginSection()
		if err := body(cw); err != nil {
			return err
		}
		sections = append(sections, cw.endSection(secName, start))
		return nil
	}
	vecSections := []struct {
		name string
		vecs map[int][]float32
	}{
		{secPEDesc, snap.PEDescVecs},
		{secPECode, snap.PECodeVecs},
		{secWFDesc, snap.WorkflowDescVecs},
	}
	for _, vs := range vecSections {
		if err = writeSec(vs.name, func(w io.Writer) error { return encodeVecSection(w, vs.vecs) }); err != nil {
			return "", "", fmt.Errorf("storage: write sidecar section %s: %w", vs.name, err)
		}
	}
	if snap.Indexes != nil {
		idxSections := []struct {
			name  string
			qname string
			snap  *index.Snapshot
		}{
			{secIdxDesc, secQ8Desc, snap.Indexes.Desc},
			{secIdxCode, secQ8Code, snap.Indexes.Code},
			{secIdxWF, secQ8WF, snap.Indexes.Workflow},
		}
		for _, is := range idxSections {
			if is.snap == nil {
				continue
			}
			if err = writeSec(is.name, is.snap.EncodeBinary); err != nil {
				return "", "", fmt.Errorf("storage: write sidecar section %s: %w", is.name, err)
			}
			if is.snap.Quantized == nil {
				continue
			}
			if err = writeSec(is.qname, is.snap.Quantized.EncodeBinary); err != nil {
				return "", "", fmt.Errorf("storage: write sidecar section %s: %w", is.qname, err)
			}
		}
	}
	if snap.Lexical != nil {
		lexSections := []struct {
			name string
			snap *lexical.Snapshot
		}{
			{secLexPE, snap.Lexical.PE},
			{secLexWF, snap.Lexical.Workflow},
		}
		for _, ls := range lexSections {
			if ls.snap == nil {
				continue
			}
			if err = writeSec(ls.name, ls.snap.Encode); err != nil {
				return "", "", fmt.Errorf("storage: write sidecar section %s: %w", ls.name, err)
			}
		}
	}

	// Footer + trailer.
	footerOff := cw.off
	if err = writeU32(cw, uint32(len(sections))); err != nil {
		return "", "", err
	}
	for _, sec := range sections {
		if err = writeSecHeader(cw, sec); err != nil {
			return "", "", err
		}
	}
	if err = writeU64(cw, footerOff); err != nil {
		return "", "", err
	}
	if _, err = cw.Write([]byte(sidecarTrailerMagic)); err != nil {
		return "", "", err
	}
	if err = cw.w.Flush(); err != nil {
		return "", "", err
	}
	if err = f.Sync(); err != nil {
		f.Close()
		return "", "", fmt.Errorf("storage: sync sidecar: %w", err)
	}
	if err = f.Close(); err != nil {
		return "", "", fmt.Errorf("storage: close sidecar: %w", err)
	}
	sum = combinedSum(sections)
	name = sidecarName(base, sum)
	if err = os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return "", "", fmt.Errorf("storage: install sidecar: %w", err)
	}
	return name, sum, nil
}

func writeSecHeader(w io.Writer, sec sidecarSection) error {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], uint16(len(sec.name)))
	if _, err := w.Write(b[:]); err != nil {
		return err
	}
	if _, err := io.WriteString(w, sec.name); err != nil {
		return err
	}
	if err := writeU64(w, sec.offset); err != nil {
		return err
	}
	if err := writeU64(w, sec.length); err != nil {
		return err
	}
	return writeU64(w, sec.sum)
}

func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func writeU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

// encodeVecSection streams an id-keyed vector map: u64 count, then per
// entry (id-sorted for determinism) i64 id, u32 dim, dim×f32.
func encodeVecSection(w io.Writer, vecs map[int][]float32) error {
	ids := make([]int, 0, len(vecs))
	for id := range vecs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if err := writeU64(w, uint64(len(ids))); err != nil {
		return err
	}
	var buf []byte
	for _, id := range ids {
		v := vecs[id]
		need := 8 + 4 + 4*len(v)
		if cap(buf) < need {
			buf = make([]byte, need)
		}
		b := buf[:need]
		binary.LittleEndian.PutUint64(b[0:], uint64(int64(id)))
		binary.LittleEndian.PutUint32(b[8:], uint32(len(v)))
		for i, x := range v {
			binary.LittleEndian.PutUint32(b[12+4*i:], math.Float32bits(x))
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// decodeVecSection reads what encodeVecSection wrote. It reads entry by
// entry; readSection hands it a buffered reader.
func decodeVecSection(br io.Reader) (map[int][]float32, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint64(hdr[:])
	if count > 1<<40 {
		return nil, fmt.Errorf("vector section claims %d entries", count)
	}
	// Clamp the allocation hint: count is an untrusted on-disk field (the
	// FNV checksums detect corruption, not tampering), and pre-sizing a map
	// for 2^40 entries would be a multi-GB allocation before the first
	// record byte is even read. Oversized honest sections just grow the map
	// incrementally past the hint.
	hint := count
	if hint > 1<<20 {
		hint = 1 << 20
	}
	out := make(map[int][]float32, hint)
	var rec [12]byte
	var raw []byte // one vector's bytes, reused: every vector of a section has the same dim
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, err
		}
		id := int(int64(binary.LittleEndian.Uint64(rec[0:])))
		dim := binary.LittleEndian.Uint32(rec[8:])
		if dim > 1<<20 {
			return nil, fmt.Errorf("vector for id %d claims dim %d", id, dim)
		}
		if need := int(4 * dim); cap(raw) < need {
			raw = make([]byte, need)
		} else {
			raw = raw[:need]
		}
		if _, err := io.ReadFull(br, raw); err != nil {
			return nil, err
		}
		v := make([]float32, dim)
		for j := range v {
			v[j] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*j:]))
		}
		out[id] = v
	}
	return out, nil
}

// openSidecar reads and validates the sidecar's footer, returning the open
// file and the section table. The caller is responsible for closing f.
func openSidecar(path string) (f *os.File, sections []sidecarSection, err error) {
	f, err = os.Open(path)
	if err != nil {
		// Deliberately %v, not %w: a JSON half that exists but points at a
		// missing sidecar is a *damaged* snapshot, and the error must not
		// satisfy errors.Is(err, fs.ErrNotExist) — the façade treats
		// ErrNotExist as "fresh start", and booting empty here would let
		// the shutdown save overwrite the still-recoverable JSON.
		return nil, nil, fmt.Errorf("storage: open sidecar: %v (snapshot damaged: the JSON half exists but its sidecar is unreadable)", err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	sections, err = readSectionTable(f, fi.Size(), sidecarMagic, sidecarTrailerMagic, sidecarVersion, "sidecar")
	if err != nil {
		return nil, nil, err
	}
	return f, sections, nil
}

// readSectionTable validates the magic/version head and the
// footer-at-the-end section table shared by every sectioned container
// (the v2 sidecar and the delta journal segments). kind only flavors the
// error messages.
func readSectionTable(r io.ReaderAt, size int64, magic, trailerMagic string, version uint32, kind string) ([]sidecarSection, error) {
	var head [8]byte
	if size < int64(len(head)) {
		return nil, fmt.Errorf("storage: %s too short", kind)
	}
	if _, err := r.ReadAt(head[:], 0); err != nil {
		return nil, fmt.Errorf("storage: %s too short: %w", kind, err)
	}
	if string(head[:4]) != magic {
		return nil, fmt.Errorf("storage: not a %s file", kind)
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != version {
		return nil, fmt.Errorf("storage: %s version %d, want %d", kind, v, version)
	}
	var trailer [12]byte
	if size < int64(len(trailer)) {
		return nil, fmt.Errorf("storage: %s truncated", kind)
	}
	if _, err := r.ReadAt(trailer[:], size-int64(len(trailer))); err != nil {
		return nil, err
	}
	if string(trailer[8:]) != trailerMagic {
		return nil, fmt.Errorf("storage: %s trailer damaged (truncated write?)", kind)
	}
	footerOff := int64(binary.LittleEndian.Uint64(trailer[:8]))
	if footerOff < 8 || footerOff >= size-int64(len(trailer)) {
		return nil, fmt.Errorf("storage: %s footer offset out of range", kind)
	}
	fr := bufio.NewReader(io.NewSectionReader(r, footerOff, size-int64(len(trailer))-footerOff))
	var cnt [4]byte
	if _, err := io.ReadFull(fr, cnt[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(cnt[:])
	if n > 64 {
		return nil, fmt.Errorf("storage: %s claims %d sections", kind, n)
	}
	var sections []sidecarSection
	for i := uint32(0); i < n; i++ {
		var nl [2]byte
		if _, err := io.ReadFull(fr, nl[:]); err != nil {
			return nil, err
		}
		nameLen := int(binary.LittleEndian.Uint16(nl[:]))
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(fr, nameBuf); err != nil {
			return nil, err
		}
		var nums [24]byte
		if _, err := io.ReadFull(fr, nums[:]); err != nil {
			return nil, err
		}
		sec := sidecarSection{
			name:   string(nameBuf),
			offset: binary.LittleEndian.Uint64(nums[0:]),
			length: binary.LittleEndian.Uint64(nums[8:]),
			sum:    binary.LittleEndian.Uint64(nums[16:]),
		}
		if sec.offset+sec.length > uint64(footerOff) {
			return nil, fmt.Errorf("storage: %s section %s overruns footer", kind, sec.name)
		}
		sections = append(sections, sec)
	}
	return sections, nil
}

// sectionBuffer is how much of a section one ReadAt fetches: both passes
// of readSection cost a read per 64 KiB of payload, however small the
// fields a decoder asks for.
const sectionBuffer = 64 << 10

// readSection validates a section's checksum and hands the payload to
// decode. The checksum pass is separate from the decode pass on purpose:
// the sum must cover exactly the payload bytes, independent of how much a
// buffered decoder happens to consume. Decoders read field by field — a
// lexical snapshot two to eight bytes at a time — so both passes go
// through one buffer: unbuffered, every field is a pread.
func readSection(f io.ReaderAt, sec sidecarSection, decode func(io.Reader) error) error {
	payload := func() io.Reader { return io.NewSectionReader(f, int64(sec.offset), int64(sec.length)) }
	br := bufio.NewReaderSize(payload(), int(min(sec.length, sectionBuffer)))
	h := fnv.New64a()
	if _, err := br.WriteTo(h); err != nil {
		return fmt.Errorf("storage: sidecar section %s: %w", sec.name, err)
	}
	if h.Sum64() != sec.sum {
		return fmt.Errorf("storage: sidecar section %s checksum mismatch (corrupt sidecar)", sec.name)
	}
	br.Reset(payload())
	if err := decode(br); err != nil {
		return fmt.Errorf("storage: sidecar section %s: %w", sec.name, err)
	}
	return nil
}

// decodeSection is readSection for a decoder that returns what it read.
func decodeSection[T any](f io.ReaderAt, sec sidecarSection, decode func(io.Reader) (T, error)) (out T, err error) {
	err = readSection(f, sec, func(r io.Reader) (derr error) {
		out, derr = decode(r)
		return derr
	})
	return out, err
}

// cleanSidecars removes stale content-named sidecars for base in dir,
// keeping keep. A crash between installs leaves at most one stale file,
// which the next successful save sweeps. Only names of the exact shape
// sidecarName emits (base-<16 hex>.vec) are eligible: a looser glob like
// base+"-*.vec" would also match the live sidecar of a *different*
// registry in the same directory whose file name happens to start with
// this base (e.g. "registry.json" sweeping "registry.json-staging-….vec").
func cleanSidecars(dir, base, keep string) {
	matches, err := filepath.Glob(filepath.Join(dir, base+"-*.vec"))
	if err != nil {
		return
	}
	for _, m := range matches {
		name := filepath.Base(m)
		if name == keep || !isSidecarName(name, base) {
			continue
		}
		os.Remove(m)
	}
}

// isSidecarName reports whether name is exactly base-<16 lowercase hex>.vec.
func isSidecarName(name, base string) bool {
	rest, ok := strings.CutPrefix(name, base+"-")
	if !ok {
		return false
	}
	sum, ok := strings.CutSuffix(rest, ".vec")
	if !ok || len(sum) != 16 {
		return false
	}
	for _, c := range sum {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
