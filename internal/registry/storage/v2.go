package storage

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"laminar/internal/core"
	"laminar/internal/index"
	"laminar/internal/lexical"
)

// v2Prefix is the exact byte prefix every v2 JSON file starts with; the
// writer emits it verbatim, which is what makes format detection a fixed
// prefix compare instead of a parse.
const v2Prefix = `{"format":"laminar/v2"`

// v2Header is the small fixed part of the v2 JSON file. Everything bulky
// (records) streams after it; everything binary (vectors, index structure)
// lives in the sidecar it names.
type v2Header struct {
	Format         string `json:"format"`
	Version        int    `json:"version"`
	Sidecar        string `json:"sidecar"`
	SidecarSum     string `json:"sidecarSum"`
	NextUserID     int    `json:"nextUserId"`
	NextPEID       int    `json:"nextPeId"`
	NextWorkflowID int    `json:"nextWorkflowId"`
}

// saveV2 writes the streamed-JSON + sidecar pair. Install order is the
// crash-safety argument: the content-named sidecar lands first (no existing
// JSON references that name), then the JSON renames over the old one —
// after which, and only after which, the old generation's sidecar is swept.
func saveV2(path string, snap *Snapshot) error {
	dir, base := filepath.Dir(path), filepath.Base(path)
	vecName, vecSum, err := writeSidecar(dir, base, snap)
	if err != nil {
		return err
	}
	err = writeFileAtomic(path, func(f *os.File) error {
		return encodeV2JSON(f, snap, v2Header{
			Format:         "laminar/v2",
			Version:        2,
			Sidecar:        vecName,
			SidecarSum:     vecSum,
			NextUserID:     snap.NextUserID,
			NextPEID:       snap.NextPEID,
			NextWorkflowID: snap.NextWorkflowID,
		})
	})
	if err != nil {
		// The freshly installed sidecar may now be unreferenced; leave it for
		// the next successful save's sweep rather than racing a reader.
		return err
	}
	cleanSidecars(dir, base, vecName)
	// A full snapshot subsumes any delta journal that was chained to the
	// previous base; sweep it only after the JSON rename committed. A crash
	// before this point leaves stale segments whose base fingerprint no
	// longer matches — the loader ignores them and the next save sweeps.
	cleanDeltaSegments(dir, base)
	return nil
}

// encodeV2JSON streams the JSON half: header fields first (so detection and
// header-only reads touch a fixed prefix), then each record array encoded
// element by element. At no point does the registry exist as one marshaled
// document — the largest single allocation is one record.
func encodeV2JSON(f *os.File, snap *Snapshot, hdr v2Header) error {
	w := bufio.NewWriterSize(f, 1<<16)
	writeField := func(name string, v any, first bool) error {
		if !first {
			if _, err := w.WriteString(","); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%q:", name); err != nil {
			return err
		}
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = w.Write(data)
		return err
	}
	// The prefix must match v2Prefix byte for byte.
	if _, err := w.WriteString(v2Prefix); err != nil {
		return err
	}
	if err := writeField("version", hdr.Version, false); err != nil {
		return err
	}
	if err := writeField("sidecar", hdr.Sidecar, false); err != nil {
		return err
	}
	if err := writeField("sidecarSum", hdr.SidecarSum, false); err != nil {
		return err
	}
	if err := writeField("nextUserId", hdr.NextUserID, false); err != nil {
		return err
	}
	if err := writeField("nextPeId", hdr.NextPEID, false); err != nil {
		return err
	}
	if err := writeField("nextWorkflowId", hdr.NextWorkflowID, false); err != nil {
		return err
	}
	streamArray := func(name string, n int, elem func(i int) any) error {
		if _, err := fmt.Fprintf(w, ",%q:[", name); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if i > 0 {
				if err := w.WriteByte(','); err != nil {
					return err
				}
			}
			data, err := json.Marshal(elem(i))
			if err != nil {
				return err
			}
			if _, err := w.Write(data); err != nil {
				return err
			}
		}
		_, err := w.WriteString("]")
		return err
	}
	if err := streamArray("users", len(snap.Users), func(i int) any { return &snap.Users[i] }); err != nil {
		return err
	}
	if err := writeField("passwordHashes", snap.PasswordHashes, false); err != nil {
		return err
	}
	if err := streamArray("pes", len(snap.PEs), func(i int) any { return &snap.PEs[i] }); err != nil {
		return err
	}
	if err := streamArray("workflows", len(snap.Workflows), func(i int) any { return &snap.Workflows[i] }); err != nil {
		return err
	}
	if err := writeField("userPes", snap.UserPEs, false); err != nil {
		return err
	}
	if err := writeField("userWorkflows", snap.UserWorkflows, false); err != nil {
		return err
	}
	if err := writeField("workflowPes", snap.WorkflowPEs, false); err != nil {
		return err
	}
	if _, err := w.WriteString("}\n"); err != nil {
		return err
	}
	return w.Flush()
}

// expectDelim consumes one JSON token and checks it is the wanted
// delimiter.
func expectDelim(dec *json.Decoder, want rune) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || rune(d) != want {
		return fmt.Errorf("storage: parse v2 snapshot: got token %v, want %q", tok, want)
	}
	return nil
}

// decodeV2JSON walks the top-level object with a token decoder, decoding
// array elements one record at a time. Key order is not assumed.
func decodeV2JSON(r io.Reader) (*Snapshot, *v2Header, error) {
	dec := json.NewDecoder(bufio.NewReaderSize(r, 1<<16))
	snap := &Snapshot{
		PasswordHashes:   map[int]string{},
		UserPEs:          map[int][]int{},
		UserWorkflows:    map[int][]int{},
		WorkflowPEs:      map[int][]int{},
		PEDescVecs:       map[int][]float32{},
		PECodeVecs:       map[int][]float32{},
		WorkflowDescVecs: map[int][]float32{},
	}
	hdr := &v2Header{}
	if err := expectDelim(dec, '{'); err != nil {
		return nil, nil, err
	}
	decodeArray := func(decodeElem func() error) error {
		if err := expectDelim(dec, '['); err != nil {
			return err
		}
		for dec.More() {
			if err := decodeElem(); err != nil {
				return err
			}
		}
		return expectDelim(dec, ']')
	}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return nil, nil, err
		}
		key, ok := keyTok.(string)
		if !ok {
			return nil, nil, fmt.Errorf("storage: parse v2 snapshot: non-string key %v", keyTok)
		}
		switch key {
		case "format":
			err = dec.Decode(&hdr.Format)
		case "version":
			err = dec.Decode(&hdr.Version)
		case "sidecar":
			err = dec.Decode(&hdr.Sidecar)
		case "sidecarSum":
			err = dec.Decode(&hdr.SidecarSum)
		case "nextUserId":
			err = dec.Decode(&snap.NextUserID)
		case "nextPeId":
			err = dec.Decode(&snap.NextPEID)
		case "nextWorkflowId":
			err = dec.Decode(&snap.NextWorkflowID)
		case "users":
			err = decodeArray(func() error {
				var u core.UserRecord
				if derr := dec.Decode(&u); derr != nil {
					return derr
				}
				snap.Users = append(snap.Users, u)
				return nil
			})
		case "pes":
			err = decodeArray(func() error {
				var pe core.PERecord
				if derr := dec.Decode(&pe); derr != nil {
					return derr
				}
				snap.PEs = append(snap.PEs, pe)
				return nil
			})
		case "workflows":
			err = decodeArray(func() error {
				var wf core.WorkflowRecord
				if derr := dec.Decode(&wf); derr != nil {
					return derr
				}
				snap.Workflows = append(snap.Workflows, wf)
				return nil
			})
		case "passwordHashes":
			err = dec.Decode(&snap.PasswordHashes)
		case "userPes":
			err = dec.Decode(&snap.UserPEs)
		case "userWorkflows":
			err = dec.Decode(&snap.UserWorkflows)
		case "workflowPes":
			err = dec.Decode(&snap.WorkflowPEs)
		default:
			// Unknown field from a newer minor revision: skip its value.
			var skip json.RawMessage
			err = dec.Decode(&skip)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("storage: parse v2 snapshot field %q: %w", key, err)
		}
	}
	if err := expectDelim(dec, '}'); err != nil {
		return nil, nil, err
	}
	if hdr.Version != 2 {
		return nil, nil, fmt.Errorf("storage: v2 snapshot claims version %d", hdr.Version)
	}
	if hdr.Sidecar == "" {
		return nil, nil, fmt.Errorf("storage: v2 snapshot names no sidecar")
	}
	return snap, hdr, nil
}

// loadV2 reads the JSON half record-by-record and attaches the sidecar's
// vectors and index snapshots. The two halves decode side by side: the
// header at the front of the JSON names the sidecar, so its sections start
// decoding while the record arrays still stream. That early header read
// only decides what starts early — the full parse stays the authority,
// and a sidecar it does not name is never attached.
func loadV2(path string) (*Snapshot, error) {
	clock := &stageClock{}
	// One token per running decode, the record stream included: the
	// overlap never asks for more processors than the process may use.
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))

	var early *v2Header
	var side *sidecarContents
	var sideErr error
	var wg sync.WaitGroup
	if hdr, err := readV2Header(path); err == nil && hdr.Sidecar != "" {
		early = hdr
		wg.Add(1)
		go func() {
			defer wg.Done()
			side, sideErr = loadSidecar(path, hdr, sem, clock)
		}()
	}

	var snap *Snapshot
	var hdr *v2Header
	var err error
	sem <- struct{}{}
	clock.time(&clock.stages.Records, func() {
		var f *os.File
		if f, err = os.Open(path); err != nil {
			err = fmt.Errorf("storage: read snapshot: %w", err)
			return
		}
		defer f.Close()
		snap, hdr, err = decodeV2JSON(f)
	})
	<-sem
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if early == nil || early.Sidecar != hdr.Sidecar || early.SidecarSum != hdr.SidecarSum {
		side, sideErr = loadSidecar(path, hdr, sem, clock)
	}
	if sideErr != nil {
		return nil, sideErr
	}
	snap.PEDescVecs, snap.PECodeVecs, snap.WorkflowDescVecs = side.peDesc, side.peCode, side.wfDesc
	snap.Indexes, snap.Lexical = side.indexes, side.lexical
	snap.LoadStages = clock.stages
	return snap, nil
}

// stageClock adds up, per stage, the time the decodes of one load ran.
type stageClock struct {
	mu     sync.Mutex
	stages LoadStages
}

// time runs fn and adds how long it took to *stage (a field of c.stages).
func (c *stageClock) time(stage *time.Duration, fn func()) {
	start := time.Now()
	fn()
	took := time.Since(start)
	c.mu.Lock()
	*stage += took
	c.mu.Unlock()
}

// sidecarContents is everything a sidecar holds, decoded.
type sidecarContents struct {
	peDesc, peCode, wfDesc map[int][]float32
	indexes                *IndexSnapshots
	lexical                *LexicalSnapshots
}

// loadSidecar opens the sidecar hdr names beside the JSON half at path,
// checks that the two pair, and decodes its sections concurrently, each
// holding a token of sem while it runs. Vector sections are load-bearing
// data and fail the load on corruption; index and lexical sections are
// derivable and degrade to a rebuild instead.
func loadSidecar(path string, hdr *v2Header, sem chan struct{}, clock *stageClock) (*sidecarContents, error) {
	vf, sections, err := openSidecar(filepath.Join(filepath.Dir(path), hdr.Sidecar))
	if err != nil {
		return nil, err
	}
	defer vf.Close()
	if got := combinedSum(sections); got != hdr.SidecarSum {
		return nil, fmt.Errorf("storage: sidecar %s does not pair with %s (checksum %s, JSON expects %s)",
			hdr.Sidecar, filepath.Base(path), got, hdr.SidecarSum)
	}
	byName := map[string]sidecarSection{}
	for _, sec := range sections {
		byName[sec.name] = sec
	}
	var wg sync.WaitGroup
	run := func(stage *time.Duration, fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			clock.time(stage, fn)
		}()
	}
	out := &sidecarContents{}
	stages := &clock.stages

	// The lexical sections follow the index-section contract: absent
	// (pre-lexical sidecar), corrupt or of another snapshot version, they
	// degrade to nil, and the serving layer re-tokenizes the records
	// instead of failing the load. lex-pe is the slowest section to
	// decode, so it starts first.
	lex := &LexicalSnapshots{}
	for _, l := range []struct {
		name string
		into **lexical.Snapshot
	}{{secLexPE, &lex.PE}, {secLexWF, &lex.Workflow}} {
		sec, ok := byName[l.name]
		if !ok {
			continue
		}
		run(&stages.LexicalSections, func() {
			if snap, err := decodeSection(vf, sec, lexical.DecodeSnapshot); err == nil {
				*l.into = snap
			}
		})
	}

	vecs := []struct {
		name string
		into *map[int][]float32
		err  error
	}{{name: secPEDesc, into: &out.peDesc}, {name: secPECode, into: &out.peCode}, {name: secWFDesc, into: &out.wfDesc}}
	for i := range vecs {
		v := &vecs[i]
		sec, ok := byName[v.name]
		if !ok {
			v.err = fmt.Errorf("storage: sidecar is missing section %s", v.name)
			continue
		}
		run(&stages.Vectors, func() {
			*v.into, v.err = decodeSection(vf, sec, decodeVecSection)
		})
	}

	// The q8 companion sections are doubly derivable: skipped when absent
	// (pre-quantization sidecar, or quantization off) or when their index
	// section is, and dropped when corrupt — the index rebuilds the
	// companion from the float vectors it restores either way.
	idx := &IndexSnapshots{}
	for _, ix := range []struct {
		name, qname string
		into        **index.Snapshot
	}{{secIdxDesc, secQ8Desc, &idx.Desc}, {secIdxCode, secQ8Code, &idx.Code}, {secIdxWF, secQ8WF, &idx.Workflow}} {
		sec, ok := byName[ix.name]
		if !ok {
			continue
		}
		run(&stages.IndexSections, func() {
			snap, err := decodeSection(vf, sec, index.DecodeSnapshotBinary)
			if err != nil {
				return // derivable: the serving layer rebuilds
			}
			*ix.into = snap
			qsec, ok := byName[ix.qname]
			if !ok {
				return
			}
			if q, err := decodeSection(vf, qsec, index.DecodeQuantizedBinary); err == nil {
				snap.Quantized = q
			}
		})
	}
	wg.Wait()

	for _, v := range vecs {
		if v.err != nil {
			return nil, v.err
		}
	}
	if idx.Desc != nil || idx.Code != nil || idx.Workflow != nil {
		out.indexes = idx
	}
	if lex.PE != nil || lex.Workflow != nil {
		out.lexical = lex
	}
	return out, nil
}

// readV2Header parses just the fixed header fields of a v2 file — enough
// for DiskSize and tooling, without touching the record arrays.
func readV2Header(path string) (*v2Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(bufio.NewReader(f))
	if err := expectDelim(dec, '{'); err != nil {
		return nil, err
	}
	hdr := &v2Header{}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		key, _ := keyTok.(string)
		switch key {
		case "format":
			err = dec.Decode(&hdr.Format)
		case "version":
			err = dec.Decode(&hdr.Version)
		case "sidecar":
			err = dec.Decode(&hdr.Sidecar)
		case "sidecarSum":
			err = dec.Decode(&hdr.SidecarSum)
		default:
			// Header fields are written first; the first non-header key means
			// we have everything.
			if hdr.Sidecar != "" {
				return hdr, nil
			}
			var skip json.RawMessage
			err = dec.Decode(&skip)
		}
		if err != nil {
			return nil, err
		}
	}
	return hdr, nil
}
