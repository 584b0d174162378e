package registry

import (
	"strings"

	"laminar/internal/codec"
	"laminar/internal/core"
	"laminar/internal/lexical"
	"laminar/internal/registry/storage"
)

// The BM25 lexical indexes behind the hybrid retrieval modes: what goes
// into a record's lexical document, the sum that binds a snapshot entry to
// its record, and how the indexes are rebuilt or restored on load. Search
// (search.go) is their only reader.

// lexIndexes returns the two live lexical-index pointers under a brief
// read lock, mirroring indexes().
func (s *Store) lexIndexes() (pe, wf *lexical.Index) {
	s.idxMu.RLock()
	defer s.idxMu.RUnlock()
	return s.peLex, s.wfLex
}

// peLexDoc builds a PE's lexical document: name, description, and code.
// PECode is normally a codec envelope (compressed, base64 — opaque to a
// tokenizer), so it is decoded back to class name + source + imports;
// plain-text code from older clients indexes as-is.
func peLexDoc(pe *core.PERecord) string {
	code := pe.PECode
	if env, err := codec.Decode(pe.PECode); err == nil {
		code = env.Name + "\n" + env.Source + "\n" + strings.Join(env.Imports, "\n")
	}
	return pe.PEName + "\n" + pe.Description + "\n" + code
}

// wfLexDoc builds a workflow's lexical document: name, entry point and
// description — the fields workflow search matches on.
func wfLexDoc(wf *core.WorkflowRecord) string {
	return wf.WorkflowName + "\n" + wf.EntryPoint + "\n" + wf.Description
}

// peLexSum and wfLexSum bind a lexical entry to the record fields its
// document is derived from. The PE sum covers the raw PECode, not the
// inflated source: a restore compares sums without opening one envelope.
func peLexSum(pe *core.PERecord) uint64 {
	return lexical.SourceSum(pe.PEName, pe.Description, pe.PECode)
}

func wfLexSum(wf *core.WorkflowRecord) uint64 {
	return lexical.SourceSum(wf.WorkflowName, wf.EntryPoint, wf.Description)
}

// upsertPELex and upsertWFLex are the only ways a record enters a lexical
// index, so a document and the sum it is bound under cannot drift apart.
func upsertPELex(lex *lexical.Index, id int, pe *core.PERecord) {
	lex.UpsertBound(id, peLexDoc(pe), peLexSum(pe))
}

func upsertWFLex(lex *lexical.Index, id int, wf *core.WorkflowRecord) {
	lex.UpsertBound(id, wfLexDoc(wf), wfLexSum(wf))
}

// loadLexicalLocked builds both lexical indexes for freshly loaded
// records: restored from the snapshot when every per-document source sum
// still matches (all-or-nothing across both indexes), re-tokenized from
// scratch otherwise — absent sections (v1 files, pre-lexical sidecars),
// sections of an older snapshot version and stale snapshots cost a
// rebuild, never a load failure. Only the rebuild derives documents.
// Caller holds pesMu and wfsMu (read or stronger); the result is
// installed under idxMu.W.
func (s *Store) loadLexicalLocked(snaps *storage.LexicalSnapshots) (peLex, wfLex *lexical.Index) {
	peLex, wfLex = lexical.New(), lexical.New()
	if snaps != nil {
		peSums := make(map[int]uint64, len(s.pes))
		for id, pe := range s.pes {
			peSums[id] = peLexSum(pe)
		}
		wfSums := make(map[int]uint64, len(s.workflows))
		for id, wf := range s.workflows {
			wfSums[id] = wfLexSum(wf)
		}
		if peLex.Restore(snaps.PE, peSums) == nil && wfLex.Restore(snaps.Workflow, wfSums) == nil {
			return peLex, wfLex
		}
		peLex, wfLex = lexical.New(), lexical.New()
	}
	for id, pe := range s.pes {
		upsertPELex(peLex, id, pe)
	}
	for id, wf := range s.workflows {
		upsertWFLex(wfLex, id, wf)
	}
	return peLex, wfLex
}

// LexicalStats reports the live document and distinct-term counts across
// both lexical indexes (PEs + workflows) — the scrape-time gauges.
func (s *Store) LexicalStats() (docs, terms int) {
	pe, wf := s.lexIndexes()
	return pe.Len() + wf.Len(), pe.Terms() + wf.Terms()
}
