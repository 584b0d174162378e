package registry

import (
	"strings"
	"time"

	"laminar/internal/codec"
	"laminar/internal/core"
	"laminar/internal/lexical"
	"laminar/internal/registry/storage"
	"laminar/internal/search"
)

// The hybrid retrieval pipeline (ROADMAP item 3): the ANN leg and the BM25
// lexical leg each retrieve an overfetched candidate pool, reciprocal-rank
// fusion merges the two rankings, and an optional cross-encoder rerank
// rescores the fused pool before the final top-k. The lexical indexes are
// maintained incrementally by the same indexPE/indexWorkflow/Remove hooks
// that maintain the vector indexes, and persist as optional v2 sidecar
// sections.

// hybridOverfetch widens both retrieval legs (and the fused pool the
// reranker sees) to limit × hybridOverfetch candidates, so a document
// ranked modestly by both legs — or poorly by ANN but well lexically —
// can still reach the final top-k.
const hybridOverfetch = 4

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

// HybridQuery parameterizes HybridSearch.
type HybridQuery struct {
	// Text is the query text driving the lexical leg and the rerank
	// stage. Empty text skips both (the pipeline degrades to pure ANN).
	Text string
	// Embedding is the precomputed query embedding for the ANN leg
	// (bi-encoder contract: the client embeds its own query). Nil skips
	// the ANN leg — the pipeline degrades to pure lexical.
	Embedding []float32
	// Code selects the PE code index for the ANN leg (code-completion
	// queries); code queries never target workflows, matching the ANN
	// serving path.
	Code bool
	// Type selects PEs, workflows, or both.
	Type core.SearchType
	// Limit is the final result count (DefaultLimit when unset).
	Limit int
	// Rerank enables the cross-encoder stage over the fused pool.
	Rerank bool
}

// HybridSearch runs the hybrid retrieval pipeline in one registry round
// trip (a single simulated WAN hop, like SemanticSearchBoth): ANN and
// lexical legs each retrieve limit×hybridOverfetch candidates under the
// held shard read locks, reciprocal-rank fusion merges them, and when
// requested the cross-encoder reranks the fused pool down to the final
// limit. Either leg may be absent (nil embedding, empty text) — fusion
// degrades to the surviving leg, so hybrid mode never returns less than
// the stronger single-leg answer.
func (s *Store) HybridSearch(userID int, q HybridQuery) []core.SearchHit {
	s.simulateWAN()
	limit := q.Limit
	if limit <= 0 {
		limit = search.DefaultLimit
	}
	pool := limit * hybridOverfetch
	searchPEs := q.Type == core.SearchPEs || q.Type == core.SearchBoth
	searchWFs := (q.Type == core.SearchWorkflows || q.Type == core.SearchBoth) && !q.Code
	if searchPEs {
		s.pesMu.RLock()
		defer s.pesMu.RUnlock()
	}
	if searchWFs {
		s.wfsMu.RLock()
		defer s.wfsMu.RUnlock()
	}
	m := s.instruments()

	var annLeg []core.SearchHit
	if q.Embedding != nil {
		var peHits, wfHits []core.SearchHit
		if searchPEs {
			peHits = s.peHitsLocked(userID, q.Embedding, pool, q.Code)
		}
		if searchWFs {
			wfHits = s.wfHitsLocked(userID, q.Embedding, pool)
		}
		annLeg = search.MergeRanked(peHits, wfHits, pool)
	}

	var lexLeg []core.SearchHit
	if q.Text != "" {
		start := time.Now()
		var peHits, wfHits []core.SearchHit
		if searchPEs {
			peHits = s.lexPEHitsLocked(userID, q.Text, pool)
		}
		if searchWFs {
			wfHits = s.lexWFHitsLocked(userID, q.Text, pool)
		}
		// BM25 scores from the two lexical indexes share one scoring
		// scheme, so a score merge is meaningful (as it is for the two
		// cosine legs of SemanticSearchBoth).
		lexLeg = search.MergeRanked(peHits, wfHits, pool)
		if m != nil {
			m.lexicalSearches.Inc()
			m.lexicalSeconds.ObserveSince(start)
		}
	}

	if !q.Rerank {
		return search.FuseRRF(limit, annLeg, lexLeg)
	}
	fused := search.FuseRRF(pool, annLeg, lexLeg)
	start := time.Now()
	out := search.Rerank(q.Text, fused, limit)
	if m != nil {
		m.rerankSearches.Inc()
		m.rerankSeconds.ObserveSince(start)
		m.rerankPool.Observe(float64(len(fused)))
	}
	return out
}

// lexPEHitsLocked probes the PE lexical index under the held pes read lock
// — the BM25 twin of peHitsLocked, sharing its visibility filter and
// candidate resolution.
func (s *Store) lexPEHitsLocked(userID int, query string, limit int) []core.SearchHit {
	peLex, _ := s.lexIndexes()
	visible := s.userPEs[userID]
	cands := peLex.Search(query, limit, func(id int) bool { return visible[id] })
	return search.HitsFromCandidates(cands, func(id int) (core.PERecord, bool) {
		if pe := s.pes[id]; pe != nil {
			return *pe, true
		}
		return core.PERecord{}, false
	})
}

// lexWFHitsLocked probes the workflow lexical index under the held wfs
// read lock — the BM25 twin of wfHitsLocked.
func (s *Store) lexWFHitsLocked(userID int, query string, limit int) []core.SearchHit {
	_, wfLex := s.lexIndexes()
	visible := s.userWorkflows[userID]
	cands := wfLex.Search(query, limit, func(id int) bool { return visible[id] })
	return search.WorkflowHitsFromCandidates(cands, func(id int) (core.WorkflowRecord, bool) {
		if wf := s.workflows[id]; wf != nil {
			return *wf, true
		}
		return core.WorkflowRecord{}, false
	})
}

// LexicalStats reports the live document and distinct-term counts across
// both lexical indexes (PEs + workflows) — the scrape-time gauges.
func (s *Store) LexicalStats() (docs, terms int) {
	pe, wf := s.lexIndexes()
	return pe.Len() + wf.Len(), pe.Terms() + wf.Terms()
}
