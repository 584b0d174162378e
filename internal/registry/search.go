package registry

import (
	"cmp"
	"math"
	"slices"
	"time"

	"laminar/internal/core"
	"laminar/internal/index"
	"laminar/internal/search"
)

// hybridOverfetch widens both retrieval legs (and the fused pool the
// reranker sees) to limit × hybridOverfetch candidates, so a document
// ranked modestly by both legs — or poorly by ANN but well lexically —
// can still reach the final top-k.
const hybridOverfetch = 4

// Query is what the inputs of one Search call share.
type Query struct {
	// Mode is the pipeline: core.ModeANN (also the zero value) returns the
	// vector leg's ranking, cosine scores untouched; core.ModeHybrid fuses
	// it with the BM25 lexical leg by reciprocal rank; core.ModeReranked
	// then reranks the fused pool with the cross-encoder.
	Mode string
	// Code ranks by PE code embeddings (code completion) instead of
	// descriptions. Workflows carry none, so a code query never ranks them.
	Code bool
	// Text answers by Section 4.1's normalized partial matching of each
	// Input's Text against names and descriptions instead of ranking:
	// hits carry no score and come in id order. Mode and Embedding are
	// not consulted.
	Text bool
	// Type selects PEs, workflows, or (the zero value too) both.
	Type core.SearchType
	// Limit is each result list's length (search.DefaultLimit when <= 0).
	Limit int
}

// Input is one query of a Search call. Either leg may be absent: without
// an Embedding (bi-encoder contract: the caller embeds) the vector leg is
// skipped, without Text the lexical leg and the rerank are. Fusion
// degrades to the surviving leg, so a hybrid query never returns less than
// the stronger single-leg answer.
type Input struct {
	Text      string
	Embedding []float32
}

// Search is the store's one retrieval entry: semantic search, code
// completion and workflow search, in every mode, and text search, for one
// query or a batch.
// It answers every input under q — one hit list each, the list a call with
// that input alone returns — in one registry round trip: a single
// simulated WAN hop and one span of the shard read locks, inside which
// each input runs its own index probes.
//
// Probes hold only the read locks of the shards whose records they
// resolve (pes, wfs) — the index pointers are copied under a momentary
// idxMu.R — so concurrent searches run fully in parallel and a Save's
// marshal/IO phase never blocks them. The locks cover the probes because
// the visibility filters read the live ownership sets.
func (s *Store) Search(userID int, q Query, inputs ...Input) [][]core.SearchHit {
	s.simulateWAN()
	limit := q.Limit
	if limit <= 0 {
		limit = search.DefaultLimit
	}
	// limit is a client-controlled value and travels here unclamped; the
	// widened pool must saturate, never wrap to zero or below.
	pool := limit
	ann := q.Mode == core.ModeANN || q.Mode == ""
	if !ann {
		pool = math.MaxInt
		if limit <= math.MaxInt/hybridOverfetch {
			pool = limit * hybridOverfetch
		}
	}
	wantPEs := q.Type != core.SearchWorkflows
	wantWFs := q.Type != core.SearchPEs && !q.Code
	var visiblePEs, visibleWFs map[int]bool
	if wantPEs {
		s.pesMu.RLock()
		defer s.pesMu.RUnlock()
		visiblePEs = s.userPEs[userID]
	}
	if wantWFs {
		s.wfsMu.RLock()
		defer s.wfsMu.RUnlock()
		visibleWFs = s.userWorkflows[userID]
	}
	out := make([][]core.SearchHit, len(inputs))
	if q.Text {
		var m search.TextMatcher
		for i, in := range inputs {
			m.Reset(in.Text)
			out[i] = s.textHitsLocked(&m, visiblePEs, visibleWFs, limit)
		}
		return out
	}
	seesPE := func(id int) bool { return visiblePEs[id] }
	seesWF := func(id int) bool { return visibleWFs[id] }

	peIdx, code, wfIdx := s.indexes()
	if q.Code {
		peIdx = code
	}
	peLex, wfLex := s.lexIndexes()
	m := s.instruments()

	for i, in := range inputs {
		var annLeg []core.SearchHit
		if in.Embedding != nil {
			var peC, wfC []index.Candidate
			if wantPEs {
				peC = peIdx.Search(in.Embedding, pool, seesPE)
			}
			if wantWFs {
				wfC = wfIdx.Search(in.Embedding, pool, seesWF)
			}
			// PE and workflow descriptions share one embedding model, so
			// the two lists rank against each other in one cosine space.
			annLeg = search.MergeRanked(s.peHitsLocked(peC), s.wfHitsLocked(wfC), pool)
		}
		if ann {
			out[i] = annLeg
			continue
		}

		var lexLeg []core.SearchHit
		if in.Text != "" {
			start := time.Now()
			var peC, wfC []index.Candidate
			if wantPEs {
				peC = peLex.Search(in.Text, pool, seesPE)
			}
			if wantWFs {
				wfC = wfLex.Search(in.Text, pool, seesWF)
			}
			// BM25 scores from the two lexical indexes share one scoring
			// scheme, so a score merge is meaningful here too.
			lexLeg = search.MergeRanked(s.peHitsLocked(peC), s.wfHitsLocked(wfC), pool)
			if m != nil {
				m.lexicalSearches.Inc()
				m.lexicalSeconds.ObserveSince(start)
			}
		}

		if q.Mode != core.ModeReranked {
			out[i] = search.FuseRRF(limit, annLeg, lexLeg)
			continue
		}
		fused := search.FuseRRF(pool, annLeg, lexLeg)
		start := time.Now()
		out[i] = search.Rerank(in.Text, fused, limit)
		if m != nil {
			m.rerankSearches.Inc()
			m.rerankSeconds.ObserveSince(start)
			m.rerankPool.Observe(float64(len(fused)))
		}
	}
	return out
}

// textHitsLocked is the text leg: it matches the user's records where they
// lie, under the held read locks (a nil ownership set is a kind the query
// does not want), sorts only the matches and builds only the hits that
// survive the limit — no listing is copied and nothing is allocated per
// record scanned.
func (s *Store) textHitsLocked(m *search.TextMatcher, visiblePEs, visibleWFs map[int]bool, limit int) []core.SearchHit {
	var pes []*core.PERecord
	for id := range visiblePEs {
		if pe := s.pes[id]; pe != nil && m.MatchesPE(pe) {
			pes = append(pes, pe)
		}
	}
	slices.SortFunc(pes, func(a, b *core.PERecord) int { return cmp.Compare(a.PEID, b.PEID) })
	var wfs []*core.WorkflowRecord
	for id := range visibleWFs {
		if wf := s.workflows[id]; wf != nil && m.MatchesWorkflow(wf) {
			wfs = append(wfs, wf)
		}
	}
	slices.SortFunc(wfs, func(a, b *core.WorkflowRecord) int { return cmp.Compare(a.WorkflowID, b.WorkflowID) })
	return search.TextHits(pes, wfs, limit)
}

// peHitsLocked resolves PE candidates (from either kind of index) to hits
// under the held pes read lock.
func (s *Store) peHitsLocked(cands []index.Candidate) []core.SearchHit {
	return search.HitsFromCandidates(cands, func(id int) (core.PERecord, bool) {
		if pe := s.pes[id]; pe != nil {
			return *pe, true
		}
		return core.PERecord{}, false
	})
}

// wfHitsLocked resolves workflow candidates to hits under the held wfs
// read lock.
func (s *Store) wfHitsLocked(cands []index.Candidate) []core.SearchHit {
	return search.WorkflowHitsFromCandidates(cands, func(id int) (core.WorkflowRecord, bool) {
		if wf := s.workflows[id]; wf != nil {
			return *wf, true
		}
		return core.WorkflowRecord{}, false
	})
}

// The three entry points below predate Search and stay because the repo's
// benchmark compiles against them; each is one Search call.

// CompletionSearch ranks the user's PEs against a code embedding (Section 4.3).
func (s *Store) CompletionSearch(userID int, queryEmbedding []float32, limit int) []core.SearchHit {
	return s.Search(userID, Query{Code: true, Type: core.SearchPEs, Limit: limit}, Input{Embedding: queryEmbedding})[0]
}

// SemanticSearchBoth ranks the user's PEs and workflows together against a
// description embedding (Section 4.2).
func (s *Store) SemanticSearchBoth(userID int, queryEmbedding []float32, limit int) []core.SearchHit {
	return s.Search(userID, Query{Type: core.SearchBoth, Limit: limit}, Input{Embedding: queryEmbedding})[0]
}

// HybridQuery is a Query and its one Input; Rerank selects
// core.ModeReranked over core.ModeHybrid.
type HybridQuery struct {
	Text      string
	Embedding []float32
	Code      bool
	Type      core.SearchType
	Limit     int
	Rerank    bool
}

// HybridSearch runs one hybrid (or reranked) query.
func (s *Store) HybridSearch(userID int, q HybridQuery) []core.SearchHit {
	mode := core.ModeHybrid
	if q.Rerank {
		mode = core.ModeReranked
	}
	return s.Search(userID, Query{Mode: mode, Code: q.Code, Type: q.Type, Limit: q.Limit},
		Input{Text: q.Text, Embedding: q.Embedding})[0]
}
