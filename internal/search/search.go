// Package search implements the three registry search mechanisms of
// Section 4: text-based search with normalized partial matching (4.1),
// semantic code search over stored description embeddings (4.2), and
// retrieval-based code completion over stored code embeddings (4.3). The
// bi-encoder contract (Section 2.4) is honored throughout: embeddings are
// computed once at registration and only compared at query time.
//
// Beyond the paper, workflow descriptions are embedded with the same text
// model as PE descriptions, so a semantic SearchBoth ranks both registry
// kinds in one cosine space (MergeRanked) instead of falling back to text
// matching for workflows.
package search

import (
	"laminar/internal/core"
	"laminar/internal/embed"
	"laminar/internal/index"
)

// DefaultLimit caps result lists when the caller does not specify one.
const DefaultLimit = 10

// TextModel is the embedding model for descriptions and text queries
// (unixcoder-code-search, chosen in Table 6).
var TextModel = embed.ModelCodeSearch

// CodeModel is the embedding model for PE code and code-completion queries
// (ReACC-py-retriever, chosen by Precision@1 in Table 7).
var CodeModel = embed.ModelReACC

// EmbedDescription computes the stored description embedding
// (unixcoder-code-search).
func EmbedDescription(text string) []float32 {
	return embed.MustLookup(TextModel).Embed(text)
}

// EmbedCode computes the stored code embedding (ReACC-py-retriever).
func EmbedCode(code string) []float32 {
	return embed.MustLookup(CodeModel).Embed(code)
}

// peHit is the hit a PE appears as in every kind of search.
func peHit(pe *core.PERecord, score float64) core.SearchHit {
	return core.SearchHit{Kind: "pe", ID: pe.PEID, Name: pe.PEName, Description: pe.Description, Score: score}
}

// workflowHit is the hit a workflow appears as: named by its entry point.
func workflowHit(wf *core.WorkflowRecord, score float64) core.SearchHit {
	return core.SearchHit{Kind: "workflow", ID: wf.WorkflowID, Name: wf.EntryPoint, Description: wf.Description, Score: score}
}

// HitsFromCandidates resolves ranked index candidates back to search hits
// via a record lookup, for the registry's index-backed search path.
func HitsFromCandidates(cands []index.Candidate, lookup func(id int) (core.PERecord, bool)) []core.SearchHit {
	if len(cands) == 0 {
		return nil // historic brute force returned nil on no hits
	}
	hits := make([]core.SearchHit, 0, len(cands))
	for _, c := range cands {
		pe, ok := lookup(c.ID)
		if !ok {
			continue
		}
		hits = append(hits, peHit(&pe, c.Score))
	}
	return hits
}

// WorkflowHitsFromCandidates is HitsFromCandidates for the workflow index:
// candidates resolve to workflow records and hits carry Kind "workflow".
func WorkflowHitsFromCandidates(cands []index.Candidate, lookup func(id int) (core.WorkflowRecord, bool)) []core.SearchHit {
	if len(cands) == 0 {
		return nil
	}
	hits := make([]core.SearchHit, 0, len(cands))
	for _, c := range cands {
		wf, ok := lookup(c.ID)
		if !ok {
			continue
		}
		hits = append(hits, workflowHit(&wf, c.Score))
	}
	return hits
}

// MergeRanked merges two score-descending hit lists into one, keeping the
// best limit hits. Both semantic indexes embed with the same model, so PE
// and workflow scores live in the same cosine space and rank directly
// against each other (unlike text search, which has no scores and
// interleaves instead). Ties break by kind then id, keeping SearchBoth
// results deterministic.
func MergeRanked(a, b []core.SearchHit, limit int) []core.SearchHit {
	if limit <= 0 {
		limit = DefaultLimit
	}
	better := func(x, y core.SearchHit) bool {
		if x.Score != y.Score {
			return x.Score > y.Score
		}
		if x.Kind != y.Kind {
			return x.Kind < y.Kind
		}
		return x.ID < y.ID
	}
	out := make([]core.SearchHit, 0, min(limit, len(a)+len(b)))
	i, j := 0, 0
	for len(out) < limit && (i < len(a) || j < len(b)) {
		switch {
		case i >= len(a):
			out = append(out, b[j])
			j++
		case j >= len(b):
			out = append(out, a[i])
			i++
		case better(a[i], b[j]):
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
