package search

import (
	"strings"

	"laminar/internal/core"
	"laminar/internal/embed"
	"laminar/internal/index"
)

// The oracles: the seed's linear scans, verbatim. Nothing outside tests
// calls them any more — text queries run TextMatcher inside
// registry.Store.Search, ranked queries the vector indexes — so they live
// here, where the differential and fuzz tests hold the live paths to them.
// SeedText is exported for the store-level differential in package
// search_test.

// normalize lowercases and collapses separators — the preprocessing step
// behind partial matching ("prime" finds "isPrime").
func normalize(s string) string {
	var sb strings.Builder
	for _, r := range strings.ToLower(s) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			sb.WriteRune(r)
		} else {
			sb.WriteByte(' ')
		}
	}
	return strings.Join(strings.Fields(sb.String()), " ")
}

// seedTextMatches reports whether the normalized query occurs in the normalized
// target (substring over collapsed text, so "prime" matches "isPrime").
func seedTextMatches(query, target string) bool {
	nq := normalize(query)
	nt := normalize(target)
	if nq == "" {
		return false
	}
	if strings.Contains(strings.ReplaceAll(nt, " ", ""), strings.ReplaceAll(nq, " ", "")) {
		return true
	}
	// every query word present somewhere
	for _, w := range strings.Fields(nq) {
		if !strings.Contains(nt, w) {
			return false
		}
	}
	return true
}

// SeedText performs text-based search over PEs and workflows by name and
// description (Fig. 6). When a SearchBoth query overflows the limit, PE and
// workflow hits are interleaved before truncation, so a flood of matching
// PEs can no longer silently starve every workflow hit (and vice versa).
func SeedText(query string, st core.SearchType, pes []core.PERecord, wfs []core.WorkflowRecord, limit int) []core.SearchHit {
	if limit <= 0 {
		limit = DefaultLimit
	}
	var peHits, wfHits []core.SearchHit
	if st == core.SearchPEs || st == core.SearchBoth {
		for _, pe := range pes {
			if seedTextMatches(query, pe.PEName) || seedTextMatches(query, pe.Description) {
				peHits = append(peHits, core.SearchHit{
					Kind: "pe", ID: pe.PEID, Name: pe.PEName, Description: pe.Description,
				})
			}
		}
	}
	if st == core.SearchWorkflows || st == core.SearchBoth {
		for _, wf := range wfs {
			if seedTextMatches(query, wf.EntryPoint) || seedTextMatches(query, wf.WorkflowName) || seedTextMatches(query, wf.Description) {
				wfHits = append(wfHits, core.SearchHit{
					Kind: "workflow", ID: wf.WorkflowID, Name: wf.EntryPoint, Description: wf.Description,
				})
			}
		}
	}
	if len(peHits)+len(wfHits) <= limit {
		return append(peHits, wfHits...)
	}
	return seedInterleave(peHits, wfHits, limit)
}

// seedInterleave merges two hit lists round-robin up to limit, preserving each
// list's internal order and draining the remainder from whichever list is
// longer.
func seedInterleave(a, b []core.SearchHit, limit int) []core.SearchHit {
	out := make([]core.SearchHit, 0, limit)
	for i := 0; len(out) < limit && (i < len(a) || i < len(b)); i++ {
		if i < len(a) {
			out = append(out, a[i])
		}
		if len(out) < limit && i < len(b) {
			out = append(out, b[i])
		}
	}
	return out
}

// Semantic ranks PEs against a natural-language query by cosine similarity
// of description embeddings (Fig. 7). Pass a precomputed query embedding
// (bi-encoder: the client embeds its own query); when nil it is computed
// here.
func Semantic(query string, queryEmbedding []float32, pes []core.PERecord, limit int) []core.SearchHit {
	if queryEmbedding == nil {
		queryEmbedding = EmbedDescription(query)
	}
	return rankByEmbedding(queryEmbedding, pes, func(pe core.PERecord) []float32 {
		return pe.DescEmbedding
	}, limit)
}

// Completion ranks PEs against a (possibly partial) code snippet by cosine
// similarity of code embeddings (Fig. 8).
func Completion(snippet string, queryEmbedding []float32, pes []core.PERecord, limit int) []core.SearchHit {
	if queryEmbedding == nil {
		queryEmbedding = EmbedCode(snippet)
	}
	return rankByEmbedding(queryEmbedding, pes, func(pe core.PERecord) []float32 {
		return pe.CodeEmbedding
	}, limit)
}

// rankByEmbedding scores every PE against the query with the same float64
// dot product the vector indexes use, keeping only the top limit hits in a
// bounded heap (O(N log k)) instead of sorting the full corpus. PE ids are
// unique in the registry, so (score, id) is a strict total order and the
// result matches a full sort byte-for-byte.
func rankByEmbedding(query []float32, pes []core.PERecord, vec func(core.PERecord) []float32, limit int) []core.SearchHit {
	if limit <= 0 {
		limit = DefaultLimit
	}
	top := index.NewTopK(limit)
	pos := make(map[int]int, len(pes)) // PE id → slice position; avoids copying every record
	for i, pe := range pes {
		v := vec(pe)
		if len(v) == 0 {
			continue // registered without embeddings: not searchable semantically
		}
		pos[pe.PEID] = i
		top.Push(index.Candidate{ID: pe.PEID, Score: embed.Cosine(embed.Vector(query), embed.Vector(v))})
	}
	return HitsFromCandidates(top.Sorted(), func(id int) (core.PERecord, bool) {
		i, ok := pos[id]
		if !ok {
			return core.PERecord{}, false
		}
		return pes[i], true
	})
}
