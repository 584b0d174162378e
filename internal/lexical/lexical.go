// Package lexical is the registry's keyword leg: a BM25 inverted index
// over PE and workflow text (names, descriptions, decoded code). It is the
// no-GPU complement to the dense vector indexes — exact-identifier queries
// that embeddings fuzz ("photon_events_filter_0042") resolve here through
// plain term statistics, and reciprocal-rank fusion (internal/search)
// merges the two rankings into one hybrid result.
//
// The index mirrors the vector indexes' contract: postings are maintained
// incrementally on every Upsert/Delete (never rebuilt per query), Search
// takes the same visibility filter and returns index.Candidate lists under
// the same deterministic (score desc, id asc) total order, and the trained
// state snapshots into the registry's v2 sidecar as an optional section —
// a restore validates per-document source checksums and skips
// re-tokenizing the corpus on cold start.
package lexical

import (
	"math"
	"sync"

	"laminar/internal/embed"
	"laminar/internal/index"
)

// BM25 parameters: the standard Robertson defaults. K1 saturates term
// frequency; B scales the document-length normalization.
const (
	K1 = 1.2
	B  = 0.75
)

// Tokenize is the code-aware tokenizer behind every postings list and
// query: identifiers split on camelCase/snake_case boundaries, everything
// lowercases, punctuation separates. It shares the embedding zoo's
// tokenizer so the lexical and semantic legs agree on what a "term" is.
func Tokenize(text string) []string {
	return embed.Tokenize(text, true)
}

// docEntry is one indexed document's term statistics.
type docEntry struct {
	terms  map[string]uint32 // term → tf
	length uint32            // total tokens (sum of tfs)
	sum    uint64            // SourceSum of what it was derived from (snapshot binding)
}

// Index is an incrementally maintained BM25 inverted index. All methods
// are safe for concurrent use; like the vector indexes it synchronizes
// internally so callers only hold it long enough to copy the pointer.
type Index struct {
	mu       sync.RWMutex
	docs     map[int]*docEntry
	postings map[string]map[int]uint32 // term → doc id → tf
	totalLen uint64                    // sum of doc lengths, for avgdl
}

// New creates an empty index.
func New() *Index {
	return &Index{
		docs:     map[int]*docEntry{},
		postings: map[string]map[int]uint32{},
	}
}

// Name reports the ranking function, mirroring index.VectorIndex.Name.
func (ix *Index) Name() string { return "bm25" }

// Len reports the number of indexed documents.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// Terms reports the number of distinct terms with live postings.
func (ix *Index) Terms() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings)
}

// Upsert indexes text under id, replacing any previous document. A text
// that tokenizes to nothing removes the document — the same
// empty-input-removes convention the vector indexes use.
func (ix *Index) Upsert(id int, text string) {
	ix.UpsertBound(id, text, SourceSum(text))
}

// UpsertBound is Upsert for a caller that derives text from cheaper
// source fields: sum is the SourceSum of those fields, and it is what a
// later Restore compares, so the caller never re-derives text to restore.
func (ix *Index) UpsertBound(id int, text string, sum uint64) {
	tokens := Tokenize(text)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(id)
	if len(tokens) == 0 {
		return
	}
	entry := &docEntry{
		terms:  make(map[string]uint32, len(tokens)),
		length: uint32(len(tokens)),
		sum:    sum,
	}
	for _, t := range tokens {
		entry.terms[t]++
	}
	ix.installLocked(id, entry)
}

// Delete removes a document; absent ids are a no-op.
func (ix *Index) Delete(id int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(id)
}

// installLocked wires a prepared entry into the postings. Caller holds mu.
func (ix *Index) installLocked(id int, entry *docEntry) {
	ix.docs[id] = entry
	ix.totalLen += uint64(entry.length)
	for t, tf := range entry.terms {
		plist := ix.postings[t]
		if plist == nil {
			plist = map[int]uint32{}
			ix.postings[t] = plist
		}
		plist[id] = tf
	}
}

// removeLocked unwires a document from the postings. Caller holds mu.
func (ix *Index) removeLocked(id int) {
	entry, ok := ix.docs[id]
	if !ok {
		return
	}
	delete(ix.docs, id)
	ix.totalLen -= uint64(entry.length)
	for t := range entry.terms {
		plist := ix.postings[t]
		delete(plist, id)
		if len(plist) == 0 {
			delete(ix.postings, t)
		}
	}
}

// Search ranks documents against the query under BM25, returning at most k
// candidates that pass the filter (nil admits everything), best first under
// the same strict (score desc, id asc) total order every vector index uses.
// Query terms are deduplicated; documents sharing no term score zero and
// are never returned.
func (ix *Index) Search(query string, k int, filter func(int) bool) []index.Candidate {
	terms := Tokenize(query)
	if len(terms) == 0 || k <= 0 {
		return nil
	}
	seen := make(map[string]bool, len(terms))
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := len(ix.docs)
	if n == 0 {
		return nil
	}
	avgdl := float64(ix.totalLen) / float64(n)
	scores := map[int]float64{}
	for _, t := range terms {
		if seen[t] {
			continue
		}
		seen[t] = true
		plist := ix.postings[t]
		if len(plist) == 0 {
			continue
		}
		idf := idf(n, len(plist))
		for id, tf := range plist {
			dl := float64(ix.docs[id].length)
			f := float64(tf)
			scores[id] += idf * f * (K1 + 1) / (f + K1*(1-B+B*dl/avgdl))
		}
	}
	top := index.NewTopK(k)
	for id, score := range scores {
		if filter != nil && !filter(id) {
			continue
		}
		top.Push(index.Candidate{ID: id, Score: score})
	}
	return top.Sorted()
}

// idf is the BM25+ variant that never goes negative: ln(1 + (N-df+0.5)/(df+0.5)).
func idf(n, df int) float64 {
	return math.Log(1 + (float64(n)-float64(df)+0.5)/(float64(df)+0.5))
}
