package search

import (
	"bytes"
	"unicode"
	"unicode/utf8"

	"laminar/internal/core"
)

// TextMatcher decides Section 4.1's normalized partial matching for one
// query against many fields. Normalizing lowercases, keeps [a-z0-9] and
// collapses every other run to one separator, so "prime" finds "isPrime".
// The query is normalized once by Reset; each field is normalized into
// scratch buffers the matcher keeps, so a scan allocates nothing per
// field. The zero value matches nothing; a matcher is not safe for
// concurrent use.
type TextMatcher struct {
	// Each text is held in two forms: spaced (tokens joined by single
	// spaces) and packed (the same without the spaces).
	querySpaced, queryPacked []byte
	spaced, packed           []byte
}

// Reset points the matcher at a new query, keeping its buffers.
func (m *TextMatcher) Reset(query string) {
	m.querySpaced, m.queryPacked = normalizeInto(m.querySpaced, m.queryPacked, query)
}

// Matches reports whether the query occurs in target: as a substring once
// both have lost their separators ("spri" is in "is prime"), or else with
// every query word inside some token of the target. An empty query (or one
// of separators only) matches nothing.
func (m *TextMatcher) Matches(target string) bool {
	if len(m.queryPacked) == 0 {
		return false
	}
	m.spaced, m.packed = normalizeInto(m.spaced, m.packed, target)
	if bytes.Contains(m.packed, m.queryPacked) {
		return true
	}
	if len(m.querySpaced) == len(m.queryPacked) {
		return false // one word: inside a token it would have been inside packed
	}
	for words := m.querySpaced; ; {
		end := bytes.IndexByte(words, ' ')
		if end < 0 {
			return bytes.Contains(m.spaced, words)
		}
		if !bytes.Contains(m.spaced, words[:end]) {
			return false
		}
		words = words[end+1:]
	}
}

// MatchesPE reports whether the query matches the PE's name or description.
func (m *TextMatcher) MatchesPE(pe *core.PERecord) bool {
	return m.Matches(pe.PEName) || m.Matches(pe.Description)
}

// MatchesWorkflow reports whether the query matches the workflow's entry
// point, name or description.
func (m *TextMatcher) MatchesWorkflow(wf *core.WorkflowRecord) bool {
	return m.Matches(wf.EntryPoint) || m.Matches(wf.WorkflowName) || m.Matches(wf.Description)
}

// normalizeInto writes the two normalized forms of s over spaced and
// packed, growing them only when s is longer than anything seen before:
// neither form is longer than s, since a multi-byte rune yields at most
// one byte and a separator run at most one space.
func normalizeInto(spaced, packed []byte, s string) ([]byte, []byte) {
	if cap(spaced) < len(s) {
		n := max(len(s), 2*cap(spaced))
		spaced, packed = make([]byte, n), make([]byte, n)
	}
	spaced, packed = spaced[:len(s)], packed[:len(s)]
	ns, np := 0, 0
	gap := false // a separator run since the last token byte
	for i := 0; i < len(s); {
		c, width := rune(s[i]), 1
		switch {
		case 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
		case c >= utf8.RuneSelf:
			// A few runes lowercase into ASCII (U+212A KELVIN SIGN to k).
			c, width = utf8.DecodeRuneInString(s[i:])
			c = unicode.ToLower(c)
		}
		i += width
		if 'a' <= c && c <= 'z' || '0' <= c && c <= '9' {
			if gap && ns > 0 {
				spaced[ns] = ' '
				ns++
			}
			gap = false
			spaced[ns], packed[np] = byte(c), byte(c)
			ns, np = ns+1, np+1
		} else {
			gap = true
		}
	}
	return spaced[:ns], packed[:np]
}

// TextHits assembles a text search's reply from the matching records,
// each kind in the order it should appear (by id): every PE and then every
// workflow when they fit the limit; otherwise the two kinds round-robin up
// to the limit, so a flood of matching PEs cannot starve every workflow
// hit (and vice versa). Only the hits returned are built.
func TextHits(pes []*core.PERecord, wfs []*core.WorkflowRecord, limit int) []core.SearchHit {
	if limit <= 0 {
		limit = DefaultLimit
	}
	n := len(pes) + len(wfs)
	if n == 0 {
		return nil
	}
	out := make([]core.SearchHit, 0, min(limit, n))
	if n <= limit {
		for _, pe := range pes {
			out = append(out, peHit(pe, 0))
		}
		for _, wf := range wfs {
			out = append(out, workflowHit(wf, 0))
		}
		return out
	}
	for i := 0; len(out) < limit; i++ {
		if i < len(pes) {
			out = append(out, peHit(pes[i], 0))
		}
		if len(out) < limit && i < len(wfs) {
			out = append(out, workflowHit(wfs[i], 0))
		}
	}
	return out
}

// Text is a text search over record slices, in the order given. Like the
// registry's CompletionSearch, SemanticSearchBoth and HybridSearch it
// exists only because the repo's benchmark compiles against it (its replay
// twin times the pre-pipeline route), and goes when the twin does; the
// server's text queries run inside registry.Store.Search.
func Text(query string, st core.SearchType, pes []core.PERecord, wfs []core.WorkflowRecord, limit int) []core.SearchHit {
	var m TextMatcher
	m.Reset(query)
	var peHits []*core.PERecord
	var wfHits []*core.WorkflowRecord
	if st == core.SearchPEs || st == core.SearchBoth {
		for i := range pes {
			if m.MatchesPE(&pes[i]) {
				peHits = append(peHits, &pes[i])
			}
		}
	}
	if st == core.SearchWorkflows || st == core.SearchBoth {
		for i := range wfs {
			if m.MatchesWorkflow(&wfs[i]) {
				wfHits = append(wfHits, &wfs[i])
			}
		}
	}
	return TextHits(peHits, wfHits, limit)
}
