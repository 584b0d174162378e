package embed

import (
	"cmp"
	"math"
	"slices"
)

// CrossEncoder scores (query, candidate) pairs with token-level soft
// alignment instead of comparing two pre-computed vectors — the
// late-interaction shape of the cross-encoder architecture in Fig. 2 of the
// paper. The decisive property Section 2.4 discusses is the cost asymmetry:
// a cross-encoder cannot reuse stored embeddings, so every query pays
// O(|query| · |corpus|) token-alignment work, while the bi-encoder answers
// from embeddings computed once at registration. The
// BenchmarkBiVsCrossEncoder ablation measures that asymmetry (accuracy of
// this lightweight proxy is comparable to, not above, the bi-encoder).
type CrossEncoder struct {
	m *Model
}

// NewCrossEncoder builds a cross-encoder sharing a bi-encoder's token space.
func NewCrossEncoder(m *Model) *CrossEncoder { return &CrossEncoder{m: m} }

// Score computes a soft token-alignment score in [−1, 1]: for each query
// token the best-matching candidate token (and vice versa), averaged —
// the late-interaction scoring of ColBERT-style cross architectures.
func (ce *CrossEncoder) Score(query, candidate string) float64 {
	return ce.Prepare(query).Score(candidate)
}

// Prepare resolves the query's tokens and directions once and returns a
// scorer for candidates against it (not safe for concurrent use).
func (ce *CrossEncoder) Prepare(query string) *QueryScorer {
	qt := ce.prepTokens(query)
	qv := make([]Vector, len(qt))
	for i, t := range qt {
		qv[i] = ce.m.direction("tok:" + t)
	}
	return &QueryScorer{ce: ce, qv: qv, rows: map[string][]float64{}, best: make([]float64, len(qv))}
}

// QueryScorer memoises, per distinct candidate token, the token's row of
// cosines against every query token, so a pool of candidates sharing
// vocabulary computes each cosine once. Each row is consumed in the order
// the pair-wise loops would visit it and vecmath.Dot is symmetric, so
// every score is bit-identical to the pair-wise one.
type QueryScorer struct {
	ce   *CrossEncoder
	qv   []Vector
	rows map[string][]float64 // candidate token → cosine against each of qv
	best []float64            // each query token's best cosine in one Score
}

// memoFloats caps the cosines one QueryScorer memoises (8 MiB), so a
// call's memory stays flat however long the client's query is; rows past
// it are recomputed, which costs time, not bits.
const memoFloats = 1 << 20

// Score is CrossEncoder.Score(query, candidate) for the prepared query.
func (p *QueryScorer) Score(candidate string) float64 {
	ct := p.ce.prepTokens(candidate)
	if len(p.qv) == 0 || len(ct) == 0 {
		return 0
	}
	for i := range p.best {
		p.best[i] = math.Inf(-1)
	}
	var forward, backward float64
	for _, t := range ct {
		r, ok := p.rows[t]
		if !ok {
			r = make([]float64, len(p.qv))
			cv := p.ce.m.direction("tok:" + t)
			for i, qv := range p.qv {
				r[i] = Cosine(qv, cv)
			}
			if (len(p.rows)+1)*len(r) <= memoFloats {
				p.rows[t] = r
			}
		}
		rowBest := math.Inf(-1)
		for i, s := range r {
			if s > p.best[i] {
				p.best[i] = s
			}
			if s > rowBest {
				rowBest = s
			}
		}
		backward += rowBest
	}
	for _, s := range p.best {
		forward += s
	}
	return (forward/float64(len(p.qv)) + backward/float64(len(ct))) / 2
}

func (ce *CrossEncoder) prepTokens(text string) []string {
	raw := Tokenize(text, ce.m.cfg.SplitIdentifiers)
	out := raw[:0]
	for _, t := range raw {
		if nlStopwords[t] || pythonKeywords[t] {
			// full attention over content tokens only: keywords and
			// stopwords match everything and dilute the alignment
			continue
		}
		out = append(out, t)
		// The cross-encoder sees aligned twins too: full attention lets it
		// relate paraphrases directly.
		if ce.m.cfg.Align != nil {
			if twin, ok := ce.m.cfg.Align[t]; ok && twin != t {
				out = append(out, twin)
			}
		}
	}
	return out
}

// RankStrings orders candidate texts by cross-encoder score, descending,
// ties in ascending index order.
func (ce *CrossEncoder) RankStrings(query string, candidates []string) ([]int, []float64) {
	p := ce.Prepare(query)
	scores := make([]float64, len(candidates))
	idxs := make([]int, len(candidates))
	for i, c := range candidates {
		scores[i] = p.Score(c)
		idxs[i] = i
	}
	slices.SortStableFunc(idxs, func(a, b int) int { return cmp.Compare(scores[b], scores[a]) })
	ordered := make([]float64, len(idxs))
	for i, idx := range idxs {
		ordered[i] = scores[idx]
	}
	return idxs, ordered
}
