package embed

import "math"

// The oracle: the seed's pair-wise cross-encoder, verbatim (renamed with a
// seed prefix). It resolved both token lists and computed the whole
// |q|×|c| cosine matrix twice for every pair, and ranked by insertion
// sort. Nothing outside tests calls it; the fuzz target and the pool
// differential in crossencoder_prepared_test.go hold QueryScorer and
// RankStrings to it bit for bit.

func (ce *CrossEncoder) seedScore(query, candidate string) float64 {
	qt := ce.prepTokens(query)
	ct := ce.prepTokens(candidate)
	if len(qt) == 0 || len(ct) == 0 {
		return 0
	}
	qv := make([]Vector, len(qt))
	for i, t := range qt {
		qv[i] = ce.m.direction("tok:" + t)
	}
	cv := make([]Vector, len(ct))
	for i, t := range ct {
		cv[i] = ce.m.direction("tok:" + t)
	}
	forward := ce.seedBestMatchMean(qv, cv)
	backward := ce.seedBestMatchMean(cv, qv)
	return (forward + backward) / 2
}

func (ce *CrossEncoder) seedBestMatchMean(a, b []Vector) float64 {
	var total float64
	for _, av := range a {
		best := math.Inf(-1)
		for _, bv := range b {
			if s := Cosine(av, bv); s > best {
				best = s
			}
		}
		total += best
	}
	return total / float64(len(a))
}

// seedRankStrings orders candidate texts by cross-encoder score, descending.
func (ce *CrossEncoder) seedRankStrings(query string, candidates []string) ([]int, []float64) {
	scores := make([]float64, len(candidates))
	for i, c := range candidates {
		scores[i] = ce.seedScore(query, c)
	}
	idxs := make([]int, len(candidates))
	for i := range idxs {
		idxs[i] = i
	}
	// descending by score, ascending index for ties
	for i := 1; i < len(idxs); i++ {
		for j := i; j > 0; j-- {
			a, b := idxs[j], idxs[j-1]
			if scores[a] > scores[b] || (scores[a] == scores[b] && a < b) {
				idxs[j], idxs[j-1] = idxs[j-1], idxs[j]
			} else {
				break
			}
		}
	}
	ordered := make([]float64, len(idxs))
	for i, idx := range idxs {
		ordered[i] = scores[idx]
	}
	return idxs, ordered
}
