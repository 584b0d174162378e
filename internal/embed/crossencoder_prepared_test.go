package embed

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// FuzzCrossEncoderScore holds the prepared scorer to the seed's pair-wise
// Score, bit for bit, under every model in the zoo. The scorer under test
// has already scored another candidate sharing the fuzzed one's tokens, so
// rows it memoised then are what this score reads. The traps live in
// testdata/fuzz/FuzzCrossEncoderScore: a repeated query token, all-stopword
// and all-keyword texts (score 0), Align twins on both sides, a candidate
// sharing no token with the query, non-ASCII text, the empty string.
func FuzzCrossEncoderScore(f *testing.F) {
	f.Add("filter photon events", "def photon_filter(stream): return stream")
	f.Fuzz(func(t *testing.T, query, candidate string) {
		for _, name := range ModelNames() {
			ce := NewCrossEncoder(MustLookup(name))
			want := ce.seedScore(query, candidate)
			p := ce.Prepare(query)
			p.Score("earlier " + candidate + " candidate")
			for range 2 {
				if got := p.Score(candidate); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Prepare(%q).Score(%q) = %v, the seed's Score says %v", name, query, candidate, got, want)
				}
			}
			if got := ce.Score(query, candidate); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Score(%q, %q) = %v, the seed's Score says %v", name, query, candidate, got, want)
			}
		}
	})
}

// poolVocab mixes content words, stopwords, Python keywords, Align
// paraphrases with their twins, identifiers that split, digits and
// non-ASCII words, so random texts share tokens, repeat them, and
// sometimes carry no content token at all.
var poolVocab = []string{
	"photon", "filter", "stream", "sensor", "readings", "window", "merge", "combine",
	"verify", "check", "fetch", "get", "tally", "count", "the", "is", "of", "how",
	"def", "return", "self", "in", "readRaDec", "get_vo_table", "HTTPServer2", "42",
	"événement", "日本語", "release", "z7", "sliding", "threshold",
}

func randomText(rng *rand.Rand, maxWords int) string {
	words := make([]string, rng.Intn(maxWords+1))
	for i := range words {
		words[i] = poolVocab[rng.Intn(len(poolVocab))]
	}
	return strings.Join(words, " ")
}

// randomPool draws n candidates; about one in five repeats an earlier one,
// so pools carry exact duplicates and therefore ties.
func randomPool(rng *rand.Rand, n int) []string {
	pool := make([]string, n)
	for i := range pool {
		if i > 0 && rng.Intn(5) == 0 {
			pool[i] = pool[rng.Intn(i)]
			continue
		}
		pool[i] = randomText(rng, 12)
	}
	return pool
}

// TestRankStringsMatchesSeedOverRandomPools is the pool differential: over
// 200 random pools (sizes 1 to 160, duplicates and ties included),
// RankStrings returns the seed's order and the seed's score bits.
func TestRankStringsMatchesSeedOverRandomPools(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	ce := NewCrossEncoder(MustLookup(ModelCodeSearch))
	for trial := range 200 {
		n := 1 + rng.Intn(160)
		switch trial {
		case 0:
			n = 1
		case 1:
			n = 160
		}
		query := randomText(rng, 8)
		pool := randomPool(rng, n)
		idxs, scores := ce.RankStrings(query, pool)
		wantIdxs, wantScores := ce.seedRankStrings(query, pool)
		if len(idxs) != n || len(scores) != n {
			t.Fatalf("trial %d: %d indices and %d scores for a pool of %d", trial, len(idxs), len(scores), n)
		}
		for i := range wantIdxs {
			if idxs[i] != wantIdxs[i] || math.Float64bits(scores[i]) != math.Float64bits(wantScores[i]) {
				t.Fatalf("trial %d, query %q, pool of %d: rank %d is (%d, %v), the seed's RankStrings says (%d, %v)",
					trial, query, n, i, idxs[i], scores[i], wantIdxs[i], wantScores[i])
			}
		}
	}
}

// BenchmarkCrossEncoderPool ranks one PE-like pool with the prepared
// scorer and with the seed's pair-wise oracle, side by side.
func BenchmarkCrossEncoderPool(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	verbs := []string{"normalize", "filter", "aggregate", "parse", "merge", "count", "sort", "detect"}
	objects := []string{"sensor readings", "log lines", "photon events", "price ticks", "graph edges", "time series"}
	quals := []string{"in a sliding window", "per station", "above a threshold", "by timestamp", "across shards"}
	ce := NewCrossEncoder(MustLookup(ModelCodeSearch))
	for _, n := range []int{10, 40, 160} {
		pool := make([]string, n)
		for i := range pool {
			v, o := verbs[rng.Intn(len(verbs))], objects[rng.Intn(len(objects))]
			pool[i] = fmt.Sprintf("%s%sQ%d\n%s %s %s, release z%d", v, strings.ReplaceAll(o, " ", "_"), i,
				v, o, quals[rng.Intn(len(quals))], rng.Intn(1000))
		}
		query := "which release z417 can filter photon events above a threshold"
		b.Run(fmt.Sprintf("prepared/pool=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				ce.RankStrings(query, pool)
			}
		})
		b.Run(fmt.Sprintf("seed/pool=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				ce.seedRankStrings(query, pool)
			}
		})
	}
}

// TestPreparedScorerMemoIsBounded: a query long enough that the pool's
// rows would pass memoFloats memoises only up to it, recomputes the rest,
// and still scores every candidate bit for bit as the seed's Score does.
func TestPreparedScorerMemoIsBounded(t *testing.T) {
	ce := NewCrossEncoder(MustLookup(ModelCodeSearch))
	query := strings.Repeat("photon sensor readings window ", 15000)
	candidates := []string{
		"alpha bravo charlie delta echo foxtrot golf hotel india juliet",
		"kilo lima mike november oscar papa quebec romeo sierra tango",
	}
	p := ce.Prepare(query)
	if len(p.qv)*len(candidates)*10 <= memoFloats {
		t.Fatalf("a %d-token query fits the memo; the test needs a longer one", len(p.qv))
	}
	want := make([]float64, len(candidates))
	for i, c := range candidates {
		want[i] = ce.seedScore(query, c)
	}
	for round := range 2 {
		for i, c := range candidates {
			if got := p.Score(c); math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("round %d: Score(%q) = %v, the seed's Score says %v", round, c, got, want[i])
			}
			if len(p.rows)*len(p.qv) > memoFloats {
				t.Fatalf("memo holds %d rows of %d cosines, cap %d", len(p.rows), len(p.qv), memoFloats)
			}
		}
	}
	if len(p.rows) >= 20 {
		t.Fatalf("all %d rows memoised past the cap", len(p.rows))
	}
}
