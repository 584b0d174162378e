package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"laminar/internal/core"
)

// FuzzTextMatcher holds TextMatcher to the seed's textMatches on any
// query and target. The matcher under test has already served another
// query and a longer target, so what it leaves in its buffers is part of
// what is tested. The traps live in testdata/fuzz/FuzzTextMatcher: runes
// that lowercase into ASCII (U+212A, U+0130), separator-only and empty
// queries, a query spanning a token boundary, words hitting different
// tokens, invalid UTF-8.
func FuzzTextMatcher(f *testing.F) {
	f.Add("prime", "isPrime")
	f.Add("PRIME numbers", "prints random prime numbers")
	f.Add("tensor", "checks if a number is prime")
	f.Fuzz(func(t *testing.T, query, target string) {
		var m TextMatcher
		m.Reset("an earlier and rather longer query")
		m.Matches("an earlier target, longer than most: " + target + target)
		m.Reset(query)
		want := seedTextMatches(query, target)
		for range 2 {
			if got := m.Matches(target); got != want {
				t.Fatalf("TextMatcher(%q).Matches(%q) = %v, the seed's textMatches says %v", query, target, got, want)
			}
		}
	})
}

// TestNormalizeIntoMatchesSeedNormalize: the two forms the matcher
// compares are the seed's normalize and that with its spaces removed.
func TestNormalizeIntoMatchesSeedNormalize(t *testing.T) {
	var spaced, packed []byte
	for _, in := range []string{
		"", " ", "IsPrime", "  Word  up ", "a-b_c", "--x--", "x", "Ünïcödé wörds", "Kelvin İd", "a\xffb", "日本語 text 42",
		strings.Repeat("LongToken ", 40),
	} {
		spaced, packed = normalizeInto(spaced, packed, in)
		want := normalize(in)
		if string(spaced) != want || string(packed) != strings.ReplaceAll(want, " ", "") {
			t.Errorf("normalizeInto(%q) = %q, %q; the seed's normalize gives %q", in, spaced, packed, want)
		}
	}
}

// TestTextMatchesSeedText: Text over the matcher answers exactly as the
// seed's Text, over random corpora whose small vocabulary makes most
// queries match many records, at limits on both sides of the overflow.
func TestTextMatchesSeedText(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	vocab := []string{"stream", "Prime", "is", "word", "Count", "filter", "x9", "Kelvin", "read_file", "né"}
	phrase := func(n int, sep string) string {
		words := make([]string, 1+rng.Intn(n))
		for i := range words {
			words[i] = vocab[rng.Intn(len(vocab))]
		}
		return strings.Join(words, sep)
	}
	for round := 0; round < 200; round++ {
		var pes []core.PERecord
		var wfs []core.WorkflowRecord
		for i := rng.Intn(30); i > 0; i-- {
			pes = append(pes, core.PERecord{PEID: len(pes) + 1, PEName: phrase(3, ""), Description: phrase(5, " ")})
		}
		for i := rng.Intn(12); i > 0; i-- {
			wfs = append(wfs, core.WorkflowRecord{WorkflowID: len(wfs) + 1, EntryPoint: phrase(2, "_"), WorkflowName: phrase(2, ""), Description: phrase(4, ", ")})
		}
		query := phrase(2, []string{" ", "", "-"}[rng.Intn(3)])
		if rng.Intn(10) == 0 {
			query = query[:len(query)/2] // may end mid-rune or empty
		}
		for _, st := range []core.SearchType{core.SearchPEs, core.SearchWorkflows, core.SearchBoth, "neither"} {
			for _, limit := range []int{-1, 0, 1, 2, 5, 100} {
				got, want := Text(query, st, pes, wfs, limit), SeedText(query, st, pes, wfs, limit)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: Text(%q, %s, limit %d) diverged from the seed:\n got %+v\nwant %+v", round, query, st, limit, got, want)
				}
			}
		}
	}
}

// TestTextHitsBuildsOnlySurvivors: on overflow the reply is limit long and
// alternates kinds from the head of each list; under it, PEs then
// workflows; nothing at all is nil, as the seed returned.
func TestTextHitsBuildsOnlySurvivors(t *testing.T) {
	var pes []*core.PERecord
	for i := 1; i <= 5; i++ {
		pes = append(pes, &core.PERecord{PEID: i, PEName: fmt.Sprint("pe", i)})
	}
	wfs := []*core.WorkflowRecord{{WorkflowID: 1, EntryPoint: "wf1"}}
	var names []string
	for _, h := range TextHits(pes, wfs, 4) {
		names = append(names, h.Name)
	}
	if got := strings.Join(names, " "); got != "pe1 wf1 pe2 pe3" {
		t.Fatalf("overflow order: %s", got)
	}
	if hits := TextHits(pes, wfs, 6); len(hits) != 6 || hits[5].Kind != "workflow" {
		t.Fatalf("fitting order: %+v", hits)
	}
	if hits := TextHits(nil, nil, 6); hits != nil {
		t.Fatalf("no match must be nil, got %+v", hits)
	}
}
