package registry

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"laminar/internal/core"
	"laminar/internal/index"
	"laminar/internal/search"
)

// TestRerankedSearchReranksTheHybridPool: a reranked Search over an
// exact index (RecallTarget 1.0) answers what search.Rerank makes of the
// fused pool — 4×limit hits from both legs — hit for hit and score bit for
// score bit. The ranker itself is held to the seed's pair-wise rerank by
// TestRankStringsMatchesSeedOverRandomPools and FuzzCrossEncoderScore in
// internal/embed; this test holds the pool that reaches it. The corpus
// repeats its vocabulary and carries exact-duplicate descriptions, so pools
// share most tokens and hold ties.
func TestRerankedSearchReranksTheHybridPool(t *testing.T) {
	s := NewStore()
	s.ConfigureIndex(func() index.VectorIndex {
		return index.NewClustered(index.ClusteredConfig{RecallTarget: 1.0})
	})
	u := newUser(t, s, "rerank")
	verbs := []string{"filter", "merge", "count", "parse", "normalize"}
	objects := []string{"photon events", "sensor readings", "log lines", "price ticks"}
	quals := []string{"in a sliding window", "above a threshold", "by timestamp"}
	for i := 0; i < 150; i++ {
		v, o, q := verbs[i%len(verbs)], objects[i/len(verbs)%len(objects)], quals[i%len(quals)]
		desc := fmt.Sprintf("%s %s %s, release z%d", v, o, q, i%40)
		addLexPE(t, s, u.UserID, fmt.Sprintf("%s_stage_%03d", v, i), desc,
			fmt.Sprintf("def %s_stage_%03d(x):\n    return x", v, i))
	}
	for i := 0; i < 12; i++ {
		desc := fmt.Sprintf("workflow to %s %s", verbs[i%len(verbs)], objects[i%len(objects)])
		if _, err := s.AddWorkflow(u.UserID, core.AddWorkflowRequest{
			WorkflowName: fmt.Sprintf("flow%d", i), EntryPoint: fmt.Sprintf("flow%d", i), Description: desc,
			WorkflowCode: "w", DescEmbedding: search.EmbedDescription(desc),
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.WaitIndexReady()

	// lexLeg is Search's lexical leg, taken apart so the pool can be
	// rebuilt outside it.
	lexLeg := func(text string, typ core.SearchType, pool int) []core.SearchHit {
		peLex, wfLex := s.lexIndexes()
		s.pesMu.RLock()
		defer s.pesMu.RUnlock()
		s.wfsMu.RLock()
		defer s.wfsMu.RUnlock()
		var peC, wfC []index.Candidate
		if typ != core.SearchWorkflows {
			peC = peLex.Search(text, pool, func(id int) bool { return s.userPEs[u.UserID][id] })
		}
		if typ != core.SearchPEs {
			wfC = wfLex.Search(text, pool, func(id int) bool { return s.userWorkflows[u.UserID][id] })
		}
		return search.MergeRanked(s.peHitsLocked(peC), s.wfHitsLocked(wfC), pool)
	}

	queries := []string{
		"which release z17 can filter photon events above a threshold",
		"merge sensor readings by timestamp",
		"count count count log lines",
		"verify and fetch price ticks", // Align paraphrases
		"how do i do it",               // stopwords only: every score 0
		"workflow",
	}
	compared := 0
	for _, text := range queries {
		emb := search.EmbedDescription(text)
		for _, typ := range []core.SearchType{core.SearchPEs, core.SearchBoth} {
			for _, limit := range []int{1, 5, 10} {
				pool := limit * hybridOverfetch
				ann := s.Search(u.UserID, Query{Type: typ, Limit: pool}, Input{Embedding: emb})[0]
				want := search.Rerank(text, search.FuseRRF(pool, ann, lexLeg(text, typ, pool)), limit)
				got := s.Search(u.UserID, Query{Mode: core.ModeReranked, Type: typ, Limit: limit}, Input{Text: text, Embedding: emb})[0]
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%q type %v limit %d:\n got %+v\nwant %+v", text, typ, limit, got, want)
				}
				for i := range got {
					if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
						t.Fatalf("%q type %v limit %d: hit %d scored %v, search.Rerank says %v", text, typ, limit, i, got[i].Score, want[i].Score)
					}
				}
				compared += len(got)
			}
		}
	}
	if compared == 0 {
		t.Fatal("no reranked hit was compared")
	}
}
