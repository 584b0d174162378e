package registry

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"laminar/internal/core"
	"laminar/internal/index"
	"laminar/internal/search"
)

// addLexPE registers a PE whose description and code carry real text (and
// real embeddings), so both retrieval legs have something to find.
func addLexPE(t *testing.T, s *Store, userID int, name, desc, code string) *core.PERecord {
	t.Helper()
	pe, err := s.AddPE(userID, core.AddPERequest{
		PEName:        name,
		Description:   desc,
		PECode:        code,
		CodeEmbedding: search.EmbedCode(code),
		DescEmbedding: search.EmbedDescription(desc),
	})
	if err != nil {
		t.Fatal(err)
	}
	return pe
}

func TestHybridSearchFindsExactIdentifier(t *testing.T) {
	s := NewStore()
	u := newUser(t, s, "hy")
	// Descriptions are near-identical so the ANN leg cannot tell the PEs
	// apart; the unique identifier lives only in the code.
	var want *core.PERecord
	for i, ident := range []string{
		"photon_events_filter_0042", "photon_events_filter_0043",
		"photon_events_filter_0044", "photon_events_filter_0045",
	} {
		pe := addLexPE(t, s, u.UserID, ident,
			"a PE that filters photon events by threshold",
			"def "+ident+"(stream):\n    return stream")
		if i == 0 {
			want = pe
		}
	}
	query := "photon_events_filter_0042"
	hits := s.HybridSearch(u.UserID, HybridQuery{
		Text:      query,
		Embedding: search.EmbedDescription(query),
		Type:      core.SearchPEs,
		Limit:     2,
	})
	if len(hits) == 0 || hits[0].ID != want.PEID {
		t.Fatalf("exact-identifier query missed its PE: %+v (want id %d)", hits, want.PEID)
	}
}

func TestHybridSearchDegradesPerLeg(t *testing.T) {
	s := NewStore()
	u := newUser(t, s, "deg")
	pe := addLexPE(t, s, u.UserID, "aggWindow",
		"a PE that aggregates window counts", "def agg_window(s): pass")

	// No embedding: lexical-only still answers.
	hits := s.HybridSearch(u.UserID, HybridQuery{
		Text: "aggregates window counts", Type: core.SearchPEs, Limit: 5,
	})
	if len(hits) != 1 || hits[0].ID != pe.PEID {
		t.Fatalf("lexical-only leg failed: %+v", hits)
	}
	// No text: ANN-only still answers.
	hits = s.HybridSearch(u.UserID, HybridQuery{
		Embedding: search.EmbedDescription("aggregates window counts"),
		Type:      core.SearchPEs, Limit: 5,
	})
	if len(hits) != 1 || hits[0].ID != pe.PEID {
		t.Fatalf("ANN-only leg failed: %+v", hits)
	}
	// Neither: no hits, no panic.
	if hits = s.HybridSearch(u.UserID, HybridQuery{Type: core.SearchPEs, Limit: 5}); hits != nil {
		t.Fatalf("empty query returned %+v", hits)
	}
}

func TestHybridSearchBothKindsAndVisibility(t *testing.T) {
	s := NewStore()
	u := newUser(t, s, "both")
	other := newUser(t, s, "other")
	pe := addLexPE(t, s, u.UserID, "renderGauge",
		"a PE that renders gauge widgets", "def render_gauge(s): pass")
	// A PE visible only to the other user must never surface.
	addLexPE(t, s, other.UserID, "renderGaugeSecret",
		"a PE that renders gauge widgets secretly", "def render_gauge_secret(s): pass")
	wf, err := s.AddWorkflow(u.UserID, core.AddWorkflowRequest{
		WorkflowName: "gaugeFlow", EntryPoint: "runGaugeFlow",
		Description:   "a workflow that renders gauge dashboards",
		WorkflowCode:  "code",
		DescEmbedding: search.EmbedDescription("a workflow that renders gauge dashboards"),
	})
	if err != nil {
		t.Fatal(err)
	}
	hits := s.HybridSearch(u.UserID, HybridQuery{
		Text:      "renders gauge",
		Embedding: search.EmbedDescription("renders gauge"),
		Type:      core.SearchBoth,
		Limit:     10,
	})
	var sawPE, sawWF bool
	for _, h := range hits {
		if h.Kind == "pe" && h.ID == pe.PEID {
			sawPE = true
		}
		if h.Kind == "workflow" && h.ID == wf.WorkflowID {
			sawWF = true
		}
		if h.Kind == "pe" && h.ID != pe.PEID {
			t.Fatalf("foreign user's PE leaked into results: %+v", hits)
		}
	}
	if !sawPE || !sawWF {
		t.Fatalf("SearchBoth missed a kind (pe=%v wf=%v): %+v", sawPE, sawWF, hits)
	}
}

func TestHybridSearchRerankedMode(t *testing.T) {
	s := NewStore()
	u := newUser(t, s, "rr")
	want := addLexPE(t, s, u.UserID, "filterPhotons",
		"a PE that filters photon events by threshold", "def filter_photons(s): pass")
	addLexPE(t, s, u.UserID, "renderDash",
		"a PE that renders dashboard widgets", "def render_dash(s): pass")
	addLexPE(t, s, u.UserID, "aggCounts",
		"a PE that aggregates window counts", "def agg_counts(s): pass")
	q := "filter photon events"
	hits := s.HybridSearch(u.UserID, HybridQuery{
		Text:      q,
		Embedding: search.EmbedDescription(q),
		Type:      core.SearchPEs,
		Limit:     3,
		Rerank:    true,
	})
	if len(hits) == 0 || hits[0].ID != want.PEID {
		t.Fatalf("reranked query missed the matching PE: %+v", hits)
	}
	// Determinism across repeated calls.
	again := s.HybridSearch(u.UserID, HybridQuery{
		Text: q, Embedding: search.EmbedDescription(q),
		Type: core.SearchPEs, Limit: 3, Rerank: true,
	})
	if len(again) != len(hits) {
		t.Fatalf("rerank nondeterministic: %d vs %d hits", len(again), len(hits))
	}
	for i := range hits {
		if hits[i].ID != again[i].ID {
			t.Fatalf("rerank nondeterministic:\n%+v\n%+v", hits, again)
		}
	}
}

func TestLexicalIndexMaintainedOnRemove(t *testing.T) {
	s := NewStore()
	u := newUser(t, s, "rm")
	pe := addLexPE(t, s, u.UserID, "uniqueSprocket",
		"a PE that sprockets uniquely", "def unique_sprocket(s): pass")
	wf, err := s.AddWorkflow(u.UserID, core.AddWorkflowRequest{
		WorkflowName: "sprocketFlow", EntryPoint: "runSprockets",
		Description: "a workflow of sprockets", WorkflowCode: "code",
	})
	if err != nil {
		t.Fatal(err)
	}
	if docs, _ := s.LexicalStats(); docs != 2 {
		t.Fatalf("LexicalStats docs = %d, want 2", docs)
	}
	if err := s.RemovePE(u.UserID, pe.PEID); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveWorkflow(u.UserID, wf.WorkflowID); err != nil {
		t.Fatal(err)
	}
	if docs, _ := s.LexicalStats(); docs != 0 {
		t.Fatalf("LexicalStats docs = %d after removals, want 0", docs)
	}
	if hits := s.HybridSearch(u.UserID, HybridQuery{
		Text: "sprocket", Type: core.SearchBoth, Limit: 5,
	}); len(hits) != 0 {
		t.Fatalf("removed records still lexically retrievable: %+v", hits)
	}
}

func TestLexicalSnapshotRoundTripThroughSave(t *testing.T) {
	s := NewStore()
	u := newUser(t, s, "persist")
	addLexPE(t, s, u.UserID, "photonFilter",
		"a PE that filters photon events", "def photon_filter(s): pass")
	addLexPE(t, s, u.UserID, "countAgg",
		"a PE that aggregates counts", "def count_agg(s): pass")
	path := filepath.Join(t.TempDir(), "registry.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	fresh := NewStore()
	if err := fresh.Load(path); err != nil {
		t.Fatal(err)
	}
	// The restored store must answer lexical queries identically.
	for _, q := range []string{"photon filter", "photon_filter", "aggregates counts"} {
		a := s.HybridSearch(u.UserID, HybridQuery{Text: q, Type: core.SearchPEs, Limit: 10})
		b := fresh.HybridSearch(u.UserID, HybridQuery{Text: q, Type: core.SearchPEs, Limit: 10})
		if len(a) != len(b) {
			t.Fatalf("query %q: %d vs %d hits after reload", q, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Score != b[i].Score {
				t.Fatalf("query %q hit %d differs after reload: %+v vs %+v", q, i, a[i], b[i])
			}
		}
	}
	if docs, terms := fresh.LexicalStats(); docs != 2 || terms == 0 {
		t.Fatalf("restored lexical stats docs=%d terms=%d", docs, terms)
	}
}

// TestHugeLimitReturnsTheWholeCorpus: the limit travels from the request
// body unclamped, and the hybrid modes widen it fourfold — the widening
// must saturate. Before it did, limit 1<<61 wrapped the pool to 0 (no
// hits) and 1<<62+1 to 4, while ann mode returned the whole visible
// corpus for the same request.
func TestHugeLimitReturnsTheWholeCorpus(t *testing.T) {
	s := NewStore()
	u := newUser(t, s, "huge")
	const corpus = 5
	for i := 0; i < corpus; i++ {
		addLexPE(t, s, u.UserID, fmt.Sprintf("windowPE%d", i),
			fmt.Sprintf("aggregates window counts, variant %d", i), "def agg_window(s): pass")
	}
	text := "aggregates window counts"
	in := Input{Text: text, Embedding: search.EmbedDescription(text)}
	for _, limit := range []int{10, 1 << 61, 1 << 62, 1<<62 + 1} {
		for _, mode := range []string{core.ModeANN, core.ModeHybrid, core.ModeReranked} {
			hits := s.Search(u.UserID, Query{Mode: mode, Type: core.SearchPEs, Limit: limit}, in)[0]
			if len(hits) != corpus {
				t.Errorf("limit %d, mode %s: %d hits, want the %d visible PEs", limit, mode, len(hits), corpus)
			}
		}
	}
}

// TestSearchBatchMatchesSingle: N inputs in one Search call return what N
// calls of one input return, in every mode, for every target, with inputs
// that lack a leg mixed in — batching amortizes locks and probes, it never
// changes an answer.
func TestSearchBatchMatchesSingle(t *testing.T) {
	s := NewStore()
	s.ConfigureIndex(func() index.VectorIndex {
		return index.NewClustered(index.ClusteredConfig{NProbe: 2})
	})
	u := newUser(t, s, "batch")
	for i := 0; i < 120; i++ { // past the clustered index's training threshold
		addLexPE(t, s, u.UserID, fmt.Sprintf("stage_%03d", i),
			fmt.Sprintf("stage %d of the %s pipeline", i, []string{"photon", "seismic", "genome"}[i%3]),
			fmt.Sprintf("def stage_%03d(x): return x + %d", i, i))
	}
	for i := 0; i < 6; i++ {
		desc := fmt.Sprintf("workflow %d over the %s pipeline", i, []string{"photon", "seismic"}[i%2])
		if _, err := s.AddWorkflow(u.UserID, core.AddWorkflowRequest{
			WorkflowName: fmt.Sprintf("flow%d", i), EntryPoint: "main", Description: desc,
			WorkflowCode: "w", DescEmbedding: search.EmbedDescription(desc),
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.WaitIndexReady()
	texts := []string{"photon pipeline stage", "stage_042", "seismic workflow", "genome"}
	for _, code := range []bool{false, true} {
		inputs := make([]Input, 0, len(texts)+2)
		for _, text := range texts {
			emb := search.EmbedDescription(text)
			if code {
				emb = search.EmbedCode(text)
			}
			inputs = append(inputs, Input{Text: text, Embedding: emb})
		}
		inputs = append(inputs, Input{Text: "stage_007"}, Input{Embedding: inputs[0].Embedding})
		for _, mode := range []string{core.ModeANN, core.ModeHybrid, core.ModeReranked} {
			for _, typ := range []core.SearchType{core.SearchPEs, core.SearchWorkflows, core.SearchBoth} {
				q := Query{Mode: mode, Code: code, Type: typ, Limit: 5}
				batch := s.Search(u.UserID, q, inputs...)
				if len(batch) != len(inputs) {
					t.Fatalf("%+v: %d result lists for %d inputs", q, len(batch), len(inputs))
				}
				answered := 0
				for i, in := range inputs {
					single := s.Search(u.UserID, q, in)[0]
					if !reflect.DeepEqual(batch[i], single) {
						t.Fatalf("%+v input %d: batch diverged from single:\n got %+v\nwant %+v", q, i, batch[i], single)
					}
					answered += len(single)
				}
				if empty := code && typ == core.SearchWorkflows; (answered == 0) != empty {
					t.Fatalf("%+v: %d hits across the batch (workflows carry no code embeddings: want none only there)", q, answered)
				}
			}
		}
	}
	if got := s.Search(u.UserID, Query{}); len(got) != 0 {
		t.Fatalf("a call without inputs returned %+v", got)
	}
}
