package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"laminar/internal/core"
	"laminar/internal/registry"
	"laminar/internal/search"
)

// Hybrid retrieval quality comparison: the same registry corpus queried
// through all three pipelines (pure-ANN, hybrid RRF, cross-encoder
// reranked) against two query profiles:
//
//   - description queries: natural-language text the bi-encoder was built
//     for — the sanity half, where adding a lexical leg must not cost
//     quality;
//   - exact-identifier queries: the adversarial half. Each PE's unique
//     identifier lives only in its name and code while the descriptions
//     collide across template draws, so the description-embedding ANN leg
//     cannot separate the corpus and only BM25 over the code can.

// HybridQualityRow is one pipeline's scorecard over both query sets.
type HybridQualityRow struct {
	Pipeline   string
	IdentHit1  float64 // target PE ranked first, exact-identifier queries
	IdentHit10 float64 // target PE in the top-10, exact-identifier queries
	DescHit1   float64
	DescHit10  float64
	Query      time.Duration // mean per query across both sets
}

// HybridQualityResult is the rendered -searchbench quality table.
type HybridQualityResult struct {
	CorpusSize   int
	IdentQueries int
	DescQueries  int
	Rows         []HybridQualityRow
}

// hybridQCase is one query with its relevance ground truth.
type hybridQCase struct {
	text string
	want int // PE id that must surface
}

// hybridCorpus is a registry populated with template-generated PEs whose
// identifiers are retrievable only lexically.
type hybridCorpus struct {
	store  *registry.Store
	userID int
	idents []string
	descs  []string
	peIDs  []int
}

// buildHybridCorpus registers size PEs the bi-encoder way (client-computed
// embeddings travel with the record). Descriptions follow the realistic
// template profile of GenPECorpus; the unique identifier appears in the PE
// name and the code body, never in the description.
func buildHybridCorpus(size int) (*hybridCorpus, error) {
	rng := rand.New(rand.NewSource(83))
	store := registry.NewStore()
	user, err := store.RegisterUser("bench", "bench-pw")
	if err != nil {
		return nil, err
	}
	c := &hybridCorpus{store: store, userID: user.UserID}
	for i := 0; i < size; i++ {
		verb := peVerbs[rng.Intn(len(peVerbs))]
		obj := peObjects[rng.Intn(len(peObjects))]
		qual := peQualifiers[rng.Intn(len(peQualifiers))]
		desc := fmt.Sprintf("a PE that %s %s %s v%d", verb, obj, qual, i)
		ident := fmt.Sprintf("%s_%04d", strings.ReplaceAll(obj, " ", "_"), i)
		code := fmt.Sprintf("def %s(stream):\n    return stream", ident)
		pe, err := store.AddPE(user.UserID, core.AddPERequest{
			PEName:        ident,
			Description:   desc,
			PECode:        code,
			CodeEmbedding: search.EmbedCode(code),
			DescEmbedding: search.EmbedDescription(desc),
		})
		if err != nil {
			return nil, fmt.Errorf("registering PE %d: %w", i, err)
		}
		c.idents = append(c.idents, ident)
		c.descs = append(c.descs, desc)
		c.peIDs = append(c.peIDs, pe.PEID)
	}
	return c, nil
}

// queries draws n query cases from gen over distinct random targets.
func (c *hybridCorpus) queries(rng *rand.Rand, n int, text func(i int) string) []hybridQCase {
	out := make([]hybridQCase, n)
	for i := range out {
		t := rng.Intn(len(c.peIDs))
		out[i] = hybridQCase{text: text(t), want: c.peIDs[t]}
	}
	return out
}

// evalPipeline runs both query sets through one pipeline and scores it.
func (c *hybridCorpus) evalPipeline(pipeline string, identQ, descQ []hybridQCase) HybridQualityRow {
	row := HybridQualityRow{Pipeline: pipeline}
	mode := pipeline
	if pipeline == "pure-ANN" {
		mode = core.ModeANN
	}
	run := func(q hybridQCase) []core.SearchHit {
		return c.store.Search(c.userID, registry.Query{Mode: mode, Type: core.SearchPEs, Limit: 10},
			registry.Input{Text: q.text, Embedding: search.EmbedDescription(q.text)})[0]
	}
	score := func(qs []hybridQCase, hit1, hit10 *float64) {
		for _, q := range qs {
			hits := run(q)
			if len(hits) > 0 && hits[0].ID == q.want {
				*hit1++
			}
			for _, h := range hits {
				if h.ID == q.want {
					*hit10++
					break
				}
			}
		}
		*hit1 /= float64(len(qs))
		*hit10 /= float64(len(qs))
	}
	start := time.Now()
	score(identQ, &row.IdentHit1, &row.IdentHit10)
	score(descQ, &row.DescHit1, &row.DescHit10)
	row.Query = time.Since(start) / time.Duration(len(identQ)+len(descQ))
	return row
}

// RunHybridQuality measures all three pipelines over one corpus
// (0 = the published defaults: 500 PEs, 30 queries per set).
func RunHybridQuality(size, queries int) (*HybridQualityResult, error) {
	if size <= 0 {
		size = 500
	}
	if queries <= 0 {
		queries = 30
	}
	c, err := buildHybridCorpus(size)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(97))
	identQ := c.queries(rng, queries, func(i int) string { return c.idents[i] })
	descQ := c.queries(rng, queries, func(i int) string { return c.descs[i] })
	res := &HybridQualityResult{CorpusSize: size, IdentQueries: len(identQ), DescQueries: len(descQ)}
	for _, pipeline := range []string{"pure-ANN", "hybrid", "reranked"} {
		res.Rows = append(res.Rows, c.evalPipeline(pipeline, identQ, descQ))
	}
	return res, nil
}

// Render formats the quality comparison as a text table (docs/search.md
// embeds the rendered output).
func (r *HybridQualityResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Hybrid retrieval quality: pure-ANN vs hybrid (RRF) vs reranked (cross-encoder)\n")
	fmt.Fprintf(&sb, "(%d PEs; %d exact-identifier queries, %d description queries; top-10; identifiers live only in PE name+code)\n",
		r.CorpusSize, r.IdentQueries, r.DescQueries)
	sb.WriteString("  pipeline    ident hit@1   ident hit@10   desc hit@1   desc hit@10      query\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-9s   %11.3f   %12.3f   %10.3f   %11.3f   %8v\n",
			row.Pipeline, row.IdentHit1, row.IdentHit10, row.DescHit1, row.DescHit10,
			row.Query.Round(time.Microsecond))
	}
	return sb.String()
}

// hybridSmokeGate is the searchbench-smoke assertion for hybrid retrieval:
// on exact-identifier queries the hybrid pipeline must recover at least as
// many targets in its top-10 as pure ANN (the regression that would mean
// the lexical leg or the fusion stopped contributing), and the description
// profile must not collapse either.
func hybridSmokeGate() (string, error) {
	hq, err := RunHybridQuality(200, 15)
	if err != nil {
		return "", fmt.Errorf("hybrid quality: %v", err)
	}
	byName := map[string]HybridQualityRow{}
	for _, row := range hq.Rows {
		byName[row.Pipeline] = row
	}
	ann, hybrid := byName["pure-ANN"], byName["hybrid"]
	summary := fmt.Sprintf("hybrid gate: ident hit@10 ANN %.3f vs hybrid %.3f (desc hit@10 hybrid %.3f)",
		ann.IdentHit10, hybrid.IdentHit10, hybrid.DescHit10)
	if hybrid.IdentHit10 < ann.IdentHit10 {
		return summary, fmt.Errorf("hybrid ident hit@10 %.3f below pure-ANN %.3f — the lexical leg stopped contributing",
			hybrid.IdentHit10, ann.IdentHit10)
	}
	if hybrid.DescHit10 < 0.9 {
		return summary, fmt.Errorf("hybrid desc hit@10 %.3f below the 0.9 floor — fusion is costing natural-language quality",
			hybrid.DescHit10)
	}
	return summary, nil
}
