package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"laminar/internal/cluster"
	"laminar/internal/codec"
	"laminar/internal/core"
	"laminar/internal/index"
	"laminar/internal/registry"
	"laminar/internal/search"
)

// The corpus is one seeded build shared by every registry workload: PEs
// and workflows whose descriptions come from a verb/object/qualifier
// template plus a unique release token, and whose name and code carry a
// unique identifier that the description does not — so a paraphrase finds
// a record through the embedding leg and an identifier only through the
// lexical leg. Every query the generator emits is derived from one planted
// record, so every search has a known right answer.

// Users and their share of the corpus: every fifth record is bob's, so
// the per-user visibility filter is live on every search.
const (
	userAlice = "alice"
	userBob   = "bob"
	password  = "benchmark"
)

var verbs = []string{
	"normalize", "filter", "aggregate", "parse", "validate", "compress", "merge", "split",
	"rank", "encode", "decode", "sample", "smooth", "detect", "classify", "convert",
	"extract", "index", "count", "sort",
}

// verbSynonyms paraphrase the verb in a query; same order as verbs.
var verbSynonyms = []string{
	"rescale", "select", "combine", "read", "check", "shrink", "join", "divide",
	"order", "serialize", "deserialize", "subsample", "denoise", "find", "label", "transform",
	"pull", "catalog", "tally", "arrange",
}

var objects = []string{
	"sensor readings", "log lines", "image tiles", "spectral bands", "telemetry frames",
	"genome reads", "price ticks", "seismic traces", "weather records", "catalog rows",
	"web clicks", "packet headers", "audio chunks", "text tokens", "graph edges",
	"user events", "particle tracks", "map tiles", "time series", "word pairs",
	"photon events", "invoice items", "pixel rows", "mesh cells",
}

var qualifiers = []string{
	"in a sliding window", "per station", "above a threshold", "by timestamp",
	"using a lookup table", "with outlier rejection", "for each partition", "before publishing",
	"across shards", "under a memory budget", "at fixed intervals", "after deduplication",
	"grouped by key", "in arrival order", "against a reference", "without buffering",
}

var syllables = []string{
	"ba", "be", "bi", "bo", "bu", "da", "de", "di", "do", "du",
	"ga", "ge", "gi", "go", "gu", "ka", "ke", "ki", "ko", "ku",
	"la", "le", "li", "lo", "lu", "ma", "me", "mi", "mo", "mu",
	"na", "ne", "ni", "no", "nu", "ra", "re", "ri", "ro", "ru",
}

// uniqueToken maps i to a pronounceable token no other i shares: i is
// scrambled by an affine map that is a bijection on [0, 40^3) and written
// in base-40 syllables. One tokenizer term, never a vocabulary word.
func uniqueToken(prefix string, i int, mul, add int) string {
	const space = 40 * 40 * 40
	p := (i*mul + add) % space
	return prefix + syllables[p/1600] + syllables[(p/40)%40] + syllables[p%40]
}

// peSpec is one planted PE before it is embedded and registered.
type peSpec struct {
	ID          int // registry id, 1-based
	Owner       string
	Name        string
	Description string
	Source      string
	Code        string // codec envelope of Source; set by embedPEs
	Ident       string // appears in name and code only
	Release     string // appears in description only
	verb, obj   int
	qual        int
	DescEmb     []float32
	CodeEmb     []float32
}

// wfSpec is one planted workflow.
type wfSpec struct {
	ID          int
	Owner       string
	Name        string
	Description string
	Code        string
	Release     string
	DescEmb     []float32
}

// Corpus is the generated record set plus the lookup tables the
// correctness checks need.
type Corpus struct {
	Seed      int64
	PEs       []*peSpec
	Workflows []*wfSpec
	// mulI/addI and mulR/addR are the seed-derived affine scramblers of
	// the identifier and release token spaces; makePE uses them for every
	// index, including the ones ingest_churn adds beyond the base corpus.
	mulI, addI, mulR, addR int
}

func title(s string) string {
	return strings.ToUpper(s[:1]) + s[1:]
}

func camel(words string) string {
	var sb strings.Builder
	for _, w := range strings.Fields(words) {
		sb.WriteString(title(w))
	}
	return sb.String()
}

// oddNotFive picks a multiplier coprime to 40^3 = 2^9 * 5^3.
func oddNotFive(rng *rand.Rand) int {
	for {
		m := rng.Intn(60000) + 3
		if m%2 == 1 && m%5 != 0 {
			return m
		}
	}
}

// newCorpus lays out nPE PEs and nWF workflows from the seed. Nothing is
// serialized or embedded yet; embed() does that in parallel.
func newCorpus(seed int64, nPE, nWF int) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &Corpus{
		Seed: seed,
		mulI: oddNotFive(rng), addI: rng.Intn(64000),
		mulR: oddNotFive(rng), addR: rng.Intn(64000),
	}
	for i := 0; i < nPE; i++ {
		c.PEs = append(c.PEs, c.makePE(i, rng))
	}
	for i := 0; i < nWF; i++ {
		c.Workflows = append(c.Workflows, c.makeWorkflow(i, rng))
	}
	return c
}

func ownerOf(i int) string {
	if i%5 == 4 {
		return userBob
	}
	return userAlice
}

// makePE builds PE number i (0-based). Indexes past the base corpus give
// the fresh, never-colliding records ingest_churn registers.
func (c *Corpus) makePE(i int, rng *rand.Rand) *peSpec {
	v, o, q := rng.Intn(len(verbs)), rng.Intn(len(objects)), rng.Intn(len(qualifiers))
	ident := uniqueToken("q", i, c.mulI, c.addI)
	release := uniqueToken("z", i, c.mulR, c.addR)
	objKey := strings.ReplaceAll(objects[o], " ", "_")
	arg := strings.Fields(objects[o])[1]
	name := title(verbs[v]) + camel(objects[o]) + title(ident)
	n1, n2 := rng.Intn(900)+100, rng.Intn(90)+10
	source := fmt.Sprintf(`import math

class %s(IterativePE):
    def __init__(self):
        IterativePE.__init__(self)
        self.%s_limit = %d
    def _process(self, %s):
        %s_state = %s_%s(%s, self.%s_limit)
        if %s_state is None:
            return None
        return %s_state * %d
`, name, objKey, n1, arg, ident, verbs[v], objKey, arg, objKey, ident, ident, n2)
	return &peSpec{
		ID: i + 1, Owner: ownerOf(i), Name: name,
		Description: fmt.Sprintf("%s %s %s, release %s", verbs[v], objects[o], qualifiers[q], release),
		Source:      source, Ident: ident, Release: release,
		verb: v, obj: o, qual: q,
	}
}

const workflowSource = `import random

class Source(ProducerPE):
    def __init__(self):
        ProducerPE.__init__(self)
    def _process(self):
        return random.randint(1, 100)

class Sink(ConsumerPE):
    def __init__(self):
        ConsumerPE.__init__(self)
    def _process(self, value):
        print(value)

graph = WorkflowGraph()
graph.connect(Source(), 'output', Sink(), 'input')
`

func (c *Corpus) makeWorkflow(i int, rng *rand.Rand) *wfSpec {
	v, v2, o := rng.Intn(len(verbs)), rng.Intn(len(verbs)), rng.Intn(len(objects))
	// Workflow tokens come from the far end of the token space so they
	// never collide with a PE's.
	ident := uniqueToken("q", 63999-i, c.mulI, c.addI)
	release := uniqueToken("z", 63999-i, c.mulR, c.addR)
	name := "Flow" + title(verbs[v]) + camel(objects[o]) + title(ident)
	return &wfSpec{
		ID: i + 1, Owner: ownerOf(i), Name: name,
		Description: fmt.Sprintf("pipeline to %s %s and then %s them, release %s", verbs[v], objects[o], verbs[v2], release),
		Release:     release,
	}
}

// embedPEs does, on all cores, what a client does before it registers a
// PE: serialize the source into its envelope and compute both embeddings.
func embedPEs(specs []*peSpec) {
	parallel(len(specs), func(i int) {
		p := specs[i]
		code, err := codec.Encode(codec.Envelope{Kind: codec.KindPE, Name: p.Name, Source: p.Source, Imports: []string{"math"}})
		if err != nil {
			panic(err) // the template always yields a valid envelope
		}
		p.Code = code
		p.DescEmb = search.EmbedDescription(p.Description)
		p.CodeEmb = search.EmbedCode(p.Source)
	})
}

func (c *Corpus) embed() {
	embedPEs(c.PEs)
	parallel(len(c.Workflows), func(i int) {
		w := c.Workflows[i]
		code, err := codec.Encode(codec.Envelope{Kind: codec.KindWorkflow, Name: w.Name, Source: workflowSource, Imports: []string{"random"}})
		if err != nil {
			panic(err)
		}
		w.Code = code
		w.DescEmb = search.EmbedDescription(w.Description)
	})
}

// parallel runs fn(0..n-1) on nproc goroutines and waits for them.
func parallel(n int, fn func(i int)) {
	workers := nproc()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

func (p *peSpec) addRequest() core.AddPERequest {
	return core.AddPERequest{
		PEID: p.ID, PEName: p.Name, Description: p.Description, PECode: p.Code,
		PEImports: []string{"math"}, CodeEmbedding: p.CodeEmb, DescEmbedding: p.DescEmb,
	}
}

// clusteredConfig is the index every registry workload's snapshot is
// trained with. The recall target and quantization are query-time policy,
// set again by the server's flags; RetrainCooldown only keeps the build
// from retraining on every corpus doubling before the one explicit
// RetrainIndexes.
func clusteredConfig(recallTarget float64) index.ClusteredConfig {
	return index.ClusteredConfig{RecallTarget: recallTarget, Quantize: true, RetrainCooldown: time.Hour}
}

// clusteredFactory is what a store's ConfigureIndex takes to build that
// index, here and in the traced replays.
func clusteredFactory(recallTarget float64) index.Factory {
	return func() index.VectorIndex { return index.NewClustered(clusteredConfig(recallTarget)) }
}

// indexFlags are the laminar-server flags matching clusteredConfig.
func indexFlags(recallTarget float64) []string {
	return []string{"-index", "clustered", "-index-recall-target", fmt.Sprint(recallTarget), "-index-quantize"}
}

// buildStore registers the records keep() admits into a fresh store with
// a trained clustered index. Ids are pinned, so a shard store holds the
// same ids the single-node store would.
func (c *Corpus) buildStore(keepPE func(*peSpec) bool, keepWF func(*wfSpec) bool) (*registry.Store, error) {
	st := registry.NewStore()
	st.ConfigureIndex(clusteredFactory(0.9))
	uid := map[string]int{}
	for _, name := range []string{userAlice, userBob} {
		u, err := st.RegisterUser(name, password)
		if err != nil {
			return nil, fmt.Errorf("registering %s: %w", name, err)
		}
		uid[name] = u.UserID
	}
	for _, p := range c.PEs {
		if keepPE != nil && !keepPE(p) {
			continue
		}
		if _, err := st.AddPE(uid[p.Owner], p.addRequest()); err != nil {
			return nil, fmt.Errorf("adding PE %s: %w", p.Name, err)
		}
	}
	for _, w := range c.Workflows {
		if keepWF != nil && !keepWF(w) {
			continue
		}
		_, err := st.AddWorkflow(uid[w.Owner], core.AddWorkflowRequest{
			WorkflowID: w.ID, WorkflowName: w.Name, EntryPoint: w.Name,
			Description: w.Description, WorkflowCode: w.Code, DescEmbedding: w.DescEmb,
		})
		if err != nil {
			return nil, fmt.Errorf("adding workflow %s: %w", w.Name, err)
		}
	}
	st.WaitIndexReady()
	st.RetrainIndexes()
	return st, nil
}

// snapshotPath is where a workload's registry lives inside its temp dir.
func snapshotPath(dir, name string) string { return filepath.Join(dir, name+".json") }

// saveSnapshot writes the whole corpus as one trained v2 snapshot.
func (c *Corpus) saveSnapshot(path string) (*registry.Store, error) {
	st, err := c.buildStore(nil, nil)
	if err != nil {
		return nil, err
	}
	if err := st.Save(path); err != nil {
		return nil, fmt.Errorf("saving snapshot: %w", err)
	}
	return st, nil
}

// shardNames are the cluster_scatter ring partitions.
var shardNames = []string{"s0", "s1", "s2"}

// saveShardSnapshots consistent-hashes the corpus over the shards exactly
// as the cluster's write router would and saves one snapshot per shard.
// Users exist on every shard.
func (c *Corpus) saveShardSnapshots(dir string) (map[string]string, error) {
	ring, err := cluster.NewRing(cluster.RingConfig{Shards: shardNames})
	if err != nil {
		return nil, err
	}
	paths := map[string]string{}
	errs := make([]error, len(shardNames))
	parallel(len(shardNames), func(i int) {
		name := shardNames[i]
		st, err := c.buildStore(
			func(p *peSpec) bool { return ring.Owner(p.ID) == name },
			func(w *wfSpec) bool { return ring.Owner(w.ID) == name })
		if err == nil {
			err = st.Save(snapshotPath(dir, name))
		}
		errs[i] = err
	})
	for i, name := range shardNames {
		if errs[i] != nil {
			return nil, fmt.Errorf("shard %s: %w", name, errs[i])
		}
		paths[name] = snapshotPath(dir, name)
	}
	return paths, nil
}

// diskBytes sums the sizes of the files directly in dir: a workload's
// temp dir holds nothing but its snapshots' JSON, vector sidecars and
// delta-journal segments.
func diskBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}
