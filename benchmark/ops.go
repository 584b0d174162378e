package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"laminar/internal/core"
	"laminar/internal/search"
	"laminar/internal/vecmath"
)

// checkKind says how an op's reply is judged.
type checkKind int

const (
	checkStatus checkKind = iota // a 2xx reply is the whole answer (writes)
	checkTarget                  // the planted record must be in the top 10
	checkExact                   // the hit list must equal Exact
	checkFlow                    // the output multiset must equal the reference
)

// hitRef identifies one search hit.
type hitRef struct {
	Kind string
	ID   int
}

// Op is one generated request and what its reply must contain.
type Op struct {
	Class  string
	Method string
	Path   string
	Body   []byte
	Check  checkKind
	Target hitRef   // checkTarget
	Exact  []hitRef // checkExact
	Ref    string   // checkFlow: which reference output applies
	// ServerEmbeds marks a query sent without an embedding.
	ServerEmbeds bool
	// Name and Adds describe a write's effect on alice's PE set, for the
	// post-restart state check.
	Name string
	Adds bool
	// Req keeps the decoded search request for the traced replay.
	Req *core.SearchRequest
	// Add keeps the decoded registration for the traced replay.
	Add *core.AddPERequest
}

const searchLimit = 10

// streamBytes flattens an op stream for the determinism check.
func streamBytes(ops []Op) []byte {
	var buf bytes.Buffer
	for _, op := range ops {
		fmt.Fprintf(&buf, "%s %s %s ", op.Class, op.Method, op.Path)
		buf.Write(op.Body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are marshalled here
	}
	return raw
}

// Query derivations: each turns a planted PE into the text a user looking
// for it would type.

func semanticQuery(p *peSpec) string {
	return fmt.Sprintf("%s the %s %s for release %s", verbSynonyms[p.verb], objects[p.obj], qualifiers[p.qual], p.Release)
}

func rerankedQuery(p *peSpec) string {
	return fmt.Sprintf("which release %s can %s %s %s", p.Release, verbs[p.verb], objects[p.obj], qualifiers[p.qual])
}

// hybridQuery names the identifier, which only name and code carry, so
// only the lexical leg can pin the record; the rest of the query is what
// the embedding leg needs to put the same record in its candidate pool,
// where rank fusion rewards a hit on both legs.
func hybridQuery(p *peSpec) string {
	return fmt.Sprintf("%s to %s %s %s", p.Ident, verbs[p.verb], objects[p.obj], qualifiers[p.qual])
}

// codeQuery is the first part of the PE's source, as an editor would send
// it for completion.
func codeQuery(p *peSpec) string {
	return p.Source[:len(p.Source)*6/10]
}

// searchOp builds the search request of one class for target p. nonce,
// when set, makes the query text distinct from every other op's; embed
// asks for a client-side embedding.
func searchOp(class string, p *peSpec, nonce string, embed bool) Op {
	req := core.SearchRequest{SearchType: core.SearchBoth, QueryType: core.QuerySemantic, Limit: searchLimit}
	switch class {
	case clsSemANN:
		req.Search, req.Mode = semanticQuery(p), core.ModeANN
	case clsCodeANN:
		req.Search, req.Mode = codeQuery(p), core.ModeANN
		req.QueryType, req.SearchType = core.QueryCode, core.SearchPEs
	case clsHybrid:
		req.Search, req.Mode = hybridQuery(p), core.ModeHybrid
	case clsReranked:
		req.Search, req.Mode = rerankedQuery(p), core.ModeReranked
	case clsText:
		req.Search, req.QueryType = p.Release, core.QueryText
	default:
		panic("searchOp: not a search class: " + class)
	}
	if nonce != "" && class != clsText {
		// A text query must match as a phrase, so it stays bare; its
		// distinctness comes from a distinct target.
		req.Search += " " + nonce
	}
	if embed && class != clsText {
		if req.QueryType == core.QueryCode {
			req.QueryEmbedding = search.EmbedCode(req.Search)
		} else {
			req.QueryEmbedding = search.EmbedDescription(req.Search)
		}
	}
	return Op{
		Class: class, Method: "POST", Path: "/registry/" + userAlice + "/search",
		Body: mustJSON(req), Check: checkTarget, Target: hitRef{"pe", p.ID},
		ServerEmbeds: !embed && class != clsText, Req: &req,
	}
}

// classPicker draws classes with the shares of a mix.
type classPicker struct {
	mix []mixEntry
	cum []float64
}

func newClassPicker(mix []mixEntry) *classPicker {
	cp := &classPicker{mix: mix}
	var total float64
	for _, m := range mix {
		total += m.Share
		cp.cum = append(cp.cum, total)
	}
	return cp
}

func (cp *classPicker) pick(rng *rand.Rand) string {
	x := rng.Float64() * cp.cum[len(cp.cum)-1]
	for i, c := range cp.cum {
		if x < c {
			return cp.mix[i].Class
		}
	}
	return cp.mix[len(cp.mix)-1].Class
}

// alicePEs lists alice's PEs in id order.
func (c *Corpus) alicePEs() []*peSpec {
	var out []*peSpec
	for _, p := range c.PEs {
		if p.Owner == userAlice {
			out = append(out, p)
		}
	}
	return out
}

// Zipf pool parameters of the repeat traffic: the pool is about twice the
// server's cache, so eviction is live.
const (
	poolSize = 2000
	zipfS    = 1.1
)

// repeatPool is the zipf-drawn request pool behind query_repeat and the
// search half of ingest_churn: one sub-pool per class, sized by the
// class's share, each with its own zipf rank generator, so the op-level
// mix holds exactly while popular requests repeat.
type repeatPool struct {
	byClass map[string][]Op
	zipf    map[string]*rand.Zipf
}

// newRepeatPool builds size distinct pre-embedded requests over targets.
func newRepeatPool(rng *rand.Rand, mix []mixEntry, targets []*peSpec, size int) *repeatPool {
	var total float64
	for _, m := range mix {
		total += m.Share
	}
	rp := &repeatPool{byClass: map[string][]Op{}, zipf: map[string]*rand.Zipf{}}
	type slot struct {
		class string
		p     *peSpec
	}
	var slots []slot
	for _, m := range mix {
		n := int(float64(size)*m.Share/total + 0.5)
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			slots = append(slots, slot{m.Class, targets[rng.Intn(len(targets))]})
		}
		rp.zipf[m.Class] = rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	}
	ops := make([]Op, len(slots))
	parallel(len(slots), func(i int) {
		// The slot number keeps two requests for the same target distinct.
		ops[i] = searchOp(slots[i].class, slots[i].p, fmt.Sprintf("n%d", i), true)
	})
	for i, s := range slots {
		rp.byClass[s.class] = append(rp.byClass[s.class], ops[i])
	}
	return rp
}

func (rp *repeatPool) draw(class string) Op {
	return rp.byClass[class][rp.zipf[class].Uint64()]
}

// searchMix is the part of a mix that is searches.
func searchMix(mix []mixEntry) []mixEntry {
	var out []mixEntry
	for _, m := range mix {
		if m.Class != clsAdd && m.Class != clsRemove {
			out = append(out, m)
		}
	}
	return out
}

// genQueryRepeat draws n ops from the zipf pool.
func genQueryRepeat(c *Corpus, seed int64, n int) []Op {
	spec, _ := specByName(wlQueryRepeat)
	rng := rand.New(rand.NewSource(seed ^ 0x7265706561))
	pool := newRepeatPool(rng, spec.Mix, c.alicePEs(), poolSize)
	cp := newClassPicker(spec.Mix)
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = pool.draw(cp.pick(rng))
	}
	return ops
}

// genQueryUnique makes n ops no two of which share a query text, none
// carrying an embedding.
func genQueryUnique(c *Corpus, seed int64, n int) []Op {
	spec, _ := specByName(wlQueryUnique)
	rng := rand.New(rand.NewSource(seed ^ 0x756e6971))
	targets := c.alicePEs()
	textOrder := rng.Perm(len(targets))
	texts := 0
	cp := newClassPicker(spec.Mix)
	ops := make([]Op, n)
	for i := range ops {
		class := cp.pick(rng)
		p := targets[rng.Intn(len(targets))]
		if class == clsText {
			// Text is uncached, so reusing a target after a full cycle
			// changes nothing the server can see.
			p = targets[textOrder[texts%len(textOrder)]]
			texts++
		}
		ops[i] = searchOp(class, p, fmt.Sprintf("n%d", i), false)
	}
	return ops
}

// readdLag is how many ops must pass between removing a name and adding
// it back, or registering it and removing it, so the two can never be in
// flight together.
const readdLag = 64

// genIngestChurn interleaves zipf searches with registrations and
// removals. Searches target only the stable half of alice's PEs. Removals
// take the other half first, in random order, and then the PEs the stream
// itself registered, oldest first: adds outnumber removals, so a stream
// of any length finds something to remove. Each name is removed at most
// once, and never within readdLag ops of its registration, so no search
// loses its target and no removal can miss.
func genIngestChurn(c *Corpus, seed int64, n int) []Op {
	spec, _ := specByName(wlIngestChurn)
	rng := rand.New(rand.NewSource(seed ^ 0x636875726e))
	alice := c.alicePEs()
	stable, churn := alice[:len(alice)/2], alice[len(alice)/2:]
	pool := newRepeatPool(rng, searchMix(spec.Mix), stable, poolSize)
	// at is the op that registered the PE, or that removed it.
	type queued struct {
		p  *peSpec
		at int
	}
	var removable, readdable []queued
	for _, k := range rng.Perm(len(churn)) {
		removable = append(removable, queued{churn[k], -readdLag})
	}
	cp := newClassPicker(spec.Mix)
	ops := make([]Op, n)
	// Registrations are written out once the fresh PEs are embedded.
	adds := map[int]*peSpec{}
	var fresh []*peSpec
	for i := range ops {
		class := cp.pick(rng)
		if class == clsRemove && (len(removable) == 0 || i-removable[0].at < readdLag) {
			// Only a corpus of a few dozen PEs gets here: register instead.
			class = clsAdd
		}
		switch class {
		case clsRemove:
			p := removable[0].p
			removable = removable[1:]
			readdable = append(readdable, queued{p, i})
			ops[i] = Op{Class: clsRemove, Method: "DELETE", Path: "/registry/" + userAlice + "/pe/remove/name/" + p.Name, Name: p.Name}
		case clsAdd:
			if len(readdable) > 0 && i-readdable[0].at >= readdLag && rng.Intn(10) < 3 {
				adds[i] = readdable[0].p
				readdable = readdable[1:]
				continue
			}
			p := c.makePE(len(c.PEs)+len(fresh), rng)
			p.ID = 0 // the server assigns the id
			fresh = append(fresh, p)
			adds[i] = p
			removable = append(removable, queued{p, i})
		default:
			ops[i] = pool.draw(class)
		}
	}
	embedPEs(fresh)
	for i, p := range adds {
		ops[i] = addOp(p)
	}
	return ops
}

func addOp(p *peSpec) Op {
	req := p.addRequest()
	req.PEID = 0
	return Op{
		Class: clsAdd, Method: "POST", Path: "/registry/" + userAlice + "/pe/add",
		Body: mustJSON(req), Name: p.Name, Adds: true, Add: &req,
	}
}

// scatterPoolSize is how many distinct queries cluster_scatter cycles
// through; the coordinator runs uncached, so a repeat costs what a fresh
// query costs, and each query needs a global exact scan as its reference.
const scatterPoolSize = 512

// genClusterScatter draws n ops from a pool of distinct pre-embedded
// queries. Pure-ANN queries carry the global exact top-10 as reference.
func genClusterScatter(c *Corpus, seed int64, n int) []Op {
	spec, _ := specByName(wlClusterScatter)
	rng := rand.New(rand.NewSource(seed ^ 0x73636174))
	targets := c.alicePEs()
	cp := newClassPicker(spec.Mix)
	type slot struct {
		class string
		p     *peSpec
	}
	slots := make([]slot, scatterPoolSize)
	for i := range slots {
		slots[i] = slot{cp.pick(rng), targets[rng.Intn(len(targets))]}
	}
	pool := make([]Op, len(slots))
	parallel(len(slots), func(i int) {
		op := searchOp(slots[i].class, slots[i].p, fmt.Sprintf("n%d", i), true)
		if op.Class == clsSemANN {
			op.Check = checkExact
			op.Exact = c.exactTop(userAlice, op.Req.QueryEmbedding, searchLimit)
		}
		pool[i] = op
	})
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = pool[rng.Intn(len(pool))]
	}
	return ops
}

// exactTop is the reference a clustered, sharded search is held to: a
// full scan of every description embedding the user can see, PEs and
// workflows ranked together, ties broken the way search.MergeRanked
// breaks them (kind, then id).
func (c *Corpus) exactTop(user string, query []float32, k int) []hitRef {
	type scored struct {
		hitRef
		score float64
	}
	var all []scored
	for _, p := range c.PEs {
		if p.Owner == user {
			all = append(all, scored{hitRef{"pe", p.ID}, vecmath.Dot(query, p.DescEmb)})
		}
	}
	for _, w := range c.Workflows {
		if w.Owner == user {
			all = append(all, scored{hitRef{"workflow", w.ID}, vecmath.Dot(query, w.DescEmb)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		if all[i].Kind != all[j].Kind {
			return all[i].Kind < all[j].Kind
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]hitRef, len(all))
	for i, s := range all {
		out[i] = s.hitRef
	}
	return out
}

// Flow workloads: the two registered workflows of flow_run.

const isPrimeSource = `import random

class NumberProducer(ProducerPE):
    def __init__(self):
        ProducerPE.__init__(self)
    def _process(self):
        return random.randint(1, 1000)

class IsPrime(IterativePE):
    def __init__(self):
        IterativePE.__init__(self)
    def _process(self, num):
        if num >= 2 and all(num % i != 0 for i in range(2, num)):
            return num

class PrintPrime(ConsumerPE):
    def __init__(self):
        ConsumerPE.__init__(self)
    def _process(self, num):
        print("the num %s is prime" % num)

pe1 = NumberProducer()
pe2 = IsPrime()
pe3 = PrintPrime()
graph = WorkflowGraph()
graph.connect(pe1, 'output', pe2, 'input')
graph.connect(pe2, 'output', pe3, 'input')
`

const wordCountSource = `import random
from collections import defaultdict

class WordProducer(ProducerPE):
    def __init__(self):
        ProducerPE.__init__(self)
        self.words = ["stream", "data", "flow", "serverless", "registry", "laminar"]
    def _process(self):
        word = random.choice(self.words)
        return (word, 1)

class CountWords(GenericPE):
    def __init__(self):
        GenericPE.__init__(self)
        self._add_input("input", grouping=[0])
        self._add_output("output")
        self.count = defaultdict(int)
    def _process(self, inputs):
        word, count = inputs['input']
        self.count[word] += count
    def _postprocess(self):
        for word in self.count.keys():
            self.write("output", (word, self.count[word]))

graph = WorkflowGraph()
wp = WordProducer()
cw = CountWords()
graph.connect(wp, 'output', cw, 'input')
`

// flowWorkflows are the registered workflows flow_run rotates through:
// isprime is interpreter-bound, wordcount is shuffle-bound.
var flowWorkflows = []struct{ Name, Source, Description string }{
	{"isprime", isPrimeSource, "prints the primes in a random number stream"},
	{"wordcount", wordCountSource, "counts words in a random word stream with a group-by"},
}

const (
	flowRecords = 500
	flowSeed    = 7
)

var flowMappings = []string{"SIMPLE", "MULTI", "MPI", "REDIS"}

// genFlowRun rotates mappings and workflows. The stream has no
// randomness: flow_run's seed fixes the records inside each run, which is
// what makes every mapping's output comparable to the SIMPLE reference.
func genFlowRun(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		mapping := flowMappings[i%len(flowMappings)]
		wf := flowWorkflows[(i/len(flowMappings))%len(flowWorkflows)]
		ops[i] = flowOp(wf.Name, mapping)
	}
	return ops
}

func flowOp(workflow, mapping string) Op {
	req := core.ExecutionRequest{
		WorkflowName: workflow, Input: flowRecords, Process: mapping,
		Args: map[string]any{"num": nproc()}, Seed: flowSeed,
	}
	return Op{
		Class: strings.ToLower(mapping), Method: "POST", Path: "/execution/" + userAlice + "/run",
		Body: mustJSON(req), Check: checkFlow, Ref: workflow,
	}
}

// flowOutput reduces an execution reply to the sorted multiset of what
// the workflow produced: printed lines plus values on unconnected ports.
func flowOutput(resp *core.ExecutionResponse) string {
	var items []string
	for _, line := range strings.Split(resp.Output, "\n") {
		if line = strings.TrimSpace(line); line != "" {
			items = append(items, line)
		}
	}
	for port, vals := range resp.Outputs {
		for _, v := range vals {
			items = append(items, port+"="+string(mustJSON(v)))
		}
	}
	sort.Strings(items)
	return strings.Join(items, "\n")
}
