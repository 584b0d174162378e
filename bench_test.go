// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 6). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the corresponding experiment once per iteration
// and reports the rendered result on the first iteration, so a single
// `-benchtime=1x` run prints the full paper reproduction.
package laminar

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"laminar/internal/bench"
	"laminar/internal/codec"
	"laminar/internal/core"
	"laminar/internal/engine"
	"laminar/internal/index"
	"laminar/internal/registry"
	"laminar/internal/search"
)

var renderOnce sync.Map

func reportOnce(b *testing.B, key, rendered string) {
	if _, loaded := renderOnce.LoadOrStore(key, true); !loaded {
		b.Logf("\n%s", rendered)
	}
}

// BenchmarkTable5 regenerates Table 5: execution times of the Internal
// Extinction workflow (original dispel4py vs Laminar local vs Laminar
// remote; Simple and Multi mappings).
func BenchmarkTable5(b *testing.B) {
	opts := bench.DefaultTable5Options()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable5(opts)
		if err != nil {
			b.Fatal(err)
		}
		reportOnce(b, "table5", res.Render())
	}
}

// BenchmarkTable6 regenerates Table 6: zero-shot text-to-code search MRR
// on the CoSQA- and CSN-style corpora.
func BenchmarkTable6(b *testing.B) {
	opts := bench.DefaultTable6Options()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable6(opts)
		if err != nil {
			b.Fatal(err)
		}
		reportOnce(b, "table6", res.Render())
	}
}

// BenchmarkTable7 regenerates Table 7: zero-shot clone detection (MAP@100
// and Precision at 1) for all seven candidate models.
func BenchmarkTable7(b *testing.B) {
	opts := bench.DefaultTable7Options()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable7(opts)
		if err != nil {
			b.Fatal(err)
		}
		reportOnce(b, "table7", res.Render())
	}
}

// BenchmarkFigure1 regenerates Fig. 1: the abstract→concrete workflow
// expansion of IsPrime over five processes.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := bench.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		reportOnce(b, "figure1", out)
	}
}

// BenchmarkFigures6to9 regenerates the search walkthrough of Figures 6-8
// and the execution output of Fig. 9 on the populated showcase registry.
func BenchmarkFigures6to9(b *testing.B) {
	sc, err := bench.NewShowcase()
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f6, err := bench.Figure6(sc.Client)
		if err != nil {
			b.Fatal(err)
		}
		f7, err := bench.Figure7(sc.Client)
		if err != nil {
			b.Fatal(err)
		}
		f8, err := bench.Figure8(sc.Client)
		if err != nil {
			b.Fatal(err)
		}
		f9, err := bench.Figure9(sc.Client)
		if err != nil {
			b.Fatal(err)
		}
		reportOnce(b, "figures", f6+"\n"+f7+"\n"+f8+"\n"+f9)
	}
}

// ---- vector-index benchmarks (Flat vs Clustered) ----

// benchSearchSizes runs a top-10 query benchmark over both index
// implementations at the issue's corpus sizes, populating each with the
// deterministic topic-clustered corpus shared with `laminar-bench
// -searchbench` (bench.GenSearchCorpus).
func benchSearchSizes(b *testing.B, query []float32) {
	for _, size := range []int{100, 1000, 10000} {
		corpus, _ := bench.GenSearchCorpus(size, 0)
		for _, impl := range []struct {
			name string
			make func() index.VectorIndex
		}{
			{"Flat", func() index.VectorIndex { return index.NewFlat() }},
			{"Clustered", func() index.VectorIndex { return index.NewClustered(index.ClusteredConfig{}) }},
		} {
			b.Run(fmt.Sprintf("%s-%d", impl.name, size), func(b *testing.B) {
				idx := impl.make()
				for i, v := range corpus {
					idx.Upsert(i+1, v)
				}
				// Settle before timing: retrains run in the background, so
				// without this the measured loop would race a k-means
				// goroutine and brute-scan a large overflow buffer.
				if tr, ok := idx.(interface{ TrainNow() }); ok {
					tr.TrainNow()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					idx.Search(query, 10, nil)
				}
			})
		}
	}
}

// BenchmarkSemanticSearch measures a Section 4.2-style description query
// against Flat vs Clustered indexes at 100/1k/10k PEs.
func BenchmarkSemanticSearch(b *testing.B) {
	query := search.EmbedDescription("a PE that checks whether numbers are prime")
	benchSearchSizes(b, query)
}

// BenchmarkCompletion measures a Section 4.3-style code-snippet query
// against Flat vs Clustered indexes at 100/1k/10k PEs.
func BenchmarkCompletion(b *testing.B) {
	query := search.EmbedCode("def _process(self):\n    return random.randint(1, 1000)")
	benchSearchSizes(b, query)
}

// BenchmarkTextSearch measures a Section 4.1 text query — a release token
// one description carries — through the registry's in-place scan at
// 100/1k/10k PEs (plus a tenth as many workflows). Run with -benchmem: the
// allocation count must not follow the corpus size.
func BenchmarkTextSearch(b *testing.B) {
	for _, size := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			store := registry.NewStore()
			user, err := store.RegisterUser("bench", "password")
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < size; i++ {
				if _, err := store.AddPE(user.UserID, core.AddPERequest{
					PEName: fmt.Sprintf("FilterSensorReadingsQ%d", i), PECode: "opaque",
					Description: fmt.Sprintf("filter sensor readings by threshold, release z%d", i),
				}); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < size/10; i++ {
				if _, err := store.AddWorkflow(user.UserID, core.AddWorkflowRequest{
					WorkflowName: fmt.Sprintf("FlowQ%d", i), EntryPoint: fmt.Sprintf("flowQ%d", i), WorkflowCode: "opaque",
					Description: fmt.Sprintf("pipeline to filter sensor readings and then merge them, release y%d", i),
				}); err != nil {
					b.Fatal(err)
				}
			}
			q := registry.Query{Text: true, Type: core.SearchBoth, Limit: 10}
			in := registry.Input{Text: fmt.Sprintf("z%d", size/2)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if hits := store.Search(user.UserID, q, in)[0]; len(hits) == 0 {
					b.Fatal("the planted release matched nothing")
				}
			}
		})
	}
}

// BenchmarkBiVsCrossEncoder measures the Section 2.4 bi-encoder vs
// cross-encoder trade-off.
func BenchmarkBiVsCrossEncoder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunBiVsCross(61, 1)
		if err != nil {
			b.Fatal(err)
		}
		reportOnce(b, "bivscross", res.Render())
	}
}

// BenchmarkRerank times the cross-encoder rerank stage on its own: one
// search.Rerank of a fused pool of PE hits (4×limit, as reranked search
// hands it over) whose names and descriptions share most of their words,
// like the fused pool of a real query does.
func BenchmarkRerank(b *testing.B) {
	verbs := []string{"normalize", "filter", "aggregate", "parse", "merge", "count", "sort", "detect"}
	objects := []string{"sensor readings", "log lines", "photon events", "price ticks", "graph edges", "time series"}
	quals := []string{"in a sliding window", "per station", "above a threshold", "by timestamp", "across shards"}
	query := "which release z417 can filter photon events above a threshold"
	for _, pool := range []int{10, 40, 160} {
		hits := make([]core.SearchHit, pool)
		for i := range hits {
			v, o := verbs[i%len(verbs)], objects[i%len(objects)]
			hits[i] = core.SearchHit{
				Kind: "pe", ID: i + 1, Name: fmt.Sprintf("%s%sQ%d", v, strings.ReplaceAll(o, " ", "_"), i),
				Description: fmt.Sprintf("%s %s %s, release z%d", v, o, quals[i%len(quals)], 400+i),
			}
		}
		b.Run(fmt.Sprintf("pool=%d", pool), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := search.Rerank(query, hits, pool/4); len(got) == 0 {
					b.Fatal("rerank returned nothing")
				}
			}
		})
	}
}

// BenchmarkEmbeddingReuse measures the Section 3.1.1 design choice of
// storing embeddings at registration time.
func BenchmarkEmbeddingReuse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunEmbeddingReuse(61, 3)
		if err != nil {
			b.Fatal(err)
		}
		reportOnce(b, "reuse", res.Render())
	}
}

// flowRunWorkflows are the two workflows of the repository benchmark's
// flow_run workload (benchmark/ops.go): isprime is interpreter-bound,
// wordcount is shuffle-bound.
var flowRunWorkflows = []struct{ name, source string }{
	{"isprime", `import random

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
`},
	{"wordcount", `import random
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
`},
}

// BenchmarkFlowRun times one in-process engine.Execute of each flow_run
// workflow under each mapping, 500 records each, with the request flow_run
// posts. It measures the enactment stack (codec, pype, dataflow, pycode)
// without HTTP or a server process, so it needs no quiet host.
func BenchmarkFlowRun(b *testing.B) {
	eng := engine.New(engine.Config{})
	for _, wf := range flowRunWorkflows {
		imports, err := engine.DetectImports(wf.source)
		if err != nil {
			b.Fatal(err)
		}
		code, err := codec.Encode(codec.Envelope{Kind: codec.KindWorkflow, Name: wf.name, Source: wf.source, Imports: imports})
		if err != nil {
			b.Fatal(err)
		}
		for _, mapping := range []string{"SIMPLE", "MULTI", "MPI", "REDIS"} {
			req := core.ExecutionRequest{
				WorkflowCode: code, Input: 500, Process: mapping,
				Args: map[string]any{"num": runtime.NumCPU()}, Seed: 7,
			}
			b.Run(wf.name+"/"+mapping, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Execute(req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
