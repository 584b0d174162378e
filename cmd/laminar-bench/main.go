// laminar-bench regenerates the paper's evaluation (Section 6) as text:
// Table 5 (execution latency), Table 6 (zero-shot text-to-code search),
// Table 7 (zero-shot clone detection), the figures (1, 6-9) and the two
// design ablations.
//
// Usage:
//
//	laminar-bench               # everything
//	laminar-bench -table 6      # one table
//	laminar-bench -figures      # figures only
//	laminar-bench -searchbench  # Flat vs Clustered vector-index comparison
//	laminar-bench -persistbench # index persistence + background-retrain cold start
//	laminar-bench -searchbench-smoke -metrics-smoke ...   # CI gates; they combine (make smoke)
package main

import (
	"flag"
	"fmt"
	"log"

	"laminar/internal/bench"
	"laminar/internal/index"
)

func main() {
	// A mode flag selects what runs; with none set, everything but the
	// smoke gates and -vecbench does. Modes register themselves here so
	// "none set" is read off flag.Visit, not a hand-kept list.
	modes := map[string]bool{"table": true}
	mode := func(name, usage string) *bool {
		modes[name] = true
		return flag.Bool(name, false, usage)
	}
	table := flag.Int("table", 0, "run only this table (5, 6 or 7)")
	figures := mode("figures", "run only the figures")
	ablations := mode("ablations", "run only the ablations")
	searchBench := mode("searchbench", "run only the vector-index comparison (Flat vs Clustered), the recall-vs-latency knob frontier, and the hybrid-retrieval quality table (pure-ANN vs hybrid RRF vs cross-encoder reranked, with an adversarial exact-identifier query set)")
	searchSmoke := mode("searchbench-smoke", "run the fast CI recall gate: tiny corpus, fails when tuned recall@10 drops below 0.9, behind the fixed-nprobe baseline, when target 1.0 stops being exact, or when hybrid retrieval falls behind pure ANN on exact-identifier queries")
	indexNProbe := flag.Int("index-nprobe", 0, "shards probed per clustered query in -searchbench (0 = auto; a nonzero value is the adaptive floor when -index-recall-target is set)")
	indexRecallTarget := flag.Float64("index-recall-target", 0, "adaptive probe recall target in (0,1] for -searchbench (0 = fixed nprobe)")
	indexMaxProbe := flag.Int("index-max-probe", 0, "adaptive probe budget cap for -searchbench (0 = no cap)")
	indexSpill := flag.Float64("index-spill", 0, "spilled-shard ratio for -searchbench (0 = off)")
	indexOverfetch := flag.Int("index-overfetch", 0, "quantized-pool widening factor for -searchbench (<=1 = off; needs -index-quantize)")
	indexQuantize := flag.Bool("index-quantize", false, "int8-quantized candidate scoring for -searchbench (final top-k is always exact-rescored)")
	vecBench := mode("vecbench", "run only the scoring-kernel throughput table (scalar vs vecmath, float32 vs int8)")
	frontierSize := flag.Int("frontier-size", 10000, "corpus size for the -searchbench knob frontier (0 disables the sweep)")
	persistBench := mode("persistbench", "run only the index persistence + background-retrain benchmark, plus the churn table: delta-journal save cost per churn fraction and the query-cache hit-rate curve on a repeated workload")
	persistSize := flag.Int("persist-size", 10000, "registry size (PEs) for -persistbench")
	persistSmoke := mode("persistbench-smoke", "run the ingestion CI gate: at 5k PEs a 10% churn delta save must cost < 50% of a full save, the repeated-query cache hit rate must reach 0.8, a mutation must invalidate cached results, and a delta chain must reload losslessly")
	metricsSmoke := mode("metrics-smoke", "run the telemetry CI gate: boot a metrics-enabled server on a corpus, issue searches, scrape /metrics, and fail when the probe/route histograms are empty, the exposition stops parsing, or the runbook's metric names drift from the live endpoint")
	metricsSmokeDoc := flag.String("metrics-smoke-doc", "docs/operations.md", "runbook whose metric names -metrics-smoke validates against the live endpoint")
	flowBench := mode("flowbench", "run only the dataflow-engine benchmark: one skewed 4-PE streaming pipeline through all four mappings plus a cost-weighted MULTI run, with a throughput/latency/allocation/backpressure table (reading guide in docs/dataflow.md)")
	flowRecords := flag.Int("flow-records", 0, "records the -flowbench source emits (0 = default 4000)")
	flowProcesses := flag.Int("flow-processes", 0, "process budget for every -flowbench mapping (0 = default 8)")
	flowQueueCap := flag.Int("flow-queue-cap", 0, "per-instance input queue bound for -flowbench (0 = default 256)")
	flowSmoke := mode("flowbench-smoke", "run the dataflow CI gate: all four mappings on a small skewed pipeline, asserting identical output multisets, populated laminar_flow_* telemetry, a bounded queue high-water mark, a settled queue gauge, and a 400 for cyclic workflow registration")
	clusterBench := mode("clusterbench", "run only the cluster benchmark: in-process shard nodes behind a scatter-gather coordinator, with single-node vs 3-shard latency, a replica failover row, and a kill-a-node degraded-mode row (reading guide in docs/cluster.md)")
	clusterSmoke := mode("clusterbench-smoke", "run the cluster CI gate: small sharded corpus, failing when the 3-shard p50 exceeds 1.3x the single-node baseline at 3x the corpus, when the merged ranking drifts from a global exact scan, when replica failover degrades, or when a killed shard errors instead of degrading")
	flag.Parse()

	all := true
	flag.Visit(func(f *flag.Flag) { all = all && !modes[f.Name] })

	if all || *table == 5 {
		res, err := bench.RunTable5(bench.DefaultTable5Options())
		if err != nil {
			log.Fatalf("table 5: %v", err)
		}
		fmt.Println(res.Render())
	}
	if all || *table == 6 {
		res, err := bench.RunTable6(bench.DefaultTable6Options())
		if err != nil {
			log.Fatalf("table 6: %v", err)
		}
		fmt.Println(res.Render())
	}
	if all || *table == 7 {
		res, err := bench.RunTable7(bench.DefaultTable7Options())
		if err != nil {
			log.Fatalf("table 7: %v", err)
		}
		fmt.Println(res.Render())
	}
	if all || *figures {
		f1, err := bench.Figure1()
		if err != nil {
			log.Fatalf("figure 1: %v", err)
		}
		fmt.Println(f1)
		sc, err := bench.NewShowcase()
		if err != nil {
			log.Fatalf("showcase: %v", err)
		}
		defer sc.Close()
		for _, fig := range []func() (string, error){
			func() (string, error) { return bench.Figure6(sc.Client) },
			func() (string, error) { return bench.Figure7(sc.Client) },
			func() (string, error) { return bench.Figure8(sc.Client) },
			func() (string, error) { return bench.Figure9(sc.Client) },
		} {
			out, err := fig()
			if err != nil {
				log.Fatalf("figure: %v", err)
			}
			fmt.Println(out)
		}
	}
	if all || *searchBench {
		sb, err := bench.RunSearchBench(nil, 0, index.ClusteredConfig{
			NProbe:       *indexNProbe,
			RecallTarget: *indexRecallTarget,
			MaxProbe:     *indexMaxProbe,
			SpillRatio:   *indexSpill,
			Overfetch:    *indexOverfetch,
			Quantize:     *indexQuantize,
		})
		if err != nil {
			log.Fatalf("search bench: %v", err)
		}
		fmt.Println(sb.Render())
		if *frontierSize > 0 {
			fr, err := bench.RunSearchFrontier(*frontierSize, 0)
			if err != nil {
				log.Fatalf("search frontier: %v", err)
			}
			fmt.Println(fr.Render())
		}
		hq, err := bench.RunHybridQuality(0, 0)
		if err != nil {
			log.Fatalf("hybrid quality: %v", err)
		}
		fmt.Println(hq.Render())
	}
	if *vecBench {
		out, err := bench.RunVecBench()
		if out != "" {
			fmt.Println(out)
		}
		if err != nil {
			log.Fatalf("vecbench: %v", err)
		}
	}
	if *searchSmoke {
		summary, err := bench.RunSearchSmoke()
		fmt.Println(summary)
		if err != nil {
			log.Fatalf("searchbench-smoke: %v", err)
		}
	}
	if *metricsSmoke {
		summary, err := bench.RunMetricsSmoke(*metricsSmokeDoc)
		if summary != "" {
			fmt.Println(summary)
		}
		if err != nil {
			log.Fatalf("metrics-smoke: %v", err)
		}
	}
	if all || *flowBench {
		fb, err := bench.RunFlowBench(bench.FlowBenchOptions{
			Records:   *flowRecords,
			Processes: *flowProcesses,
			QueueCap:  *flowQueueCap,
		})
		if err != nil {
			log.Fatalf("flowbench: %v", err)
		}
		fmt.Println(fb.Render())
	}
	if *flowSmoke {
		summary, err := bench.RunFlowSmoke()
		if summary != "" {
			fmt.Println(summary)
		}
		if err != nil {
			log.Fatalf("flowbench-smoke: %v", err)
		}
	}
	if all || *clusterBench {
		cb, err := bench.RunClusterBench()
		if err != nil {
			log.Fatalf("clusterbench: %v", err)
		}
		fmt.Println(cb.Render())
	}
	if *clusterSmoke {
		summary, err := bench.RunClusterSmoke()
		if summary != "" {
			fmt.Println(summary)
		}
		if err != nil {
			log.Fatalf("clusterbench-smoke: %v", err)
		}
	}
	if all || *persistBench {
		pb, err := bench.RunPersistBench(*persistSize, 0)
		if err != nil {
			log.Fatalf("persist bench: %v", err)
		}
		fmt.Println(pb.Render())
		cb, err := bench.RunChurnBench(*persistSize / 2)
		if err != nil {
			log.Fatalf("churn bench: %v", err)
		}
		fmt.Println(cb.Render())
	}
	if *persistSmoke {
		summary, err := bench.RunPersistSmoke()
		if summary != "" {
			fmt.Println(summary)
		}
		if err != nil {
			log.Fatalf("persistbench-smoke: %v", err)
		}
	}
	if all || *ablations {
		bv, err := bench.RunBiVsCross(61, 1)
		if err != nil {
			log.Fatalf("bi-vs-cross: %v", err)
		}
		fmt.Println(bv.Render())
		er, err := bench.RunEmbeddingReuse(61, 3)
		if err != nil {
			log.Fatalf("embedding reuse: %v", err)
		}
		fmt.Println(er.Render())
	}
}
