package main

import (
	"fmt"
	"os"
	"strings"
	"time"
)

// Smoke-run sizes: a tenth of the measured run.
const (
	smokePEs     = fullPEs / 10
	smokeWFs     = fullWFs / 10
	smokeSeconds = driverSeconds / 10.0
)

// cmdSmoke runs every workload, traced, at a tenth of the duration on a
// tenth of the corpus, and asserts that every metric BENCHMARK.json
// declares came out finite and that every correctness check ran and
// passed. It is the hook for `make verify`.
func cmdSmoke(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("smoke takes no arguments")
	}
	bin, err := buildServer()
	if err != nil {
		return err
	}
	start := time.Now()
	var broken []string
	for _, spec := range workloadSpecs {
		res, err := runWorkload(runConfig{
			Workload: spec.Name, Seed: 1, Seconds: smokeSeconds, Trace: true,
			NumPE: smokePEs, NumWF: smokeWFs, ServerBin: bin,
		})
		if err != nil {
			return err
		}
		broken = append(broken, smokeProblems(res)...)
		fmt.Printf("%-16s ok: %d ops, correct_share %.3f, %d spans\n", res.Workload, res.Attempted, res.E2E[mCorrect], len(res.Spans))
	}
	if len(broken) > 0 {
		return fmt.Errorf("smoke failed:\n  %s", strings.Join(broken, "\n  "))
	}
	fmt.Fprintf(os.Stdout, "smoke passed in %.1f s\n", time.Since(start).Seconds())
	return nil
}

// smokeProblems lists what a smoke result is missing.
func smokeProblems(res *Result) []string {
	var out []string
	for _, name := range append(missing(endToEndDefs, res.E2E), missing(perLayerDefs, res.Layer)...) {
		out = append(out, fmt.Sprintf("%s: metric %s missing or not finite", res.Workload, name))
	}
	if len(res.Checks) == 0 {
		out = append(out, res.Workload+": no correctness check ran")
	}
	if !res.Correct {
		out = append(out, fmt.Sprintf("%s: outputs wrong or ops failed (correct_share %.4f, failed %d of %d)",
			res.Workload, res.E2E[mCorrect], res.Failed, res.Attempted))
	}
	if len(res.Spans) == 0 {
		out = append(out, res.Workload+": the traced replay recorded no spans")
	}
	return out
}
