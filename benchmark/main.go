// Command benchmark is the repository's yardstick for performance claims:
// six named workloads over real laminar-server child processes, driven
// over loopback HTTP, with end-to-end and per-layer metrics declared in
// BENCHMARK.json. See README.md in this directory.
//
//	go run ./benchmark --workload query_repeat --seed 1 --seconds 10 --trace 0
//	go run ./benchmark run     [-seed N] [-seconds S] [-out record.json]
//	go run ./benchmark trace   [-seed N] [-seconds S] [-out record.json]
//	go run ./benchmark compare base.json change.json [base2.json change2.json ...]
//	go run ./benchmark smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	code := 0
	func() {
		// A panic must not leave server processes or temp dirs behind.
		defer func() {
			if r := recover(); r != nil {
				killAllChildren()
				removeTempDirs()
				panic(r)
			}
		}()
		reapOnSignal(removeTempDirs)
		if err := dispatch(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
	}()
	killAllChildren()
	removeTempDirs()
	os.Exit(code)
}

func dispatch(args []string) error {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "run":
			return cmdRun(args[1:], false)
		case "trace":
			return cmdRun(args[1:], true)
		case "compare":
			return cmdCompare(args[1:])
		case "smoke":
			return cmdSmoke(args[1:])
		case "manifest":
			return cmdManifest()
		}
		return fmt.Errorf("unknown command %q (want run, trace, compare, smoke, or --workload ... for one driver run)", args[0])
	}
	return cmdDriver(args)
}

// cmdDriver is the contract the benchmark driver calls: one workload, one
// run, the result as the last line of standard output.
func cmdDriver(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (one of BENCHMARK.json's)")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", driverSeconds, "how long the run measures")
	trace := fs.Int("trace", 0, "0: report the end-to-end metrics; 1: also replay in-process with spans and report the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workload == "" {
		return fmt.Errorf("no --workload given")
	}
	bin, err := buildServer()
	if err != nil {
		return err
	}
	res, err := runWorkload(runConfig{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		NumPE: fullPEs, NumWF: fullWFs, ServerBin: bin,
	})
	if err != nil {
		return err
	}
	if err := writeSpans(res); err != nil {
		return err
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, values := endToEndDefs, res.E2E
	if *trace == 1 {
		defs, values = perLayerDefs, res.Layer
		for _, msg := range checkShares(res) {
			fmt.Fprintln(os.Stderr, "benchmark: traffic check:", msg)
		}
	}
	if names := missing(defs, values); len(names) > 0 {
		return fmt.Errorf("%s: no finite value for %s", res.Workload, strings.Join(names, ", "))
	}
	metrics := map[string]metric{}
	for _, def := range defs {
		metrics[def.Name] = metric{values[def.Name], def.Unit}
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d attempted, %d failed, checks: %s\n",
		res.Workload, res.Seed, res.Attempted, res.Failed, strings.Join(res.Checks, "; "))
	if info, err := json.Marshal(res.Info); err == nil {
		fmt.Fprintf(os.Stderr, "info: %s\n", info)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// cmdRun is one pass over every workload: it prints every metric by name
// and writes the record.
func cmdRun(args []string, trace bool) error {
	name, seconds := "run", float64(referenceSeconds)
	if trace {
		// The spans come from a fixed sample of ops, not from the load; the
		// load only has to feed the counters scraped from /metrics.
		name, seconds = "trace", driverSeconds
	}
	fs := flag.NewFlagSet("benchmark "+name, flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	fs.Float64Var(&seconds, "seconds", seconds, "how long each workload measures (27 gives the 3+15+9 s reference phases)")
	out := fs.String("out", filepath.Join(outDir, name+".json"), "where to write the record")
	if err := fs.Parse(args); err != nil {
		return err
	}
	bin, err := buildServer()
	if err != nil {
		return err
	}
	rec := newRecord(*seed, seconds)
	var broken []string
	for _, spec := range workloadSpecs {
		fmt.Fprintf(os.Stderr, "%s ...\n", spec.Name)
		res, err := runWorkload(runConfig{
			Workload: spec.Name, Seed: *seed, Seconds: seconds, Trace: trace,
			NumPE: fullPEs, NumWF: fullWFs, ServerBin: bin,
		})
		if err != nil {
			return err
		}
		if err := writeSpans(res); err != nil {
			return err
		}
		if !res.Correct {
			broken = append(broken, fmt.Sprintf("%s: outputs wrong or ops failed (correct_share %.4f, failed %d of %d)",
				res.Workload, res.E2E[mCorrect], res.Failed, res.Attempted))
		}
		if trace {
			broken = append(broken, checkShares(res)...)
		}
		rec.Runs = append(rec.Runs, res)
	}
	fmt.Printf("seed %d, %g s per workload, %s, %s, %d cores, %s\n\n",
		rec.Seed, rec.Seconds, rec.GitSHA, rec.GoVersion, rec.NProc, rec.CPUModel)
	printEndToEnd(os.Stdout, rec.Runs)
	printPerLayer(os.Stdout, rec.Runs)
	if trace {
		printShares(os.Stdout, rec.Runs)
	}
	if err := rec.write(*out); err != nil {
		return err
	}
	fmt.Printf("record written to %s\n", *out)
	if len(broken) > 0 {
		return fmt.Errorf("checks failed:\n  %s", strings.Join(broken, "\n  "))
	}
	return nil
}

func cmdCompare(args []string) error {
	base, change, err := splitSides(args)
	if err != nil {
		return err
	}
	if printCompare(os.Stdout, compareRuns(base, change)) {
		return fmt.Errorf("at least one metric regressed")
	}
	return nil
}

// cmdManifest prints BENCHMARK.json.
func cmdManifest() error {
	raw, err := json.MarshalIndent(manifest(), "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}
