package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Record is the machine-readable outcome of `benchmark run`: one pass over
// every workload, with enough about the host and the build to know what a
// later record may be compared with.
type Record struct {
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	GitSHA    string    `json:"git_sha"`
	GoVersion string    `json:"go_version"`
	NProc     int       `json:"nproc"`
	CPUModel  string    `json:"cpu_model"`
	Started   time.Time `json:"started"`
	// Runs holds one Result per workload, in the order run.
	Runs []*Result `json:"runs"`
}

func newRecord(seed int64, seconds float64) *Record {
	return &Record{
		Seed: seed, Seconds: seconds, GitSHA: gitSHA(), GoVersion: runtime.Version(),
		NProc: nproc(), CPUModel: cpuModel(), Started: time.Now().UTC(),
	}
}

// gitSHA names the commit measured, or says the tree is not a checkout
// git knows (the driver's copy is not).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
		sha += "-dirty"
	}
	return sha
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func (r *Record) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func readRecord(path string) (*Record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return &r, nil
}

// failedShare is failed ops over attempted ops.
func (res *Result) failedShare() float64 {
	return ratio(float64(res.Failed), float64(res.Attempted))
}

// printEndToEnd prints every end-to-end metric of every result by name,
// with its unit, its sample count and what compare allows it to worsen by.
func printEndToEnd(w io.Writer, results []*Result) {
	fmt.Fprintf(w, "%-16s %-22s %14s %-10s %8s %8s\n", "workload", "metric", "value", "unit", "samples", "allowed")
	for _, res := range results {
		for _, def := range comparedDefs {
			v, samples := res.E2E[def.Name], res.Samples[def.Name]
			name := def.Name
			switch def.Name {
			case mFailedShare:
				v, samples = res.failedShare(), res.Attempted
			case mTail:
				name = fmt.Sprintf("%s (p%g)", def.Name, res.TailPct)
			}
			fmt.Fprintf(w, "%-16s %-22s %14.4f %-10s %8d %8s\n", res.Workload, name, v, def.Unit, samples,
				formatAllowance(allowFor(def, res.Workload), def.Abs))
		}
		fmt.Fprintf(w, "%-16s generator lateness p99 %.3f ms; checks: %s\n\n", res.Workload,
			res.Layer["gen.lateness_p99_ms"], strings.Join(res.Checks, "; "))
	}
}

// formatAllowance prints a share of the base as a percentage and an
// absolute allowance as it is.
func formatAllowance(x float64, abs bool) string {
	if abs {
		return fmt.Sprintf("%.4f", x)
	}
	return fmt.Sprintf("%.1f%%", 100*x)
}

// printPerLayer prints the per-layer metrics a result has a value for.
func printPerLayer(w io.Writer, results []*Result) {
	for _, res := range results {
		fmt.Fprintf(w, "%s per-layer metrics (0 = layer not reached)\n", res.Workload)
		for _, def := range perLayerDefs {
			if strings.HasPrefix(def.Name, "share.") || strings.HasPrefix(def.Name, "timeshare.") {
				continue
			}
			if v := res.Layer[def.Name]; v != 0 {
				fmt.Fprintf(w, "  %-32s %14.4f %-10s %8d\n", def.Name, v, def.Unit, res.Samples[def.Name])
			}
		}
		fmt.Fprintln(w)
	}
}

// printShares prints where each workload's op goes, by self time: first
// the typical op (where the p50 goes), then all ops' time together (where
// the CPU goes).
func printShares(w io.Writer, results []*Result) {
	for _, table := range []struct{ title, prefix string }{
		{"share of an op", "share."}, {"share of all time", "timeshare."},
	} {
		fmt.Fprintf(w, "%-17s", table.title)
		for _, l := range layerNames {
			fmt.Fprintf(w, " %8s", l)
		}
		fmt.Fprintln(w)
		for _, res := range results {
			fmt.Fprintf(w, "%-17s", res.Workload)
			for _, l := range layerNames {
				fmt.Fprintf(w, " %7.1f%%", 100*res.Layer[table.prefix+l])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

// shareRule is one acceptance rule on the traced layer shares: the
// traffic each workload was designed to be is verified, not assumed.
type shareRule struct {
	Workload string
	Layers   []string
	Min, Max float64 // Max 0 = no ceiling
}

var shareRules = []shareRule{
	{wlQueryRepeat, []string{"server", "qcache"}, 0.50, 0},
	{wlQueryRepeat, []string{"index", "lexical", "search", "embed"}, 0, 0.25},
	{wlQueryUnique, []string{"embed", "index", "lexical", "search", "registry"}, 0.60, 0},
	{wlClusterScatter, []string{"cluster"}, 0.50, 0},
	{wlColdStart, []string{"storage", "index"}, 0.70, 0},
	{wlFlowRun, []string{"engine", "dataflow", "pype"}, 0.80, 0},
}

// maxOvershotOps is the share of ops that may overshoot: a replayed child
// is timed on its own, a loopback round trip or a collection away from the
// call it repeats, so single ops do; a third of them doing so would mean
// the replay no longer repeats what the parent did.
const maxOvershotOps = 1.0 / 3

// checkShares reports every rule a traced result breaks.
func checkShares(res *Result) []string {
	var broken []string
	for _, rule := range shareRules {
		if rule.Workload != res.Workload {
			continue
		}
		var sum float64
		for _, l := range rule.Layers {
			sum += res.Layer["share."+l]
		}
		layers := strings.Join(rule.Layers, "+")
		if sum < rule.Min {
			broken = append(broken, fmt.Sprintf("%s: %s take %.1f%% of an op, want at least %.0f%%", res.Workload, layers, 100*sum, 100*rule.Min))
		}
		if rule.Max > 0 && sum > rule.Max {
			broken = append(broken, fmt.Sprintf("%s: %s take %.1f%% of an op, want at most %.0f%%", res.Workload, layers, 100*sum, 100*rule.Max))
		}
	}
	if r := res.Layer["trace.span_sum_ratio"]; r > overshootLimit {
		broken = append(broken, fmt.Sprintf("%s: per-layer spans sum to %.2fx the outermost spans, want within 15%%", res.Workload, r))
	}
	if r := res.Layer["trace.overshot_ops_share"]; r > maxOvershotOps {
		broken = append(broken, fmt.Sprintf("%s: the per-layer spans of %.0f%% of the ops sum to more than 1.15x the op's outermost span, want at most a third of them", res.Workload, 100*r))
	}
	return broken
}
