package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one (metric, workload) row.
const (
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// compareRow is one metric on one workload, base runs against the change's runs.
type compareRow struct {
	Workload, Metric, Unit string
	Base, New              []float64
	BaseMedian, NewMedian  float64
	// Worse is how much worse the change's median is, negative when it is
	// better; Spread is the wider of the two sides' run-to-run spreads
	// (interquartile distance); Allow is what the cell may worsen by. All
	// three are shares of the base median, or with Abs plain differences.
	Worse, Spread, Allow float64
	Abs                  bool
	Verdict              string
}

// judgeRow holds a metric to allow. A spread wider than that means the
// runs cannot tell a change of that size from noise: the row is
// unresolved, unless every run of the change reads better than every base run.
func judgeRow(def metricDef, allow float64, base, change []float64) compareRow {
	row := compareRow{Metric: def.Name, Unit: def.Unit, Base: base, New: change, Allow: allow, Abs: def.Abs}
	row.BaseMedian, row.NewMedian = median(base), median(change)
	higherBetter := def.Better == "higher"
	row.Worse = row.NewMedian - row.BaseMedian
	if higherBetter {
		row.Worse = row.BaseMedian - row.NewMedian
	}
	row.Spread = math.Max(iqr(base), iqr(change))
	if !def.Abs {
		// Shares of the base median: every ratio has the same base.
		scale := math.Abs(row.BaseMedian)
		switch {
		case scale != 0:
			row.Worse /= scale
			row.Spread /= scale
		case row.Worse > 0:
			row.Worse = math.Inf(1)
		}
	}
	row.Verdict = verdictUnchanged
	if row.Spread > allow {
		if !allBetter(base, change, higherBetter) {
			row.Verdict = verdictUnresolved
		}
	} else if row.Worse > allow {
		row.Verdict = verdictRegressed
	}
	return row
}

// allBetter reports whether every change value beats every base value.
func allBetter(base, change []float64, higherBetter bool) bool {
	if len(base) == 0 || len(change) == 0 {
		return false
	}
	b, n := sorted(base), sorted(change)
	if higherBetter {
		return n[0] > b[len(b)-1]
	}
	return n[len(n)-1] < b[0]
}

// metricValues collects one metric of one workload over a side's runs.
func metricValues(runs []*Result, workload, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		if metric == mFailedShare {
			xs = append(xs, r.failedShare())
		} else if v, ok := r.E2E[metric]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// compareRuns judges every end-to-end metric on every workload, and
// failed_share beside them.
func compareRuns(base, change []*Result) []compareRow {
	var rows []compareRow
	for _, spec := range workloadSpecs {
		for _, def := range comparedDefs {
			b, n := metricValues(base, spec.Name, def.Name), metricValues(change, spec.Name, def.Name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			row := judgeRow(def, allowFor(def, spec.Name), b, n)
			row.Workload = spec.Name
			if def.Name == mFailedShare && row.NewMedian > row.BaseMedian {
				// More failures is never noise.
				row.Verdict = verdictRegressed
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// printCompare prints one row per (metric, workload), every ratio with
// its base, and reports whether any row regressed.
func printCompare(w io.Writer, rows []compareRow) (regressed bool) {
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %9s %8s %8s  %s\n",
		"workload", "metric", "base median", "change median", "worse by", "spread", "allowed", "verdict")
	for _, r := range rows {
		worse := fmt.Sprintf("%+.1f%%", 100*r.Worse)
		if r.Abs {
			worse = fmt.Sprintf("%+.4f", r.Worse)
		}
		fmt.Fprintf(w, "%-16s %-22s %14.4f %14.4f %9s %8s %8s  %s (n=%d vs %d, %s)\n",
			r.Workload, r.Metric, r.BaseMedian, r.NewMedian, worse, formatAllowance(r.Spread, r.Abs),
			formatAllowance(r.Allow, r.Abs), r.Verdict, len(r.Base), len(r.New), r.Unit)
		if r.Verdict == verdictRegressed {
			regressed = true
		}
	}
	return regressed
}

// splitSides reads record files in alternating order: first, third, ...
// are runs of the base; second, fourth, ... runs of the change.
func splitSides(paths []string) (base, change []*Result, err error) {
	if len(paths) < 2 || len(paths)%2 != 0 {
		return nil, nil, fmt.Errorf("compare takes an even number of record files, alternating base and change")
	}
	for i, p := range paths {
		rec, err := readRecord(p)
		if err != nil {
			return nil, nil, err
		}
		if i%2 == 0 {
			base = append(base, rec.Runs...)
		} else {
			change = append(change, rec.Runs...)
		}
	}
	return base, change, nil
}
