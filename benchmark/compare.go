package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// compare reads two result sets (out/result-seed<N>.json, as written by a run
// without --workload) and prints one row per (end-to-end metric, workload):
// both medians, B's ratio to A with A as the base, the metric's bound and a
// verdict. "worse" means B's median is worse than A's by more than the
// bound; "unresolved" means either side's own run-to-run spread is wider
// than the bound, so the sets cannot tell a change of that size from noise
// (sets made with --repeat 4 or more carry the spread; a single run per
// workload has none and is judged on the medians alone).

// spreadOf is the run-to-run spread of one side as a share of its median:
// the distance between the first and third quartile with four or more runs,
// the full range with two or three, and zero (unknown) with one.
func spreadOf(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	med := quantile(s, 0.5)
	if med == 0 || len(s) < 2 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / med
	}
	return (quartile(s, 3) - quartile(s, 1)) / med
}

// quartile returns the i-th quartile of an ascending slice the way Python's
// statistics.quantiles(values, n=4) does (its default, exclusive method), so
// compare's spread is the number the acceptance check computes.
func quartile(sorted []float64, i int) float64 {
	n := len(sorted)
	j := min(max(i*(n+1)/4, 1), n-1)
	delta := float64(i*(n+1) - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

// compareRow is one (metric, workload) comparison.
type compareRow struct {
	workload, metric, unit string
	a, b                   float64 // medians
	spreadA, spreadB       float64
	bound                  float64
	verdict                string
}

func loadSet(path string) (*setResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set setResult
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &set, nil
}

// compareSets judges B against A on every end-to-end metric of every
// workload both sets ran, plus the failed-operations share.
func compareSets(a, b *setResult) []compareRow {
	var rows []compareRow
	for _, w := range workloads {
		ra, rb := a.Runs[w.name], b.Runs[w.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, s := range endToEnd {
			va, vb := metricValues(ra, s.name), metricValues(rb, s.name)
			row := compareRow{workload: w.name, metric: s.name, unit: s.unit, bound: s.bound,
				a: median(va), b: median(vb), spreadA: spreadOf(va), spreadB: spreadOf(vb)}
			worse := (row.b - row.a) / row.a
			if s.better == "higher" {
				worse = -worse
			}
			switch {
			case max(row.spreadA, row.spreadB) > s.bound:
				row.verdict = "unresolved"
			case worse > s.bound:
				row.verdict = "worse"
			default:
				row.verdict = "ok"
			}
			rows = append(rows, row)
		}
		// Failures are compared as a share of what was attempted and may
		// not rise at all.
		fa, fb := failedShare(ra), failedShare(rb)
		row := compareRow{workload: w.name, metric: "ops_failed/ops_attempted", unit: "share", a: fa, b: fb, verdict: "ok"}
		if fb > fa {
			row.verdict = "worse"
		}
		rows = append(rows, row)
	}
	return rows
}

func metricValues(runs []setRun, name string) []float64 {
	var vals []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

func failedShare(runs []setRun) float64 {
	var failed, attempted float64
	for _, r := range runs {
		failed += float64(r.Failed)
		attempted += float64(r.Attempted)
	}
	return share(failed, attempted)
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := loadSet(args[0])
	if err == nil {
		var b *setResult
		if b, err = loadSet(args[1]); err == nil {
			return printComparison(a, b, compareSets(a, b))
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark compare:", err)
	return 2
}

func printComparison(a, b *setResult, rows []compareRow) int {
	fmt.Printf("A: commit %s seed %d, %s, GOMAXPROCS %d\nB: commit %s seed %d, %s, GOMAXPROCS %d\n",
		a.Hygiene.Commit, a.Hygiene.Seed, a.Hygiene.GoVersion, a.Hygiene.GOMAXPROCS,
		b.Hygiene.Commit, b.Hygiene.Seed, b.Hygiene.GoVersion, b.Hygiene.GOMAXPROCS)
	fmt.Printf("%-13s %-25s %14s %14s %-6s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "unit", "B/A", "spreadA", "spreadB", "bound", "verdict")
	bad := 0
	for _, r := range rows {
		fmt.Printf("%-13s %-25s %14.4f %14.4f %-6s %9.4f %8.4f %8.4f %6.2f  %s\n",
			r.workload, r.metric, r.a, r.b, r.unit, share(r.b, r.a), r.spreadA, r.spreadB, r.bound, r.verdict)
		if r.verdict != "ok" {
			bad++
		}
	}
	fmt.Printf("%d rows, %d not ok (ratios are B over A, A is the base)\n", len(rows), bad)
	if bad > 0 {
		return 1
	}
	return 0
}
