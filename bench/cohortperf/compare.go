package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// rule is how one end-to-end metric is judged: which direction is better
// and the share of the base median by which it may get worse. An exact
// metric may not get worse at all.
type rule struct {
	better string // "lower" or "higher"
	bound  float64
	exact  bool
}

// resultOnlyRules covers the end-to-end metrics kept in the results file but
// not in BENCHMARK.json: those are not defined on every workload, or are 0
// on a correct run.
var resultOnlyRules = map[string]rule{
	"failed_frac":       {better: "lower", exact: true},
	"pcc_bound_ratio":   {better: "higher", exact: true},
	"sim_mcycles_per_s": {better: "higher", bound: 0.10},
}

func rules(spec *benchSpec) map[string]rule {
	out := map[string]rule{}
	for k, v := range resultOnlyRules {
		out[k] = v
	}
	for _, m := range spec.EndToEnd {
		out[m.Name] = rule{better: m.Better, bound: m.Bound}
	}
	return out
}

// worseShare is how much worse now is than base, as a share of base
// (negative when better).
func (r rule) worseShare(base, now float64) float64 {
	d := now - base
	if r.better == "higher" {
		d = -d
	}
	if base == 0 {
		return d
	}
	return d / math.Abs(base)
}

// verdict judges one metric. When either side's spread (IQR over median) is
// wider than the bound, the medians cannot resolve a change of the bound's
// size, so the verdict is unresolved — unless every new sample beats every
// base sample.
func (r rule) verdict(base, now summary) string {
	w := r.worseShare(base.Median, now.Median)
	if r.exact {
		switch {
		case w > 0:
			return "regressed"
		case w < 0:
			return "improved"
		}
		return "unchanged"
	}
	if max(base.iqrShare(), now.iqrShare()) > r.bound {
		if r.allBetter(base, now) {
			return "improved"
		}
		return "unresolved"
	}
	switch {
	case w > r.bound:
		return "regressed"
	case w < -r.bound:
		return "improved"
	}
	return "unchanged"
}

func (r rule) allBetter(base, now summary) bool {
	if len(base.Samples) == 0 || len(now.Samples) == 0 {
		return false
	}
	for _, b := range base.Samples {
		for _, n := range now.Samples {
			if r.worseShare(b, n) >= 0 {
				return false
			}
		}
	}
	return true
}

func loadResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultsSchema)
	}
	return &r, nil
}

// compareFiles prints one row per workload and end-to-end metric of BASE and
// fails if any metric regressed or is missing from NEW.
func compareFiles(spec *benchSpec, basePath, newPath string, out io.Writer) error {
	base, err := loadResults(basePath)
	if err != nil {
		return err
	}
	now, err := loadResults(newPath)
	if err != nil {
		return err
	}
	rs := rules(spec)
	regressions := 0
	fmt.Fprintf(out, "%-14s %-18s %12s %7s %12s %7s %8s  %s\n",
		"workload", "metric", "base", "iqr", "new", "iqr", "delta", "verdict")
	for _, wname := range sortedKeys(base.Workloads) {
		bw := base.Workloads[wname]
		nw := now.Workloads[wname]
		for _, m := range sortedKeys(bw.EndToEnd) {
			r, known := rs[m]
			if !known {
				continue
			}
			b := bw.EndToEnd[m]
			var n summary
			ok := false
			if nw != nil {
				n, ok = nw.EndToEnd[m]
			}
			if !ok {
				fmt.Fprintf(out, "%-14s %-18s %12.5g %6.1f%% %12s %7s %8s  regressed (missing)\n",
					wname, m, b.Median, 100*b.iqrShare(), "-", "-", "-")
				regressions++
				continue
			}
			v := r.verdict(b, n)
			if v == "regressed" {
				regressions++
			}
			delta := "-"
			if b.Median != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(n.Median-b.Median)/b.Median)
			}
			fmt.Fprintf(out, "%-14s %-18s %12.5g %6.1f%% %12.5g %6.1f%% %8s  %s\n",
				wname, m, b.Median, 100*b.iqrShare(), n.Median, 100*n.iqrShare(), delta, v)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressed metric(s)", regressions)
	}
	return nil
}
