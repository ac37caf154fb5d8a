package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdicts(t *testing.T) {
	wall := rule{better: "lower", bound: 0.10}
	rate := rule{better: "higher", bound: 0.10}
	for _, c := range []struct {
		name      string
		r         rule
		base, now []float64
		want      string
	}{
		{"within bound", wall, []float64{1.00, 1.01, 0.99}, []float64{1.05, 1.04, 1.06}, "unchanged"},
		{"slower by more than the bound", wall, []float64{1.00, 1.01, 0.99}, []float64{1.20, 1.21, 1.19}, "regressed"},
		{"faster by more than the bound", wall, []float64{1.00, 1.01, 0.99}, []float64{0.80, 0.81, 0.79}, "improved"},
		{"higher is better", rate, []float64{100, 101, 99}, []float64{80, 81, 79}, "regressed"},
		{"spread wider than the bound", wall, []float64{0.7, 1.0, 1.3, 0.8, 1.2}, []float64{1.2, 1.1, 1.3, 0.9, 1.0}, "unresolved"},
		{"wide spread, every new run faster", wall, []float64{1.7, 2.0, 2.3, 1.8, 2.2}, []float64{0.7, 1.0, 1.3, 0.8, 1.2}, "improved"},
		{"exact, worse", resultOnlyRules["failed_frac"], []float64{0}, []float64{0.25}, "regressed"},
		{"exact, same", resultOnlyRules["pcc_bound_ratio"], []float64{2.17}, []float64{2.17}, "unchanged"},
		{"exact, worse when lower", resultOnlyRules["pcc_bound_ratio"], []float64{2.17}, []float64{2.16}, "regressed"},
	} {
		if got := c.r.verdict(summarize("", c.base), summarize("", c.now)); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	spec, err := loadSpec("../../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, wall, failed float64) string {
		r := newResults(42)
		r.Workloads["suite"] = &workloadResult{EndToEnd: map[string]summary{
			"wall_s":      summarize("s", []float64{wall, wall * 1.01, wall * 0.99}),
			"failed_frac": summarize("ratio", []float64{failed}),
		}}
		path := filepath.Join(t.TempDir(), name)
		if err := r.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1.0, 0)
	var out bytes.Buffer
	if err := compareFiles(spec, base, write("same.json", 1.02, 0), &out); err != nil {
		t.Errorf("unchanged run: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(spec, base, write("slow.json", 1.5, 0), &out); err == nil || !strings.Contains(out.String(), "regressed") {
		t.Errorf("slower run: err %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(spec, base, write("failing.json", 1.0, 0.5), &out); err == nil {
		t.Errorf("higher failed_frac must fail:\n%s", out.String())
	}
}
