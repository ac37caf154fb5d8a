package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cohort/internal/obs"
	"cohort/internal/stats"
)

var key = strings.Repeat("ab", 32)

// writeManifest drops a minimal valid manifest into dir.
func writeManifest(t *testing.T, dir string, workers int, metrics obs.Snapshot) {
	t.Helper()
	clk := obs.ManualClock{T: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
	m := obs.NewManifest("cohort-bench", clk)
	m.ConfigKey = key
	m.Seed = 42
	m.Workers = workers
	m.Engine = &stats.EngineStats{Jobs: 10, CacheHits: 4, CacheMisses: 6}
	m.Metrics = metrics
	if _, err := m.Write(dir); err != nil {
		t.Fatal(err)
	}
}

func snap(v int64) obs.Snapshot {
	return obs.Snapshot{{Name: "experiments_cells_total", Kind: obs.KindCounter, Value: v}}
}

func TestReportGroupsAndPasses(t *testing.T) {
	dir := t.TempDir()
	writeManifest(t, dir, 1, snap(8))
	writeManifest(t, dir, 8, snap(8))

	var out bytes.Buffer
	if err := report([]string{"-dir", dir, "-check"}, &out, io.Discard); err != nil {
		t.Fatalf("check on agreeing manifests failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "metrics agree across runs") {
		t.Errorf("missing verdict:\n%s", out.String())
	}
	if !strings.Contains(out.String(), obs.ShortKey(key)) {
		t.Errorf("missing group key:\n%s", out.String())
	}
}

func TestReportDetectsDeterminismViolation(t *testing.T) {
	dir := t.TempDir()
	writeManifest(t, dir, 1, snap(8))
	writeManifest(t, dir, 8, snap(9)) // diverging metric value

	var out bytes.Buffer
	if err := report([]string{"-dir", dir}, &out, io.Discard); err != nil {
		t.Fatalf("non-strict run must not fail: %v", err)
	}
	if !strings.Contains(out.String(), "METRICS DISAGREE") {
		t.Errorf("missing violation verdict:\n%s", out.String())
	}

	out.Reset()
	if err := report([]string{"-dir", dir, "-check"}, &out, io.Discard); err == nil {
		t.Fatal("-check must fail on diverging metrics")
	}
}

func TestReportCheckRequiresManifests(t *testing.T) {
	var out bytes.Buffer
	if err := report([]string{"-dir", t.TempDir(), "-check"}, &out, io.Discard); err == nil {
		t.Fatal("-check on an empty directory must fail")
	}
	out.Reset()
	if err := report([]string{"-dir", t.TempDir()}, &out, io.Discard); err != nil {
		t.Fatalf("non-strict empty directory must render, not fail: %v", err)
	}
	if !strings.Contains(out.String(), "no manifests") {
		t.Errorf("missing empty notice:\n%s", out.String())
	}
}

func TestReportJSONOutput(t *testing.T) {
	dir := t.TempDir()
	writeManifest(t, dir, 1, snap(8))
	var out bytes.Buffer
	if err := report([]string{"-dir", dir, "-json"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if rep.Schema != ReportSchema || len(rep.Groups) != 1 || !rep.Groups[0].MetricsAgree {
		t.Errorf("unexpected report: %+v", rep)
	}
}

func TestReportRendersAttribution(t *testing.T) {
	dir := t.TempDir()
	clk := obs.ManualClock{T: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
	m := obs.NewManifest("cohort-bench", clk)
	m.ConfigKey = key
	m.Seed = 42
	m.Workers = 1
	m.Metrics = snap(8)
	for _, sys := range []string{"CoHoRT", "PCC", "PENDULUM"} {
		m.Attribution = append(m.Attribution, obs.AttributionRow{
			Benchmark: "fft", System: sys, Core: 0, Critical: true, Misses: 10,
			Arbitration: 100, TimerStall: 50, Transfer: 200, DRAM: 400,
			HitCycles: 250, TotalLatency: 1000,
		})
	}
	if _, err := m.Write(dir); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := report([]string{"-dir", dir}, &out, io.Discard); err != nil {
		t.Fatalf("report failed: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"WCML attribution", "CoHoRT", "PCC", "PENDULUM", "40.0%", "5.0%"} {
		if !strings.Contains(got, want) {
			t.Errorf("report output missing %q:\n%s", want, got)
		}
	}
}

// TestReportAttributionInJSON checks the rows survive the -json path.
func TestReportAttributionInJSON(t *testing.T) {
	dir := t.TempDir()
	clk := obs.ManualClock{T: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
	m := obs.NewManifest("cohort-bench", clk)
	m.ConfigKey = key
	m.Seed = 42
	m.Workers = 1
	m.Metrics = snap(8)
	m.Attribution = []obs.AttributionRow{{
		Benchmark: "fft", System: "CoHoRT", Core: 1, Critical: false, Misses: 3,
		Arbitration: 1, TimerStall: 2, Transfer: 3, DRAM: 4, HitCycles: 5, TotalLatency: 15,
	}}
	if _, err := m.Write(dir); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := report([]string{"-dir", dir, "-json"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 1 || len(rep.Groups[0].Attribution) != 1 {
		t.Fatalf("attribution rows lost in JSON report: %+v", rep.Groups)
	}
	if got := rep.Groups[0].Attribution[0].TimerStall; got != 2 {
		t.Errorf("TimerStall = %d, want 2", got)
	}
}

// TestRun drives the CLI through its exit status: 0 for a report, 2 for a
// bad or undefined flag, 1 when the manifests cannot be read or break the
// determinism contract. Every failure names its cause on stderr.
func TestRun(t *testing.T) {
	agree := func(t *testing.T, dir string) {
		writeManifest(t, dir, 1, snap(8))
		writeManifest(t, dir, 8, snap(8))
	}
	disagree := func(t *testing.T, dir string) {
		writeManifest(t, dir, 1, snap(8))
		writeManifest(t, dir, 8, snap(9))
	}
	corrupt := func(t *testing.T, dir string) {
		if err := os.WriteFile(filepath.Join(dir, "bad.manifest.json"), []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		name    string
		setup   func(t *testing.T, dir string)
		args    []string // "DIR" stands for the populated directory
		want    int
		wantOut string
		wantErr string
	}{
		{"agreeing runs", agree, []string{"-dir", "DIR", "-check"}, 0, "metrics agree across runs", ""},
		{"fingerprints", agree, []string{"-dir", "DIR", "-fingerprints"}, 0, key, ""},
		{"help", nil, []string{"-h"}, 0, "", "-fingerprints"},
		{"missing -dir", nil, nil, 2, "", "-dir is required"},
		{"undefined flag", nil, []string{"-nosuchflag"}, 2, "", "-nosuchflag"},
		{"unreadable manifest", corrupt, []string{"-dir", "DIR"}, 1, "", "bad.manifest.json"},
		{"empty directory under -check", nil, []string{"-dir", "DIR", "-check"}, 1, "", "holds no manifests"},
		{"determinism violation under -check", disagree, []string{"-dir", "DIR", "-check"}, 1, "METRICS DISAGREE", "determinism violation"},
		{"disagreeing fingerprints", disagree, []string{"-dir", "DIR", "-fingerprints"}, 1, "", "disagree on metrics"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			dir := t.TempDir()
			if tt.setup != nil {
				tt.setup(t, dir)
			}
			args := append([]string(nil), tt.args...)
			for i, a := range args {
				if a == "DIR" {
					args[i] = dir
				}
			}
			var stdout, stderr bytes.Buffer
			if got := run(args, &stdout, &stderr); got != tt.want {
				t.Fatalf("exit %d, want %d; stderr:\n%s", got, tt.want, stderr.String())
			}
			if !strings.Contains(stdout.String(), tt.wantOut) {
				t.Errorf("stdout does not contain %q:\n%s", tt.wantOut, stdout.String())
			}
			if !strings.Contains(stderr.String(), tt.wantErr) {
				t.Errorf("stderr does not name %q:\n%s", tt.wantErr, stderr.String())
			}
		})
	}
}
