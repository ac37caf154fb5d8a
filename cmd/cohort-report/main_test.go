package main

import (
	"bytes"
	"encoding/json"
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
	if err := run([]string{"-dir", dir, "-check"}, &out); err != nil {
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
	if err := run([]string{"-dir", dir}, &out); err != nil {
		t.Fatalf("non-strict run must not fail: %v", err)
	}
	if !strings.Contains(out.String(), "METRICS DISAGREE") {
		t.Errorf("missing violation verdict:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"-dir", dir, "-check"}, &out); err == nil {
		t.Fatal("-check must fail on diverging metrics")
	}
}

func TestReportCheckRequiresManifests(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dir", t.TempDir(), "-check"}, &out); err == nil {
		t.Fatal("-check on an empty directory must fail")
	}
	out.Reset()
	if err := run([]string{"-dir", t.TempDir()}, &out); err != nil {
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
	if err := run([]string{"-dir", dir, "-json"}, &out); err != nil {
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

func TestTrajectoryAppendIdempotent(t *testing.T) {
	dir := t.TempDir()
	writeManifest(t, dir, 1, snap(8))
	writeManifest(t, dir, 8, snap(8))
	traj := filepath.Join(t.TempDir(), "BENCH_test.json")

	var out bytes.Buffer
	for i := 0; i < 2; i++ { // second pass must dedup, not double
		if err := run([]string{"-dir", dir, "-bench-out", traj}, &out); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(traj)
	if err != nil {
		t.Fatal(err)
	}
	var tr Trajectory
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Schema != TrajectorySchema {
		t.Errorf("schema = %q", tr.Schema)
	}
	if len(tr.Entries) != 2 {
		t.Errorf("expected 2 deduped entries, got %d: %+v", len(tr.Entries), tr.Entries)
	}
	if tr.Entries[0].Workers != 1 || tr.Entries[1].Workers != 8 {
		t.Errorf("entries out of order: %+v", tr.Entries)
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
	if err := run([]string{"-dir", dir}, &out); err != nil {
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
	if err := run([]string{"-dir", dir, "-json"}, &out); err != nil {
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

// TestReportCurveRuns pins compatibility with runs recorded under the
// retired -curve and -batch oracle flags: BENCH_pr10.json carries such runs
// (the curve and oracle_batch fields), and must still load, compare under
// -speedup, and accept appended runs without losing an entry.
func TestReportCurveRuns(t *testing.T) {
	legacy, err := loadTrajectory("../../BENCH_pr10.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy.Entries) == 0 {
		t.Fatal("BENCH_pr10.json loaded with no entries")
	}
	var out bytes.Buffer
	if err := run([]string{"-speedup", "../../BENCH_pr7.json,../../BENCH_pr10.json"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "x") {
		t.Errorf("no speedup ratio rendered:\n%s", out.String())
	}
	b, err := os.ReadFile("../../BENCH_pr10.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"curve": true`)) {
		t.Fatal("BENCH_pr10.json holds no curve run; the fixture no longer covers legacy fields")
	}
	traj := filepath.Join(t.TempDir(), "BENCH_pr10.json")
	if err := os.WriteFile(traj, b, 0o644); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeManifest(t, dir, 1, snap(8))
	if err := run([]string{"-dir", dir, "-bench-out", traj}, &out); err != nil {
		t.Fatal(err)
	}
	got, err := loadTrajectory(traj)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(legacy.Entries)+1 {
		t.Errorf("appending one run to %d legacy entries left %d", len(legacy.Entries), len(got.Entries))
	}
}

// writeTrajectory drops a trajectory file with one entry per (key, wall) pair.
func writeTrajectory(t *testing.T, path string, entries []TrajectoryEntry) {
	t.Helper()
	b, err := json.Marshal(&Trajectory{Schema: TrajectorySchema, Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedupComparesTrajectories(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "BENCH_base.json")
	newPath := filepath.Join(dir, "BENCH_new.json")
	key2 := strings.Repeat("cd", 32)
	writeTrajectory(t, basePath, []TrajectoryEntry{
		// Two base runs of the shared config: the slower one must not dilute
		// the ratio — speedup compares best against best.
		{Tool: "cohort-bench", ConfigKey: key, Workers: 1, StartedAt: "2026-01-01T00:00:00Z", WallSeconds: 12},
		{Tool: "cohort-bench", ConfigKey: key, Workers: 8, StartedAt: "2026-01-01T00:01:00Z", WallSeconds: 10},
		{Tool: "cohort-bench", ConfigKey: key2, Workers: 1, StartedAt: "2026-01-01T00:02:00Z", WallSeconds: 3},
	})
	writeTrajectory(t, newPath, []TrajectoryEntry{
		{Tool: "cohort-bench", ConfigKey: key, Workers: 1, StartedAt: "2026-02-01T00:00:00Z", WallSeconds: 2},
	})
	var out bytes.Buffer
	if err := run([]string{"-speedup", basePath + "," + newPath}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "5.00x") {
		t.Errorf("expected 5.00x speedup (best 10 -> 2):\n%s", out.String())
	}
	// key2 exists only in the base file: rendered, with no ratio.
	if !strings.Contains(out.String(), obs.ShortKey(key2)) {
		t.Errorf("base-only config dropped from the comparison:\n%s", out.String())
	}
}

func TestSpeedupRejectsBadArgs(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-speedup", "only-one.json"}, &out); err == nil {
		t.Fatal("-speedup with one file must fail")
	}
	if err := run([]string{"-speedup", "a.json,b.json,c.json"}, &out); err == nil {
		t.Fatal("-speedup with three files must fail")
	}
	missing := filepath.Join(t.TempDir(), "nope.json")
	if err := run([]string{"-speedup", missing + "," + missing}, &out); err == nil {
		t.Fatal("-speedup with missing files must fail")
	}
}
