package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cohort/internal/cliutil"
	"cohort/internal/experiments"
	"cohort/internal/obs"
)

// testClock is the fixed clock injected into every test run: manifests must
// be byte-reproducible, and nothing else in the CLI reads wall time.
var testClock = obs.ManualClock{T: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}

// update regenerates the golden files: go test ./cmd/cohort-bench -update
var update = flag.Bool("update", false, "rewrite golden files")

// quickArgs keeps the golden runs at test sizing (two benchmarks, small GA).
func quickArgs(extra ...string) []string {
	args := []string{
		"-scale", "0.01", "-cap", "800", "-benches", "fft,water",
		"-pop", "8", "-gens", "6",
	}
	return append(args, extra...)
}

// TestGolden locks the rendered text tables at the byte level: a
// parallelization regression that reorders rows or cells shows up as a
// golden-file diff. Each experiment is rendered twice — serial (-j 1) and
// parallel (-j 8) — and both must match the golden byte for byte.
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"table1", []string{"-run", "table1"}},
		{"fig5a", quickArgs("-run", "fig5a")},
		{"fig6a", quickArgs("-run", "fig6a")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			experiments.ResetMemo()
			var serial bytes.Buffer
			if err := run(append(tc.args, "-j", "1"), &serial, io.Discard, testClock); err != nil {
				t.Fatalf("run -j 1: %v", err)
			}
			experiments.ResetMemo()
			var par bytes.Buffer
			if err := run(append(tc.args, "-j", "8"), &par, io.Discard, testClock); err != nil {
				t.Fatalf("run -j 8: %v", err)
			}
			if !bytes.Equal(serial.Bytes(), par.Bytes()) {
				t.Fatalf("-j 1 and -j 8 output differ:\n--- j1 ---\n%s\n--- j8 ---\n%s", serial.Bytes(), par.Bytes())
			}

			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, serial.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(serial.Bytes(), want) {
				t.Errorf("output differs from %s (re-run with -update if the change is intended):\n--- got ---\n%s\n--- want ---\n%s",
					golden, serial.Bytes(), want)
			}
		})
	}
}

// TestRunRejectsUnknownExperiment covers the CLI's selector validation.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "fig9z"}, &out, io.Discard, testClock); err == nil {
		t.Fatal("expected an error for an unknown experiment name")
	}
}

// TestRunValidatesFlags drives main's exit path with flag values no
// experiment can use: each exits 2 before any work, names the flag on
// stderr and writes nothing to stdout. -cap 0 means no cap and runs, and
// benchmark names are trimmed. The removed live-observability flags
// (-listen, -log-level, -log-json) fail as any undefined flag does.
func TestRunValidatesFlags(t *testing.T) {
	tests := []struct {
		name    string
		args    []string
		want    int
		wantErr string
	}{
		{"zero scale", []string{"-scale", "0"}, 2, "-scale"},
		{"negative scale", []string{"-scale", "-1"}, 2, "-scale"},
		{"NaN scale", []string{"-scale", "NaN"}, 2, "-scale"},
		{"infinite scale", []string{"-scale", "+Inf"}, 2, "-scale: scale +Inf is not finite and positive"},
		{"overflowing scale", []string{"-scale", "1e30"}, 2, "-scale: scale 1e+30 overflows"},
		{"footprint past its region", []string{"-scale", "2000"}, 2, "-scale: scale 2000 gives ocean 1280000 private lines"},
		{"negative cap", []string{"-cap", "-5"}, 2, "-cap"},
		{"population of one", []string{"-pop", "1"}, 2, "-pop"},
		{"population within the elite", []string{"-pop", "2"}, 2, "-pop"},
		{"zero generations", []string{"-gens", "0"}, 2, "-gens"},
		{"unknown experiment in a list", []string{"-run", "fig5a,fig9z"}, 2, "-run"},
		{"unknown benchmark in a list", []string{"-benches", "fft,nope"}, 2, `-benches: unknown benchmark "nope" (known: fft,`},
		{"empty benchmark in a list", []string{"-benches", "fft,,lu"}, 2, `-benches: unknown benchmark ""`},
		{"unknown benchmark", []string{"-bench", "nope"}, 2, `-bench: unknown benchmark "nope"`},
		{"spaced benchmark list", []string{"-benches", "fft, lu", "-bench", " lu"}, 0, ""},
		{"bad log level", []string{"-log-level", "loud"}, 2, "-log-level"},
		{"removed log-level flag", []string{"-log-level", "off"}, 2, "-log-level"},
		{"removed listen flag", []string{"-listen", "256.0.0.1:0"}, 2, "-listen"},
		{"undefined flag", []string{"-nosuchflag"}, 2, "-nosuchflag"},
		{"no cap", []string{"-cap", "0"}, 0, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			// table1 needs no simulation, so a flag that slips through
			// finishes at once with exit 0 instead of running the suite.
			err := run(append([]string{"-run", "table1"}, tt.args...), &stdout, &stderr, testClock)
			if got := cliutil.Status("cohort-bench", err, &stderr); got != tt.want {
				t.Fatalf("exit %d, want %d; stderr:\n%s", got, tt.want, stderr.String())
			}
			if !strings.Contains(stderr.String(), tt.wantErr) {
				t.Errorf("stderr does not name %q:\n%s", tt.wantErr, stderr.String())
			}
			if (stdout.Len() == 0) != (tt.want != 0) {
				t.Errorf("exit %d with %d bytes of stdout:\n%s", tt.want, stdout.Len(), stdout.String())
			}
		})
	}
}

// TestManifestAndTraceWritten drives the -out-dir path end to end: the run
// must leave a schema-valid manifest and a Chrome trace in the directory,
// name both in its one stderr line, and the manifest's metrics snapshot
// must be byte-identical between -j 1 and -j 8 (the config key is shared,
// only the file's j suffix differs).
func TestManifestAndTraceWritten(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(jobs string) *obs.Manifest {
		t.Helper()
		experiments.ResetMemo()
		var out, stderr bytes.Buffer
		if err := run(quickArgs("-run", "fig5a", "-j", jobs, "-out-dir", dir), &out, &stderr, testClock); err != nil {
			t.Fatalf("run -j %s: %v", jobs, err)
		}
		paths, err := filepath.Glob(filepath.Join(dir, "*-j"+jobs+".manifest.json"))
		if err != nil || len(paths) != 1 {
			t.Fatalf("manifests for -j %s: %v (err %v)", jobs, paths, err)
		}
		trace := strings.TrimSuffix(paths[0], ".manifest.json") + ".trace.json"
		if want := "cohort-bench: wrote " + paths[0] + " and " + trace + "\n"; stderr.String() != want {
			t.Errorf("-j %s stderr:\n%s\nwant:\n%s", jobs, stderr.String(), want)
		}
		ms, err := obs.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			if m.Workers == 1 && jobs == "1" || m.Workers == 8 && jobs == "8" {
				return m
			}
		}
		t.Fatalf("no manifest for -j %s in %v", jobs, ms)
		return nil
	}
	serial := runOnce("1")
	par := runOnce("8")

	if serial.Tool != "cohort-bench" {
		t.Errorf("tool = %q", serial.Tool)
	}
	if serial.ConfigKey != par.ConfigKey {
		t.Errorf("config keys differ across worker counts: %s vs %s", serial.ConfigKey, par.ConfigKey)
	}
	if len(serial.Traces) != 2 {
		t.Errorf("expected 2 trace refs (fft, water), got %+v", serial.Traces)
	}
	if serial.Engine == nil || serial.Engine.Jobs == 0 {
		t.Errorf("engine counters missing: %+v", serial.Engine)
	}
	sm, pm := serial.Metrics.JSON(), par.Metrics.JSON()
	if !bytes.Equal(sm, pm) {
		t.Errorf("manifest metrics differ across worker counts:\n--- j1 ---\n%s\n--- j8 ---\n%s", sm, pm)
	}
	if _, ok := serial.Metrics.Get("experiments_figures_total"); !ok {
		t.Errorf("metrics snapshot missing figure counter:\n%s", serial.Metrics.String())
	}

	traces, err := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	if err != nil || len(traces) == 0 {
		t.Fatalf("no chrome trace written (err %v)", err)
	}
	b, err := os.ReadFile(traces[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"traceEvents"`) || !strings.Contains(string(b), "fig5/all-cr") {
		t.Errorf("chrome trace missing expected content:\n%s", b)
	}
}

// TestPprofFlagsWriteProfiles exercises the satellite profiling flags.
func TestPprofFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	experiments.ResetMemo()
	var out bytes.Buffer
	if err := run(quickArgs("-run", "table1", "-cpuprofile", cpu, "-memprofile", mem), &out, io.Discard, testClock); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestAttributionExperiment drives -run attribution end to end: the rendered
// table and summary cover all three systems, and with -out-dir the manifest
// carries the decomposition rows (schema-validated by LoadDir).
func TestAttributionExperiment(t *testing.T) {
	dir := t.TempDir()
	experiments.ResetMemo()
	var out bytes.Buffer
	if err := run(quickArgs("-run", "attribution", "-benches", "fft", "-out-dir", dir), &out, io.Discard, testClock); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"WCML attribution", "CoHoRT", "PCC", "PENDULUM", "timer-protection stalls"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}

	ms, err := obs.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("manifests = %d", len(ms))
	}
	rows := ms[0].Attribution
	if len(rows) == 0 {
		t.Fatal("manifest has no attribution rows")
	}
	for _, r := range rows {
		if sum := r.Arbitration + r.TimerStall + r.Transfer + r.DRAM + r.HitCycles; sum != r.TotalLatency {
			t.Fatalf("row %+v violates the decomposition identity", r)
		}
	}
}
