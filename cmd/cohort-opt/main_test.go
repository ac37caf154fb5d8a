package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cohort/internal/obs"
)

// TestRunRejectsBadFlags drives the CLI with flag values no optimization
// can use. Each exits 2, names the flag on stderr and writes nothing to
// stdout; none may panic.
func TestRunRejectsBadFlags(t *testing.T) {
	tests := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"zero cores", []string{"-cores", "0"}, "-cores"},
		{"too many cores", []string{"-cores", "65"}, "-cores must be in [1, 64], got 65"},
		{"zero scale", []string{"-scale", "0"}, "-scale"},
		{"negative scale", []string{"-scale", "-1"}, "-scale"},
		{"NaN scale", []string{"-scale", "NaN"}, "-scale"},
		{"infinite scale", []string{"-scale", "+Inf"}, "-scale: scale +Inf is not finite and positive"},
		{"overflowing scale", []string{"-scale", "1e30"}, "-scale: scale 1e+30 overflows fft's access count"},
		{"population of one", []string{"-pop", "1"}, "-pop"},
		{"population within the elite", []string{"-pop", "2"}, "-pop"},
		{"zero generations", []string{"-gens", "0"}, "-gens"},
		{"unparsable gamma", []string{"-gamma", "x"}, "-gamma: bad requirement"},
		{"negative gamma", []string{"-gamma", "0,-5,0,0"}, "-gamma"},
		{"gamma count", []string{"-gamma", "0,0"}, "-gamma has 2 values for 4 cores"},
		{"bad mask value", []string{"-timed", "1,1,x,0"}, "-timed: bad mask value"},
		{"mask count", []string{"-timed", "1,0"}, "-timed has 2 values for 4 cores"},
		{"unknown benchmark", []string{"-bench", "nosuch"}, "-bench"},
		{"bad log level", []string{"-log-level", "loud"}, "-log-level"},
		{"undefined flag", []string{"-nosuchflag"}, "-nosuchflag"},
		{"removed log-json flag", []string{"-log-json"}, "-log-json"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tt.args, &stdout, &stderr); got != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", got, stderr.String())
			}
			if !strings.Contains(stderr.String(), tt.wantErr) {
				t.Errorf("stderr does not name %q:\n%s", tt.wantErr, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("rejected run wrote stdout:\n%s", stdout.String())
			}
		})
	}
}

// TestRunReportsOptimum runs a small optimization with a mask and
// requirements: it exits 0 and reports θ_is only for the timed cores.
func TestRunReportsOptimum(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-bench", "radix", "-scale", "0.01", "-timed", "1,1,0,0", "-gamma", "0,2000000,0,0", "-pop", "6", "-gens", "3", "-j", "1"}
	if got := run(args, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d; stderr:\n%s", got, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "workload radix: ") || strings.Count(out, "θ_is") != 2 {
		t.Fatalf("unexpected report:\n%s", out)
	}
}

// TestOutDirWritesManifestAndTrace runs one optimization plain and with
// -out-dir: stdout must not change, stderr must hold exactly the one line
// naming the manifest and the Chrome trace, and both files must load.
func TestOutDirWritesManifestAndTrace(t *testing.T) {
	args := []string{"-bench", "fft", "-scale", "0.01", "-pop", "6", "-gens", "3", "-j", "1"}
	var plain, plainErr bytes.Buffer
	if got := run(args, &plain, &plainErr); got != 0 || plainErr.Len() != 0 {
		t.Fatalf("plain run: exit %d; stderr:\n%s", got, plainErr.String())
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if got := run(append(args, "-out-dir", dir), &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d; stderr:\n%s", got, stderr.String())
	}
	if stdout.String() != plain.String() {
		t.Errorf("-out-dir changed stdout:\n--- plain\n%s--- with -out-dir\n%s", plain.String(), stdout.String())
	}
	ms, err := obs.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.manifest.json"))
	if err != nil || len(ms) != 1 || len(paths) != 1 || ms[0].Tool != "cohort-opt" {
		t.Fatalf("want one cohort-opt manifest, got %d (%v, err %v)", len(ms), paths, err)
	}
	trace := strings.TrimSuffix(paths[0], ".manifest.json") + ".trace.json"
	if want := "cohort-opt: wrote " + paths[0] + " and " + trace + "\n"; stderr.String() != want {
		t.Errorf("stderr:\n%s\nwant:\n%s", stderr.String(), want)
	}
	b, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"traceEvents"`) || !strings.Contains(string(b), "generation 0") {
		t.Errorf("chrome trace missing its generation spans:\n%.300s", b)
	}
}
