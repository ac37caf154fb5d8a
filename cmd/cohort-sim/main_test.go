package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cohort"
)

// writeTraces writes one small generated trace to dir in the text and the
// binary format and returns the two paths.
func writeTraces(t *testing.T, dir string) (text, bin string) {
	t.Helper()
	p, err := cohort.ProfileByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	tr := p.Scaled(0.02).Generate(4, 64, 42)
	var tb, bb bytes.Buffer
	if err := tr.Write(&tb); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteBinary(&bb); err != nil {
		t.Fatal(err)
	}
	text, bin = filepath.Join(dir, "radix.trace"), filepath.Join(dir, "radix.ctrb")
	if err := os.WriteFile(text, tb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bin, bb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return text, bin
}

// TestRunRejectsBadInput drives the CLI with flags and inputs no simulation
// can use. A bad flag value exits 2 and names the flag; an input that
// cannot be read exits 1. None may panic.
func TestRunRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	_, bin := writeTraces(t, dir)
	enc, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.ctrb")
	if err := os.WriteFile(truncated, enc[:len(enc)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name     string
		args     []string
		wantExit int
		wantErr  string
	}{
		{"zero cores", []string{"-cores", "0"}, 2, "-cores"},
		{"negative levels", []string{"-levels", "-3"}, 2, "-levels"},
		{"crit without pendulum", []string{"-crit", "1,1,0,0"}, 2, "-crit"},
		{"crit with pcc", []string{"-system", "pcc", "-crit", "1,0,0,0"}, 2, "-crit"},
		{"zero scale", []string{"-scale", "0"}, 2, "-scale"},
		{"unknown system", []string{"-system", "mesif"}, 2, "-system"},
		{"timer count", []string{"-timers", "300,20"}, 2, "-timers"},
		{"bad switch", []string{"-levels", "2", "-switch", "100"}, 2, "-switch"},
		{"switch mode out of range", []string{"-levels", "2", "-switch", "100:3"}, 2, "-switch"},
		{"undefined flag", []string{"-nosuchflag"}, 2, "-nosuchflag"},
		{"missing file", []string{"-trace", filepath.Join(dir, "missing.ctrb")}, 1, "missing.ctrb"},
		{"truncated binary trace", []string{"-trace", truncated}, 1, "unexpected EOF"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tt.args, &stdout, &stderr); got != tt.wantExit {
				t.Fatalf("exit %d, want %d; stderr:\n%s", got, tt.wantExit, stderr.String())
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

// TestTraceFormatsPrintSameReport runs one platform on a trace in its text
// and its binary form: the two reports must be byte-identical, since both
// decode to the same trace.
func TestTraceFormatsPrintSameReport(t *testing.T) {
	text, bin := writeTraces(t, t.TempDir())
	report := func(path string) string {
		var stdout, stderr bytes.Buffer
		args := []string{"-trace", path, "-nonperfect", "-levels", "2", "-timers", "300,20,20,20", "-switch", "20000:2", "-check"}
		if got := run(args, &stdout, &stderr); got != 0 {
			t.Fatalf("%s: exit %d; stderr:\n%s", path, got, stderr.String())
		}
		return stdout.String()
	}
	textOut, binOut := report(text), report(bin)
	if textOut != binOut {
		t.Fatalf("text and binary traces printed different reports:\n--- text\n%s--- binary\n%s", textOut, binOut)
	}
	if !strings.HasPrefix(binOut, "workload radix on cohort (4 cores") {
		t.Fatalf("unexpected report:\n%s", binOut)
	}
}
