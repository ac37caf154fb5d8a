package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags drives the CLI with flag values no analysis can
// use. Each exits 2, names the flag on stderr and writes nothing to stdout
// — a bad -deadlines included, which is checked before any analysis is
// printed; none may panic.
func TestRunRejectsBadFlags(t *testing.T) {
	tests := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"zero cores", []string{"-cores", "0"}, "-cores"},
		{"too many cores", []string{"-cores", "65"}, "-cores must be in [1, 64], got 65"},
		{"negative levels", []string{"-levels", "-3"}, "-levels"},
		{"zero levels", []string{"-levels", "0"}, "-levels"},
		{"zero scale", []string{"-scale", "0"}, "-scale"},
		{"negative scale", []string{"-scale", "-1"}, "-scale"},
		{"NaN scale", []string{"-scale", "NaN"}, "-scale: scale NaN is not finite and positive"},
		{"infinite scale", []string{"-scale", "+Inf"}, "-scale: scale +Inf is not finite and positive"},
		{"overflowing scale", []string{"-scale", "1e30"}, "-scale: scale 1e+30 overflows fft's access count"},
		{"levels above the maximum", []string{"-levels", "16"}, "-levels must be in [1, 15], got 16"},
		{"huge levels", []string{"-levels", "1000000000"}, "-levels must be in [1, 15]"},
		{"unparsable timer", []string{"-timers", "x"}, "-timers: bad timer"},
		{"timer out of range", []string{"-timers", "300,20,20,70000"}, "-timers: timer 70000"},
		{"timer count", []string{"-timers", "300,20"}, "-timers has 2 values for 4 cores"},
		{"unparsable deadline", []string{"-deadlines", "x"}, "-deadlines: bad deadline"},
		{"negative deadline", []string{"-deadlines", "0,-1,0,0"}, "-deadlines: bad deadline"},
		{"deadline count", []string{"-deadlines", "100,0"}, "-deadlines has 2 values for 4 cores"},
		{"unknown benchmark", []string{"-bench", "nosuch"}, "-bench"},
		{"undefined flag", []string{"-nosuchflag"}, "-nosuchflag"},
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

// TestRunReportsAnalysis runs the full report — bounds, sweep,
// schedulability and hardware bill — and checks each section is there.
func TestRunReportsAnalysis(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-bench", "lu", "-scale", "0.01", "-timers", "100,100,-1,-1", "-deadlines", "200000,0,0,0", "-sweep", "-levels", "2"}
	if got := run(args, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d; stderr:\n%s", got, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"workload lu", "per-core analysis", "θ_is saturation sweep:", "schedulability:", "task set"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}
