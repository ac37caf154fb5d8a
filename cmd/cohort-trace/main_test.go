package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cohort"
)

// TestRunRejectsBadDimensions checks that every dimension flag is validated
// where it enters: exit 2, an error naming the flag, nothing on stdout and
// no panic.
func TestRunRejectsBadDimensions(t *testing.T) {
	tests := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"zero cores", []string{"-cores", "0"}, "-cores"},
		{"negative cores", []string{"-cores", "-2"}, "-cores"},
		{"too many cores", []string{"-cores", "65"}, "-cores must be in [1, 64], got 65"},
		{"zero line", []string{"-line", "0"}, "-line"},
		{"line not a power of two", []string{"-line", "3"}, "-line"},
		{"negative line", []string{"-line", "-64"}, "-line"},
		{"zero scale", []string{"-scale", "0"}, "-scale"},
		{"negative scale", []string{"-scale", "-1"}, "-scale"},
		{"NaN scale", []string{"-scale", "NaN"}, "-scale: scale NaN is not finite and positive"},
		{"infinite scale", []string{"-scale", "+Inf"}, "-scale: scale +Inf is not finite and positive"},
		{"overflowing scale", []string{"-scale", "1e30"}, "-scale: scale 1e+30 overflows fft's access count"},
		{"footprint past its region at the line size", []string{"-scale", "2000", "-line", "128"}, "-scale: scale 2000 gives fft 640000 private lines, more than the 524288 its region holds at 128-byte lines"},
		{"unknown profile", []string{"-bench", "nosuch"}, "nosuch"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(append(tt.args, "-summary"), &stdout, &stderr); got != 2 {
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

// TestRunWritesBinaryTrace writes a binary trace file and decodes it back
// to the generated trace.
func TestRunWritesBinaryTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fft.ctrb")
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-bench", "fft", "-cores", "2", "-scale", "0.01", "-seed", "7", "-binary", "-out", out}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d; stderr:\n%s", got, stderr.String())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := cohort.ParseBinaryTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cohort.ProfileByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	if want := p.Scaled(0.01).Generate(2, 64, 7); !reflect.DeepEqual(got, want) {
		t.Fatal("the written trace differs from the generated one")
	}
}
