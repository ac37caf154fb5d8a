package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestRun drives the CLI through its exit codes: 0 when clean, 1 when a
// baseline entry no longer fires, 2 for a bad flag or a pattern that matches
// no contract package. Each case that loads packages type-checks one small
// package and its dependencies.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	staleKey := "maprange\tinternal/sched/made_up.go\tmade-up finding"
	stale := filepath.Join(dir, "stale.baseline")
	empty := filepath.Join(dir, "empty.baseline")
	if err := os.WriteFile(stale, []byte(staleKey+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		args   []string
		code   int
		names  []string // when set, the first field of each stdout line
		stdout string   // substring stdout must hold
		stderr string   // substring stderr must hold
	}{
		{name: "list", args: []string{"-list"}, code: 0, names: []string{
			"maprange", "walltime", "globalrand", "eventgoroutine", "floataccum", "exhaustive",
			"allowdoc", "hotalloc", "reachcontract", "parallelpure", "lockorder",
		}},
		{name: "only is not a flag", args: []string{"-only", "lockorder"}, code: 2,
			stderr: "flag provided but not defined: -only"},
		{name: "write-baseline alone", args: []string{"-write-baseline"}, code: 2,
			stderr: "-write-baseline requires -baseline"},
		{name: "stale baseline entry", args: []string{"-baseline", stale, "cohort/internal/sched"}, code: 1,
			stdout: "stale baseline entry (finding no longer fires — prune with -write-baseline): " + strconv.Quote(staleKey),
			stderr: "1 violation(s)"},
		{name: "empty baseline", args: []string{"-baseline", empty, "cohort/internal/sched"}, code: 0,
			stdout: "cohort-vet: ok (1 packages, 1 contract packages, 11 analyzers)"},
		{name: "no contract package", args: []string{"cohort/internal/hwcost"}, code: 2,
			stderr: "no contract packages matched [cohort/internal/hwcost]"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tt.args, &stdout, &stderr); got != tt.code {
				t.Fatalf("exit %d, want %d; stdout:\n%s\nstderr:\n%s", got, tt.code, stdout.String(), stderr.String())
			}
			if tt.names != nil {
				var names []string
				for _, line := range strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n") {
					names = append(names, strings.Fields(line)[0])
				}
				if !slices.Equal(names, tt.names) {
					t.Errorf("listed %v, want %v", names, tt.names)
				}
			}
			if !strings.Contains(stdout.String(), tt.stdout) {
				t.Errorf("stdout does not hold %q:\n%s", tt.stdout, stdout.String())
			}
			if !strings.Contains(stderr.String(), tt.stderr) {
				t.Errorf("stderr does not hold %q:\n%s", tt.stderr, stderr.String())
			}
		})
	}
}
