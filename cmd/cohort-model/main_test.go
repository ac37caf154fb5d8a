package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cohort/internal/cliutil"
	"cohort/internal/model"
)

// smoke3 is the three-core preset check.sh and CI explore through -config.
var smoke3 = filepath.Join("..", "..", "internal", "model", "testdata", "smoke3.json")

// TestRun drives the CLI through its scenarios: a clean exploration or
// replay exits 0, a violation or a failed run exits 1, and a bad flag
// exits 2 and names the flag before any work, so it prints no report.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	cex := filepath.Join(dir, "cex.txt")
	if got := run([]string{"-smoke", "-q", "-mutate", "timer-release-skew", "-out", cex}, io.Discard, io.Discard); got != 1 {
		t.Fatalf("writing the counterexample: exit %d, want 1", got)
	}
	written := filepath.Join(dir, "written.txt")
	tests := []struct {
		name       string
		args       []string
		wantExit   int
		wantStdout string
		wantStderr string
	}{
		{"help", []string{"-h"}, 0, "", "-smoke"},
		{"smoke at depth 1", []string{"-smoke", "-depth", "1"}, 0,
			"cohort-model: 17 states, 506 runs, depth 1\ncohort-model: no violations\n", "depth 1 done"},
		{"replay without the fault", []string{"-replay", cex}, 0, "replay clean (no violation)", ""},
		{"seeded fault", []string{"-smoke", "-q", "-mutate", "timer-release-skew", "-out", written}, 1,
			"VIOLATION [timer-protection]", "timer-protection violation"},
		{"replay with the fault", []string{"-replay", cex, "-mutate", "timer-release-skew"}, 1,
			"VIOLATION [timer-protection]", "timer-protection violation"},
		{"missing config file", []string{"-config", filepath.Join(dir, "missing.json")}, 1, "", "missing.json"},
		{"undefined flag", []string{"-nosuchflag"}, 2, "", "-nosuchflag"},
		{"smoke and config", []string{"-smoke", "-config", smoke3}, 2, "", "-smoke and -config are mutually exclusive"},
		{"neither smoke nor config", nil, 2, "", "need -smoke, -config or -replay"},
		{"bad lines", []string{"-config", smoke3, "-lines", "0x1000,0xzz"}, 2, "", `-lines: bad entry "0xzz"`},
		{"lines without config", []string{"-smoke", "-lines", "0x1000,0x1000"}, 2, "", "-lines needs -config"},
		{"chrome without replay", []string{"-smoke", "-chrome", filepath.Join(dir, "cex.json")}, 2, "", "-chrome needs -replay"},
		{"bad gaps", []string{"-smoke", "-gaps", "0,x"}, 2, "", `-gaps: bad entry "x"`},
		{"negative gap", []string{"-smoke", "-gaps", "0,-3"}, 2, "", "gap menu entry -3"},
		{"gap that fakes a livelock", []string{"-smoke", "-gaps", "20000000", "-depth", "1"}, 2, "",
			"gap menu entry 20000000 outside [0, 546)"},
		{"bad offsets", []string{"-smoke", "-offsets", "1.5"}, 2, "", `-offsets: bad entry "1.5"`},
		{"offset that overflows the stride", []string{"-smoke", "-offsets", "9223372036854775000"}, 2, "",
			"race-offset menu entry 9223372036854775000 outside [0, 65535]"},
		{"unknown mutation", []string{"-smoke", "-mutate", "flip-bits"}, 2, "", `-mutate: unknown fault "flip-bits"`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tt.args, &stdout, &stderr); got != tt.wantExit {
				t.Fatalf("exit %d, want %d; stderr:\n%s", got, tt.wantExit, stderr.String())
			}
			if !strings.Contains(stdout.String(), tt.wantStdout) || (tt.wantStdout == "" && stdout.Len() != 0) {
				t.Errorf("stdout does not hold %q:\n%s", tt.wantStdout, stdout.String())
			}
			if !strings.Contains(stderr.String(), tt.wantStderr) {
				t.Errorf("stderr does not name %q:\n%s", tt.wantStderr, stderr.String())
			}
		})
	}
	if _, err := os.Stat(written); err != nil {
		t.Errorf("the seeded fault wrote no counterexample: %v", err)
	}
}

// FuzzListFlags feeds one string to the -lines, -gaps and -offsets
// parsers, and each accepted menu to the checker. None may panic, each
// rejection must be a usage error (exit 2) naming its flag, and each
// accepted list must have one entry per comma-separated field.
func FuzzListFlags(f *testing.F) {
	for _, s := range []string{"0x1000", "0x1000,0x2000", "0,1,2,3,4", "-1", "9223372036854775000", "545", "546", "", ",", " 4 , 5", "0x", "18446744073709551616"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		accepted := func(flag string, n int, err error) bool {
			if err != nil {
				if got := cliutil.Status("cohort-model", err, io.Discard); got != 2 || !strings.Contains(err.Error(), flag) {
					t.Fatalf("%s %q: exit %d for %v, want 2 naming the flag", flag, s, got, err)
				}
				return false
			}
			if n != strings.Count(s, ",")+1 {
				t.Fatalf("%s %q: %d entries", flag, s, n)
			}
			return true
		}
		addrs, err := parseList("-lines", s, strconv.ParseUint)
		accepted("-lines", len(addrs), err)
		cfg := model.Smoke(1)
		if gaps, err := parseList("-gaps", s, strconv.ParseInt); accepted("-gaps", len(gaps), err) {
			cfg.PostGaps = gaps
		}
		if offsets, err := parseList("-offsets", s, strconv.ParseInt); accepted("-offsets", len(offsets), err) {
			cfg.RaceOffsets = offsets
		}
		// The checker may refuse the menus, but a menu it takes must leave
		// a window stride the schedule can use.
		if c, err := model.New(cfg); err == nil && c.EmptyScript().Stride < 1 {
			t.Fatalf("menus %q accepted with stride %d", s, c.EmptyScript().Stride)
		}
	})
}
