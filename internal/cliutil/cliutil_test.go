package cliutil

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagMatrix parses the flag vectors the three shipping tools accept
// (cohort-sim registers obs+profile, cohort-bench and cohort-opt all three
// groups) and checks every value lands in the right field with the right
// default. The matrix pins the shared-surface contract: same flag names,
// same defaults, same semantics, whichever tool registers them.
func TestFlagMatrix(t *testing.T) {
	type groups struct{ work, obs, profile bool }
	cases := []struct {
		tool string
		reg  groups
		args []string
		want Common
	}{
		{
			tool: "cohort-sim",
			reg:  groups{obs: true, profile: true},
			args: []string{"-out-dir", "art", "-cpuprofile", "cpu.out"},
			want: Common{OutDir: "art", CPUProfile: "cpu.out"},
		},
		{
			tool: "cohort-bench",
			reg:  groups{work: true, obs: true, profile: true},
			args: []string{"-j", "4", "-memprofile", "mem.out"},
			want: Common{Jobs: 4, MemProfile: "mem.out"},
		},
		{
			tool: "cohort-opt",
			reg:  groups{work: true, obs: true, profile: true},
			args: nil, // defaults only
			want: Common{},
		},
		{
			tool: "cohort-opt",
			reg:  groups{work: true, obs: true, profile: true},
			args: []string{"-j", "1", "-out-dir", "art"},
			want: Common{Jobs: 1, OutDir: "art"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.tool, func(t *testing.T) {
			c := New(tc.tool)
			fs := flag.NewFlagSet(tc.tool, flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			if tc.reg.work {
				c.RegisterWork(fs)
			}
			if tc.reg.obs {
				c.RegisterObs(fs)
			}
			if tc.reg.profile {
				c.RegisterProfile(fs)
			}
			if err := fs.Parse(tc.args); err != nil {
				t.Fatalf("parse %v: %v", tc.args, err)
			}
			tc.want.Tool = tc.tool
			if *c != tc.want {
				t.Errorf("parsed %v:\n got  %+v\n want %+v", tc.args, *c, tc.want)
			}
		})
	}

	// A group that was not registered must reject its flags: cohort-sim has
	// no worker pool, so -j there is a usage error, not a silent no-op.
	c := New("cohort-sim")
	fs := flag.NewFlagSet("cohort-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.RegisterObs(fs)
	if err := fs.Parse([]string{"-j", "4"}); err == nil {
		t.Errorf("unregistered -j parsed without error")
	}
}

// TestStartProfilesErrors: an uncreatable -cpuprofile fails startup; an
// uncreatable -memprofile is one tool-prefixed stderr line at stop, without
// failing the run (results are already out); the success path writes both
// files.
func TestStartProfilesErrors(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "no", "such", "dir")

	c := New("cohort-test")
	c.CPUProfile = filepath.Join(missing, "cpu.out")
	var stderr bytes.Buffer
	if stop, err := c.StartProfiles(&stderr); err == nil {
		stop()
		t.Fatal("StartProfiles created a CPU profile in a missing directory")
	}

	c = New("cohort-test")
	c.MemProfile = filepath.Join(missing, "mem.out")
	stderr.Reset()
	stop, err := c.StartProfiles(&stderr)
	if err != nil {
		t.Fatalf("StartProfiles with only -memprofile: %v", err)
	}
	stop()
	if got := stderr.String(); !strings.HasPrefix(got, "cohort-test: memprofile: open "+c.MemProfile) ||
		strings.Count(got, "\n") != 1 || !strings.HasSuffix(got, "\n") {
		t.Errorf("memprofile creation failure printed %q, want one cohort-test: memprofile: line", got)
	}

	c = New("cohort-test")
	c.CPUProfile = filepath.Join(dir, "cpu.out")
	c.MemProfile = filepath.Join(dir, "mem.out")
	stderr.Reset()
	stop, err = c.StartProfiles(&stderr)
	if err != nil {
		t.Fatalf("StartProfiles: %v", err)
	}
	stop()
	for _, p := range []string{c.CPUProfile, c.MemProfile} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile %s not written: %v", p, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	if stderr.Len() != 0 {
		t.Errorf("successful profile run printed errors: %q", stderr.String())
	}

	// No profile flags: the stop func must still be non-nil and harmless.
	c = New("cohort-test")
	stop, err = c.StartProfiles(&stderr)
	if err != nil || stop == nil {
		t.Fatalf("StartProfiles without flags: err=%v, stop nil=%v; want non-nil no-op", err, stop == nil)
	}
	stop()
}
