package cliutil

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cohort/internal/obs"
)

func testLogger(t *testing.T, buf *bytes.Buffer, c *Common) *obs.Logger {
	t.Helper()
	log, err := c.Logger(buf, obs.ManualClock{T: time.Unix(0, 0).UTC()})
	if err != nil {
		t.Fatalf("Logger: %v", err)
	}
	return log
}

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
			args: []string{"-out-dir", "art", "-listen", ":0", "-cpuprofile", "cpu.out"},
			want: Common{OutDir: "art", Listen: ":0", LogLevel: "info", CPUProfile: "cpu.out"},
		},
		{
			tool: "cohort-bench",
			reg:  groups{work: true, obs: true, profile: true},
			args: []string{"-j", "4", "-log-level", "debug", "-log-json", "-memprofile", "mem.out"},
			want: Common{Jobs: 4, LogLevel: "debug", LogJSON: true, MemProfile: "mem.out"},
		},
		{
			tool: "cohort-opt",
			reg:  groups{work: true, obs: true, profile: true},
			args: nil, // defaults only
			want: Common{LogLevel: "info"},
		},
		{
			tool: "cohort-opt",
			reg:  groups{work: true, obs: true, profile: true},
			args: []string{"-j", "1", "-out-dir", "art", "-log-level", "off"},
			want: Common{Jobs: 1, OutDir: "art", LogLevel: "off"},
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

// TestStartServerLifecycle covers the -listen path end to end: the server
// starts, logs its bound address, serves, and Close tears it down.
func TestStartServerLifecycle(t *testing.T) {
	c := New("cohort-test")
	c.Listen = "127.0.0.1:0"
	c.LogLevel = "info"
	var buf bytes.Buffer
	log := testLogger(t, &buf, c)

	srv, err := c.StartServer(nil, nil, log)
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	if srv == nil {
		t.Fatal("StartServer returned nil server for a set -listen")
	}
	defer srv.Close()

	if !strings.Contains(buf.String(), srv.Addr()) {
		t.Errorf("bound address %q not logged in %q", srv.Addr(), buf.String())
	}
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d", resp.StatusCode)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		t.Errorf("server still serving after Close")
	}
}

// TestStartServerDisabled: without -listen the accessor returns (nil, nil)
// and the nil server's Close stays a safe no-op, so tools can defer
// unconditionally.
func TestStartServerDisabled(t *testing.T) {
	c := New("cohort-test")
	var buf bytes.Buffer
	log := testLogger(t, &buf, c)
	srv, err := c.StartServer(nil, nil, log)
	if err != nil || srv != nil {
		t.Fatalf("StartServer without -listen = (%v, %v), want (nil, nil)", srv, err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("nil server Close: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("disabled server logged %q", buf.String())
	}
}

// TestStartServerBadAddress: an unbindable address is a startup error the
// tool reports, not a silent skip.
func TestStartServerBadAddress(t *testing.T) {
	c := New("cohort-test")
	c.Listen = "256.256.256.256:http"
	var buf bytes.Buffer
	log := testLogger(t, &buf, c)
	if srv, err := c.StartServer(nil, nil, log); err == nil {
		srv.Close()
		t.Fatal("StartServer bound an impossible address")
	}
}

// TestLoggerJSONInterplay: -log-json flips the logger's wire format while
// -log-level keeps gating it, and an unknown level is a startup error.
func TestLoggerJSONInterplay(t *testing.T) {
	c := New("cohort-test")
	c.LogLevel = "info"
	c.LogJSON = true
	var buf bytes.Buffer
	log := testLogger(t, &buf, c)
	log.Infof("hello %d", 7)
	line := strings.TrimSpace(buf.String())
	if !strings.HasPrefix(line, "{") || !strings.Contains(line, `"msg":"hello 7"`) {
		t.Errorf("-log-json line = %q, want JSON with msg field", line)
	}
	if !strings.Contains(line, `"tool":"cohort-test"`) {
		t.Errorf("JSON line %q missing tool attribution", line)
	}

	buf.Reset()
	c.LogJSON = false
	log = testLogger(t, &buf, c)
	log.Infof("hello %d", 7)
	if got := buf.String(); strings.HasPrefix(strings.TrimSpace(got), "{") {
		t.Errorf("text-mode line %q is JSON", got)
	}

	c.LogLevel = "verbose"
	if _, err := c.Logger(io.Discard, obs.WallClock{}); err == nil {
		t.Error("unknown -log-level accepted")
	}

	// Level gating applies in both formats.
	c.LogLevel = "error"
	c.LogJSON = true
	buf.Reset()
	log = testLogger(t, &buf, c)
	log.Infof("suppressed")
	if buf.Len() != 0 {
		t.Errorf("info line emitted at -log-level error: %q", buf.String())
	}
}

// TestStartProfilesErrors: an uncreatable -cpuprofile fails startup; an
// uncreatable -memprofile is logged at stop without failing the run (results
// are already out); the success path writes both files.
func TestStartProfilesErrors(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "no", "such", "dir")

	c := New("cohort-test")
	c.CPUProfile = filepath.Join(missing, "cpu.out")
	var buf bytes.Buffer
	log := testLogger(t, &buf, c)
	if stop, err := c.StartProfiles(log); err == nil {
		stop()
		t.Fatal("StartProfiles created a CPU profile in a missing directory")
	}

	c = New("cohort-test")
	c.MemProfile = filepath.Join(missing, "mem.out")
	buf.Reset()
	log = testLogger(t, &buf, c)
	stop, err := c.StartProfiles(log)
	if err != nil {
		t.Fatalf("StartProfiles with only -memprofile: %v", err)
	}
	stop()
	if !strings.Contains(buf.String(), "memprofile") {
		t.Errorf("memprofile creation failure not logged: %q", buf.String())
	}

	c = New("cohort-test")
	c.CPUProfile = filepath.Join(dir, "cpu.out")
	c.MemProfile = filepath.Join(dir, "mem.out")
	buf.Reset()
	log = testLogger(t, &buf, c)
	stop, err = c.StartProfiles(log)
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
	if buf.Len() != 0 {
		t.Errorf("successful profile run logged errors: %q", buf.String())
	}

	// No profile flags: the stop func must still be non-nil and harmless.
	c = New("cohort-test")
	stop, err = c.StartProfiles(testLogger(t, &buf, c))
	if err != nil || stop == nil {
		t.Fatalf("StartProfiles without flags: err=%v, stop nil=%v; want non-nil no-op", err, stop == nil)
	}
	stop()
}
