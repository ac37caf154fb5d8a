package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cohort/internal/obs"
)

var testClock = obs.ManualClock{T: time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)}

func simOutput(measured, bound string) []byte {
	var b strings.Builder
	b.WriteString("run: 1000 cycles, bus 50.0% busy, 10 transactions\n")
	for i := 0; i < nCores; i++ {
		fmt.Fprintf(&b, "  core %d (θ=MSI(-1)): measured %s, bound %s, guaranteed hits 0 (achieved 1)\n", i, measured, bound)
	}
	return []byte(b.String())
}

func TestCorruptedDigestFailsEveryInvocation(t *testing.T) {
	w, err := workloadByName("sim-ocean")
	if err != nil {
		t.Fatal(err)
	}
	out := simOutput("10", "20")
	want := make([]string, len(w.sims))
	for i := range want {
		want[i] = digest(out)
		want[i] = want[i][:len(want[i])-1] + "x"
	}
	wr := newWorkloadRun(w, 42, want)
	rep := repetition{setupS: 0.1}
	for range w.sims {
		rep.inv = append(rep.inv, childResult{wall: 1, stdout: out})
	}
	wr.record(0, rep, false)
	wr.record(1, rep, true)
	res := wr.result()
	if res.Attempted != 2*len(w.sims) || res.Failed != res.Attempted {
		t.Errorf("attempted %d, failed %d: want every invocation failed", res.Attempted, res.Failed)
	}
	if got := res.EndToEnd["failed_frac"].Median; got != 1 {
		t.Errorf("failed_frac = %v, want 1", got)
	}
}

func TestUnseenSeedMustAgreeWithFirstRepetition(t *testing.T) {
	w, _ := workloadByName("fig5a-paper")
	c := newChecker(w.invocations(9), nil)
	c.check(0, 0, childResult{stdout: []byte("first")})
	c.check(1, 0, childResult{stdout: []byte("first")})
	c.check(2, 0, childResult{stdout: []byte("second")})
	if c.attempted != 3 || c.failed != 1 {
		t.Errorf("attempted %d, failed %d; want 3, 1", c.attempted, c.failed)
	}
}

func TestOutputChecks(t *testing.T) {
	sim := invocation{tool: "cohort-sim"}
	for _, c := range []struct {
		name string
		inv  invocation
		res  childResult
		fail bool
	}{
		{"sound bounds", sim, childResult{stdout: simOutput("10", "20")}, false},
		{"unbounded", sim, childResult{stdout: simOutput("10", "unbounded")}, false},
		{"bound below measured WCML", sim, childResult{stdout: simOutput("30", "20")}, true},
		{"missing rows", sim, childResult{stdout: []byte("run: 5 cycles\n")}, true},
		{"process failed", sim, childResult{err: errors.New("exit status 1"), stdout: simOutput("10", "20")}, true},
		{"timed out", invocation{tool: "cohort-bench"}, childResult{err: errors.New("killed after the timeout")}, true},
	} {
		ch := newChecker([]invocation{c.inv}, nil)
		ch.check(0, 0, c.res)
		if got := ch.failed == 1; got != c.fail {
			t.Errorf("%s: failed = %v, want %v", c.name, got, c.fail)
		}
	}
}

func TestRepetitionMetrics(t *testing.T) {
	w, _ := workloadByName("sim-ocean")
	wr := newWorkloadRun(w, 1, nil)
	rep := repetition{setupS: 0.2}
	for i := range w.sims {
		rep.inv = append(rep.inv, childResult{wall: 0.5, cpu: 0.6, rssMB: float64(100 + i), stdout: simOutput("10", "20")})
	}
	wr.record(0, rep, false)
	wr.record(1, rep, true)
	res := wr.result()
	for name, want := range map[string]float64{
		"wall_s": 2, "cpu_s": 2.4, "setup_s": 0.2, "peak_rss_mb": 103,
		"sim_mcycles_per_s": 4 * 1000 / 1e6 / 2, "failed_frac": 0,
	} {
		if got := res.EndToEnd[name]; !near(got.Median, want) || got.Unit == "" {
			t.Errorf("%s = %v %q, want %v", name, got.Median, got.Unit, want)
		}
	}
	if n := res.EndToEnd["wall_s"].N; n != 1 {
		t.Errorf("wall_s has %d samples; the warm-up repetition must not count", n)
	}
}

func TestRunChild(t *testing.T) {
	r := &runner{clk: testClock}
	dir := t.TempDir()
	ok := r.run(dir, "/bin/sh", "-c", `echo "$HOME"`)
	if ok.err != nil || strings.TrimSpace(string(ok.stdout)) != dir {
		t.Errorf("child saw HOME %q (err %v), want its own directory %q", ok.stdout, ok.err, dir)
	}
	if bad := r.run(dir, "/bin/sh", "-c", "echo oops >&2; exit 3"); bad.err == nil || !strings.Contains(bad.err.Error(), "oops") {
		t.Errorf("failing child: err %v", bad.err)
	}
}
