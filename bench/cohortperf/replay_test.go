package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cohort/internal/config"
	"cohort/internal/core"
	"cohort/internal/experiments"
)

// quickBenchWorkload replays Fig. 5a at experiments.QuickOptions() sizes.
var quickBenchWorkload = &workload{
	name: "quick-fig5a",
	options: func(seed uint64) experiments.Options {
		o := experiments.QuickOptions()
		o.Seed, o.Jobs, o.GA.Workers = seed, 1, 1
		return o
	},
}

// quickSimWorkload is a cohort-sim workload on a QuickOptions-sized trace,
// with a mode switch early enough to happen.
var quickSimWorkload = &workload{
	name: "quick-sim", profile: "fft", scale: 0.01, traceFile: "quick.ctrb",
	sims: []simSpec{
		{system: "cohort", timers: []config.Timer{300, 20, 20, -1}, levels: 2, switches: []modeSwitch{{500, 2}}},
		{system: "pendulum", levels: 1},
	},
}

// fig5Stdout is what `cohort-bench -run fig5a` prints for the options.
func fig5Stdout(t *testing.T, o experiments.Options) []byte {
	t.Helper()
	res, err := experiments.Fig5(o, "all-cr")
	if err != nil {
		t.Fatal(err)
	}
	return []byte(res.Render().String() + "\n" + res.Summary() + "\n\n")
}

// simStdouts simulates each platform of w directly, as cohort-sim does, and
// returns the run reports its stdout contains.
func simStdouts(t *testing.T, w *workload, seed uint64) [][]byte {
	t.Helper()
	tr, err := w.simTrace(seed)
	if err != nil {
		t.Fatal(err)
	}
	var outs [][]byte
	for _, s := range w.sims {
		cfg, err := s.config()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.New(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, sw := range s.switches {
			if err := sys.ScheduleModeSwitch(sw.at, sw.mode); err != nil {
				t.Fatal(err)
			}
		}
		run, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, []byte("workload header\n"+run.String()+"bounds\n"))
	}
	return outs
}

func TestReplayMatchesCLIOutput(t *testing.T) {
	o := quickBenchWorkload.options(42)
	stdout := fig5Stdout(t, o)
	rp, err := replayWorkload(testClock, quickBenchWorkload, 42, [][]byte{stdout}, "1x")
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.res.Mismatches) != 0 {
		t.Errorf("replay disagrees with the CLI output: %v", rp.res.Mismatches)
	}

	corrupted := bytes.Replace(stdout, []byte("tighter than PCC"), []byte("looser than PCC"), 1)
	rp, err = replayWorkload(testClock, quickBenchWorkload, 42, [][]byte{corrupted}, "1x")
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.res.Mismatches) == 0 {
		t.Error("replay accepted a corrupted CLI output")
	}
}

func TestReplaySimWorkload(t *testing.T) {
	stdouts := simStdouts(t, quickSimWorkload, 7)
	rp, err := replayWorkload(testClock, quickSimWorkload, 7, stdouts, "1x")
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.res.Mismatches) != 0 {
		t.Errorf("replay disagrees with the CLI output: %v", rp.res.Mismatches)
	}
	if got := rp.res.Layer["core.mode_switches"]; got != 1 {
		t.Errorf("core.mode_switches = %v, want 1", got)
	}

	// A switch to the mode already running is not a mode switch.
	noop := *quickSimWorkload
	noop.sims = append([]simSpec(nil), noop.sims...)
	noop.sims[0].switches = []modeSwitch{{500, 1}}
	rp, err = replayWorkload(testClock, &noop, 7, simStdouts(t, &noop, 7), "1x")
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.res.Mismatches) == 0 {
		t.Error("a scheduled mode switch that never happened went unreported")
	}
}

// TestEmittedMetricsMatchBenchmarkJSON checks that a result line carries
// every metric BENCHMARK.json names, with its unit, and nothing else, and
// that every measured metric outside BENCHMARK.json is one the results file
// documents.
func TestEmittedMetricsMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}

	checkLine := func(what string, res *workloadResult, metrics []metricSpec, perLayer bool) {
		var buf bytes.Buffer
		if err := res.printLine(&buf, metrics, perLayer); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		var line struct {
			Metrics map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(line.Metrics) != len(metrics) {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", what, len(line.Metrics), len(metrics))
		}
		for _, m := range metrics {
			if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s emitted %v with unit %q, want unit %q", what, m.Name, ok, got.Unit, m.Unit)
			}
		}
	}
	named := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		named[m.Name] = true
	}

	for _, w := range workloads {
		wr := newWorkloadRun(w, 42, nil)
		rep := repetition{setupS: 0.01}
		for _, inv := range w.invocations(42) {
			out := simOutput("1", "2")
			if inv.tool == "cohort-bench" {
				out = []byte("Fig. 5 (all-cr): CoHoRT bounds are 2.17x tighter than PCC and 1x tighter than PENDULUM\n")
			}
			rep.inv = append(rep.inv, childResult{wall: 1, cpu: 1, rssMB: 10, stdout: out})
		}
		wr.record(0, rep, false)
		wr.record(1, rep, true)
		res := wr.result()
		checkLine(w.name+" end-to-end", res, spec.EndToEnd, false)
		for name, s := range res.EndToEnd {
			if _, ok := resultOnlyRules[name]; !named[name] && !ok {
				t.Errorf("%s: end-to-end metric %s is in neither BENCHMARK.json nor the results-only rules", w.name, name)
			}
			if s.Unit == "" {
				t.Errorf("%s: end-to-end metric %s has no unit", w.name, name)
			}
		}
	}

	for _, w := range []*workload{quickBenchWorkload, quickSimWorkload} {
		var stdouts [][]byte
		if w.sims == nil {
			stdouts = [][]byte{fig5Stdout(t, w.options(42))}
		} else {
			stdouts = simStdouts(t, w, 42)
		}
		// As in a traced run: one replay per measured repetition, the first
		// with the kernels.
		wr := newWorkloadRun(w, 42, nil)
		for i, kernelTime := range []string{"1x", ""} {
			rp, err := replayWorkload(testClock, w, 42, stdouts, kernelTime)
			if err != nil {
				t.Fatal(err)
			}
			wr.samples["wall_s"] = append(wr.samples["wall_s"], float64(i+1))
			wr.replays = append(wr.replays, &rp.res)
		}
		res := wr.result()
		if got := res.PerLayer["harness_other_s"]; got != 1.5 {
			t.Errorf("%s: harness_other_s = %v, want the median of the paired differences, 1.5", w.name, got)
		}
		checkLine(w.name+" per-layer", res, spec.PerLayer, true)
		for name := range res.PerLayer {
			if !named[name] && !strings.HasPrefix(name, "experiments.runner_s.") {
				t.Errorf("%s: per-layer metric %s is not in BENCHMARK.json", w.name, name)
			}
		}
	}
}
