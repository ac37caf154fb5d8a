package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"cohort/internal/analysis"
	"cohort/internal/config"
	"cohort/internal/core"
	"cohort/internal/experiments"
	"cohort/internal/obs"
	"cohort/internal/opt"
	"cohort/internal/stats"
	"cohort/internal/trace"
)

// pidReplay is the Chrome-trace process row of the replay spans. Unlike the
// simulator's own traces, these spans carry host wall time (microseconds
// since the replay started).
const pidReplay = 10

// replayResult is what the replay child hands back to the parent.
type replayResult struct {
	// Layer holds every per-layer metric the replay measured.
	Layer map[string]float64 `json:"layer"`
	// OnPathS sums the spans whose work the workload's CLI invocations also
	// do; the parent subtracts it from the wall_s median to get
	// harness_other_s.
	OnPathS float64 `json:"on_path_s"`
	// Mismatches lists every replayed result missing from the CLI's stdout.
	Mismatches []string `json:"mismatches,omitempty"`
}

// replayer replays a workload in-process through the public functions of
// trace, analysis, opt, experiments and core, with a span around each call
// and counters read where the work happens.
type replayer struct {
	clk   obs.Clock
	rec   *obs.Recorder
	t0    time.Time
	res   replayResult
	count struct {
		cycles, busy, txns, accesses, hits, invalidations, modeSwitches int64
		optHits, optJobs, memoHits, memoJobs                            int64
	}
	// kernelTrace is the largest trace replayed, with the CoHoRT timers
	// replayed on it: the input of the layer kernels.
	kernelTrace  *trace.Trace
	kernelTimers []config.Timer
}

func newReplayer(clk obs.Clock, workload string) *replayer {
	rp := &replayer{clk: clk, rec: obs.NewRecorder(), t0: clk.Now(), res: replayResult{Layer: map[string]float64{}}}
	rp.rec.NameProcess(pidReplay, "cohortperf replay "+workload)
	return rp
}

// span times fn and adds its duration to the metric of the same name. An
// on-path span is work the workload's CLI invocations also do.
func (rp *replayer) span(metric string, onPath bool, fn func() error) error {
	start := rp.clk.Now()
	err := fn()
	d := rp.clk.Now().Sub(start)
	cat := "off-path"
	if onPath {
		cat = "on-path"
		rp.res.OnPathS += d.Seconds()
	}
	rp.rec.Complete(pidReplay, 0, metric, cat, start.Sub(rp.t0).Microseconds(), d.Microseconds(), nil)
	rp.res.Layer[metric] += d.Seconds()
	return err
}

// allocSpan is span plus the bytes fn allocated, added to allocMetric in
// MiB. The memory statistics are read outside the timed interval.
func (rp *replayer) allocSpan(metric string, onPath bool, allocMetric string, fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := rp.span(metric, onPath, fn)
	runtime.ReadMemStats(&m1)
	rp.res.Layer[allocMetric] += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	return err
}

// group records an enclosing span for the Chrome trace only.
func (rp *replayer) group(name string, fn func() error) error {
	start := rp.clk.Now()
	err := fn()
	rp.rec.Complete(pidReplay, 0, name, "group", start.Sub(rp.t0).Microseconds(), rp.clk.Now().Sub(start).Microseconds(), nil)
	return err
}

// expect records a mismatch for each replayed text missing from stdout.
func (rp *replayer) expect(stdout []byte, what string, texts ...string) {
	for _, t := range texts {
		if !bytes.Contains(stdout, []byte(t)) {
			rp.res.Mismatches = append(rp.res.Mismatches, what+": replayed output not found in the CLI's stdout")
			return
		}
	}
}

func (rp *replayer) useForKernels(tr *trace.Trace, timers []config.Timer) {
	if rp.kernelTrace == nil || tr.TotalAccesses() > rp.kernelTrace.TotalAccesses() {
		rp.kernelTrace, rp.kernelTimers = tr, timers
	}
}

// parse times decoding tr from its binary encoding.
func (rp *replayer) parse(enc []byte, onPath bool) (*trace.Trace, error) {
	var tr *trace.Trace
	err := rp.span("trace.parse_s", onPath, func() (err error) {
		tr, err = trace.ParseBinary(bytes.NewReader(enc))
		return err
	})
	return tr, err
}

func encode(tr *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	err := tr.WriteBinary(&buf)
	return buf.Bytes(), err
}

func (rp *replayer) optimize(p *opt.Problem, ga opt.GAConfig, onPath bool) (*opt.Result, error) {
	ga.Workers = 1
	var res *opt.Result
	err := rp.allocSpan("opt.optimize_s", onPath, "opt.alloc_mb", func() (err error) {
		res, err = opt.Optimize(p, ga)
		return err
	})
	if err != nil {
		return nil, err
	}
	rp.res.Layer["opt.evaluations"] += float64(res.Evaluations)
	rp.count.optHits += res.Engine.CacheHits
	rp.count.optJobs += res.Engine.Jobs
	return res, nil
}

// simulate runs one platform on tr the way cohort-sim and the experiment
// harness do — bounds, build, run, coherence check — and fails if a
// measured WCML exceeds its bound.
func (rp *replayer) simulate(cfg *config.System, tr *trace.Trace, switches []modeSwitch, onPath bool) (*stats.Run, []analysis.CoreBound, error) {
	var bounds []analysis.CoreBound
	if err := rp.span("analysis.bounds_s", onPath, func() (err error) {
		bounds, err = analysis.Bounds(cfg, tr)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var sys *core.System
	if err := rp.allocSpan("core.new_s", onPath, "core.alloc_mb", func() error {
		s, err := core.New(cfg, tr)
		if err != nil {
			return err
		}
		for _, sw := range switches {
			if err := s.ScheduleModeSwitch(sw.at, sw.mode); err != nil {
				return err
			}
		}
		sys = s
		return nil
	}); err != nil {
		return nil, nil, err
	}
	var run *stats.Run
	if err := rp.allocSpan("core.run_s", onPath, "core.alloc_mb", func() (err error) {
		run, err = sys.Run()
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := rp.allocSpan("core.check_coherence_s", onPath, "core.alloc_mb", sys.CheckCoherence); err != nil {
		return nil, nil, err
	}
	rp.countRun(sys, run)
	for i, b := range bounds {
		if b.WCMLBound != analysis.Unbounded && run.Cores[i].TotalLatency > b.WCMLBound {
			return nil, nil, fmt.Errorf("core %d: measured WCML %d exceeds bound %d", i, run.Cores[i].TotalLatency, b.WCMLBound)
		}
	}
	return run, bounds, nil
}

func (rp *replayer) countRun(sys *core.System, run *stats.Run) {
	c := &rp.count
	c.cycles += run.Cycles
	c.busy += run.BusBusy
	c.txns += run.Transactions
	c.modeSwitches += run.ModeSwitches
	for i := range run.Cores {
		c.accesses += run.Cores[i].Accesses
		c.hits += run.Cores[i].Hits
		c.invalidations += run.Cores[i].Invalidations
	}
	l := rp.res.Layer
	l["coherence.directory_lines"] += float64(sys.Directory().Len())
	if g, ok := sys.BusArbiter().(interface{ Grants() int64 }); ok {
		l["bus.grants"] += float64(g.Grants())
	}
	hits, misses, evictions, _ := sys.LLC().Stats()
	l["memctrl.llc_hits"] += float64(hits)
	l["memctrl.llc_misses"] += float64(misses)
	l["memctrl.llc_evictions"] += float64(evictions)
}

// fig5 replays Fig. 5a (all cores critical) over the options' profiles the
// way experiments.Fig5 computes it, and checks the rendered figure against
// the CLI's stdout.
func (rp *replayer) fig5(o experiments.Options, stdout []byte, onPath bool) error {
	sc, err := experiments.ScenarioByName(o.NCores, "all-cr")
	if err != nil {
		return err
	}
	ps, err := profiles(o)
	if err != nil {
		return err
	}
	plat := config.PaperDefaults(o.NCores, 1)
	res := &experiments.Fig5Result{Scenario: sc}
	var pccRatios, pendRatios []float64
	for _, p := range ps {
		err := rp.group("fig5a "+p.Name, func() error {
			var tr *trace.Trace
			_ = rp.span("trace.generate_s", onPath, func() error {
				tr = p.Generate(o.NCores, 64, o.Seed)
				return nil
			})
			enc, err := encode(tr)
			if err != nil {
				return err
			}
			if _, err := rp.parse(enc, false); err != nil {
				return err
			}
			best, err := rp.optimize(&opt.Problem{Lat: plat.Lat, L1: plat.L1, Streams: tr.Streams, Timed: sc.Critical}, o.GA, onPath)
			if err != nil {
				return err
			}
			cohortCfg, err := config.CoHoRT(o.NCores, 1, best.Timers)
			if err != nil {
				return err
			}
			row := experiments.Fig5Row{Benchmark: p.Name, Timers: best.Timers}
			for _, s := range []struct {
				cfg *config.System
				out *experiments.SystemWCML
			}{{cohortCfg, &row.CoHoRT}, {config.PCC(o.NCores), &row.PCC}, {config.PENDULUM(sc.Critical), &row.Pendulum}} {
				run, bounds, err := rp.simulate(s.cfg, tr, nil, onPath)
				if err != nil {
					return fmt.Errorf("fig5a %s: %w", p.Name, err)
				}
				for i := 0; i < o.NCores; i++ {
					s.out.Exp = append(s.out.Exp, run.Cores[i].TotalLatency)
					s.out.Bound = append(s.out.Bound, bounds[i].WCMLBound)
				}
			}
			for i, cr := range sc.Critical {
				if !cr || row.CoHoRT.Bound[i] <= 0 {
					continue
				}
				if row.PCC.Bound[i] > 0 {
					pccRatios = append(pccRatios, float64(row.PCC.Bound[i])/float64(row.CoHoRT.Bound[i]))
				}
				if row.Pendulum.Bound[i] > 0 {
					pendRatios = append(pendRatios, float64(row.Pendulum.Bound[i])/float64(row.CoHoRT.Bound[i]))
				}
			}
			res.Rows = append(res.Rows, row)
			rp.useForKernels(tr, best.Timers)
			return nil
		})
		if err != nil {
			return err
		}
	}
	res.PCCRatio, res.PendulumRatio = geomean(pccRatios), geomean(pendRatios)
	rp.expect(stdout, "fig5a", res.Render().String(), res.Summary())
	return nil
}

// geomean matches the experiment harness's geometric mean (0 when empty or
// when any value is not positive).
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(vs)))
}

// suite replays `cohort-bench -run all` runner by runner, in the CLI's
// order and with its arguments.
func (rp *replayer) suite(o experiments.Options, stdout []byte) error {
	before := experiments.MemoStats()
	for _, r := range suiteRunners {
		var texts []string
		if err := rp.span("experiments.runner_s."+r.name, true, func() (err error) {
			texts, err = r.run(o)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		rp.expect(stdout, r.name, texts...)
	}
	after := experiments.MemoStats()
	rp.count.memoJobs += after.Jobs - before.Jobs
	rp.count.memoHits += after.CacheHits - before.CacheHits
	return nil
}

// sim replays a cohort-sim workload: one parse, bounds computation and
// simulation per invocation, each checked against that invocation's stdout.
// The GA then tunes timers on the trace's first cohort-bench-default
// accesses per core, which no invocation does; it keeps the opt metrics
// defined on this workload, off the CLI path.
func (rp *replayer) sim(w *workload, seed uint64, stdouts [][]byte) error {
	// Only the encoding outlives this block, so each invocation's parse and
	// simulation run on a heap holding what the CLI's would.
	var enc []byte
	if err := func() error {
		var tr *trace.Trace
		if err := rp.span("trace.generate_s", false, func() (err error) {
			tr, err = w.simTrace(seed)
			return err
		}); err != nil {
			return err
		}
		var err error
		enc, err = encode(tr)
		return err
	}(); err != nil {
		return err
	}
	for i, s := range w.sims {
		err := rp.group("cohort-sim "+s.system, func() error {
			parsed, err := rp.parse(enc, true)
			if err != nil {
				return err
			}
			cfg, err := s.config()
			if err != nil {
				return err
			}
			run, _, err := rp.simulate(cfg, parsed, s.switches, true)
			if err != nil {
				return fmt.Errorf("%s: %w", s.system, err)
			}
			rp.expect(stdouts[i], "cohort-sim "+s.system, run.String())
			if run.ModeSwitches != int64(len(s.switches)) {
				rp.res.Mismatches = append(rp.res.Mismatches,
					fmt.Sprintf("cohort-sim %s: %d mode switches, want %d", s.system, run.ModeSwitches, len(s.switches)))
			}
			rp.useForKernels(parsed, s.timers)
			return nil
		})
		if err != nil {
			return err
		}
	}
	o := experiments.DefaultOptions()
	plat := config.PaperDefaults(nCores, 1)
	tr := rp.kernelTrace
	prefix := make([]trace.Stream, len(tr.Streams))
	timed := make([]bool, len(tr.Streams))
	for i, s := range tr.Streams {
		prefix[i] = s[:min(len(s), o.MaxAccessesPerCore)]
		timed[i] = true
	}
	_, err := rp.optimize(&opt.Problem{Lat: plat.Lat, L1: plat.L1, Streams: prefix, Timed: timed}, o.GA, false)
	return err
}

// finish derives the ratio metrics from the raw counters.
func (rp *replayer) finish() {
	c, l := &rp.count, rp.res.Layer
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	l["core.sim_cycles"] = float64(c.cycles)
	l["core.sim_mcycles_per_s"] = ratio(float64(c.cycles)/1e6, l["core.run_s"])
	l["core.bus_transactions"] = float64(c.txns)
	l["core.bus_busy_frac"] = ratio(float64(c.busy), float64(c.cycles))
	l["core.l1_hit_ratio"] = ratio(float64(c.hits), float64(c.accesses))
	l["core.invalidations"] = float64(c.invalidations)
	l["core.mode_switches"] = float64(c.modeSwitches)
	l["opt.genome_cache_hit_ratio"] = ratio(float64(c.optHits), float64(c.optJobs))
	l["experiments.memo_jobs"] = float64(c.memoJobs)
	l["experiments.memo_hit_ratio"] = ratio(float64(c.memoHits), float64(c.memoJobs))
}

// replayWorkload runs the traced replay of w. stdouts are the CLI outputs of
// the workload's first repetition, one per invocation. A non-empty
// kernelTime also runs the layer kernels, each for that testing benchtime.
func replayWorkload(clk obs.Clock, w *workload, seed uint64, stdouts [][]byte, kernelTime string) (*replayer, error) {
	rp := newReplayer(clk, w.name)
	var err error
	switch {
	case w.sims != nil:
		err = rp.sim(w, seed, stdouts)
	case w.suite:
		o := w.options(seed)
		if err = rp.suite(o, stdouts[0]); err == nil {
			err = rp.fig5(o, stdouts[0], false)
		}
	default:
		err = rp.fig5(w.options(seed), stdouts[0], true)
	}
	if err != nil {
		return nil, err
	}
	rp.finish()
	if kernelTime == "" {
		return rp, nil
	}
	km, err := runKernels(newKernelInput(rp.kernelTrace, rp.kernelTimers), kernelTime)
	if err != nil {
		return nil, err
	}
	for k, v := range km {
		rp.res.Layer[k] = v
	}
	return rp, nil
}

// replayChild is the replay child process: it reads the reference stdouts
// from its working directory, replays, and writes the result and the Chrome
// trace there.
func replayChild(w *workload, seed uint64, kernels bool) error {
	stdouts := make([][]byte, len(w.invocations(seed)))
	for i := range stdouts {
		b, err := os.ReadFile(refName(i))
		if err != nil {
			return err
		}
		stdouts[i] = b
	}
	kernelTime := ""
	if kernels {
		kernelTime = kernelBenchTime
	}
	rp, err := replayWorkload(obs.WallClock{}, w, seed, stdouts, kernelTime)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rp.res)
	if err != nil {
		return err
	}
	if err := os.WriteFile(replayResultName, b, 0o644); err != nil {
		return err
	}
	f, err := os.Create(replayTraceName)
	if err != nil {
		return err
	}
	if err := rp.rec.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
