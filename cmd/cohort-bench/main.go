// Command cohort-bench regenerates the paper's evaluation artifacts: every
// sub-figure of Fig. 5 and Fig. 6, the mode-switch experiment of Fig. 7,
// Tables I and II, and the design-choice ablations.
//
// Usage:
//
//	cohort-bench -run all
//	cohort-bench -run fig5a,fig6a,fig7 -j 8
//	cohort-bench -run table2 -bench fft -scale 0.1
//	cohort-bench -run all -md > results.md
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cohort"
	"cohort/internal/cliutil"
	"cohort/internal/experiments"
	"cohort/internal/obs"
	"cohort/internal/parallel"
	"cohort/internal/stats"
)

var known = []string{
	"table1", "fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig6c",
	"fig7", "table2", "nonperfect", "attribution",
	"ablation-arbiter", "ablation-transfer", "ablation-timer", "ablation-snoop",
	"ablation-optimizer", "ablation-l1ways", "ablation-nonblocking", "scalability",
}

func main() {
	if err := run(os.Args[1:], os.Stdout, obs.WallClock{}); err != nil {
		cliutil.Fatal("cohort-bench", err)
	}
}

// run executes the selected experiments and writes their tables to stdout.
// Factored out of main so the golden-file tests drive the exact CLI path;
// clk is the injected wall clock (tests pass obs.ManualClock so manifests
// are byte-reproducible).
func run(args []string, stdout io.Writer, clk obs.Clock) error {
	fs := flag.NewFlagSet("cohort-bench", flag.ContinueOnError)
	cu := cliutil.New("cohort-bench")
	cu.RegisterWork(fs)
	cu.RegisterObs(fs)
	cu.RegisterProfile(fs)
	var (
		runList   = fs.String("run", "all", "comma-separated experiments: "+strings.Join(known, ", ")+" or 'all'")
		scale     = fs.Float64("scale", 0.05, "access-count scale factor")
		cap       = fs.Int("cap", 4000, "cap on accesses per core after scaling (0 = none)")
		seed      = fs.Uint64("seed", 42, "trace generator seed")
		bench     = fs.String("bench", "fft", "benchmark for fig7/table2")
		benches   = fs.String("benches", "", "comma-separated benchmark subset for fig5/fig6/ablations (default: all)")
		pop       = fs.Int("pop", 20, "GA population")
		gens      = fs.Int("gens", 16, "GA generations")
		md        = fs.Bool("md", false, "emit markdown tables")
		memoStats = fs.Bool("memo-stats", false, "report memo-cache counters on stderr (counters are scheduling-dependent, never part of the tables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	log, err := cu.Logger(os.Stderr, clk)
	if err != nil {
		return err
	}
	stopProfiles, err := cu.StartProfiles(log)
	if err != nil {
		return err
	}
	defer stopProfiles()

	o := experiments.DefaultOptions()
	o.Scale = *scale
	o.MaxAccessesPerCore = *cap
	o.Seed = *seed
	o.GA.Pop, o.GA.Generations = *pop, *gens
	o.Jobs = cu.Jobs
	o.GA.Workers = cu.Jobs
	if *benches != "" {
		o.Benchmarks = strings.Split(*benches, ",")
	}

	sel := map[string]bool{}
	if *runList == "all" {
		for _, k := range known {
			sel[k] = true
		}
	} else {
		for _, k := range strings.Split(*runList, ",") {
			k = strings.TrimSpace(k)
			found := false
			for _, kk := range known {
				if kk == k {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("unknown experiment %q (known: %s)", k, strings.Join(known, ", "))
			}
			sel[k] = true
		}
	}
	// selected lists the chosen experiments in canonical (known) order, so
	// "-run fig6a,fig5a" and "-run fig5a,fig6a" share a config key.
	var selected []string
	for _, k := range known {
		if sel[k] {
			selected = append(selected, k)
		}
	}

	var (
		man *obs.Manifest
		rec *obs.Recorder
	)
	if cu.OutDir != "" {
		man = obs.NewManifest("cohort-bench", clk)
		man.Args = args
		o.Metrics = obs.NewRegistry()
		rec = obs.NewRecorder()
		o.Recorder = rec
	}

	// Live observability: the tracker's handle feeds the pull-sampled /runs
	// and /metrics endpoints; the experiment harness bumps it through the
	// package-level progress hook. All of it is outside canonical output —
	// tables, manifests and fingerprints are byte-identical with or without
	// -listen.
	tracker := obs.NewRunTracker(clk)
	rh := tracker.Register("cohort-bench", *runList)
	rh.SetCellsTotal(int64(len(selected)))
	defer func() {
		rh.Finish()
		tracker.Unregister(rh)
	}()
	prev := experiments.AttachProgress(rh)
	defer experiments.AttachProgress(prev)
	if cu.Listen != "" && o.Metrics == nil {
		// Serve experiment metrics even without -out-dir; figure publishes go
		// through Registry.Sync, so live scrapes are race-free.
		o.Metrics = obs.NewRegistry()
	}
	srv, err := cu.StartServer(o.Metrics, tracker, log)
	if err != nil {
		return err
	}
	defer srv.Close()

	emit := func(t *stats.Table) {
		if *md {
			fmt.Fprintln(stdout, t.Markdown())
		} else {
			fmt.Fprintln(stdout, t.String())
		}
	}

	// cells lists every experiment runner in output order. Driving them from
	// one table keeps the progress accounting (AddCellsDone) in one place.
	type cell struct {
		key string
		run func() error
	}
	renderSummary := func(t *stats.Table, summary string) {
		emit(t)
		fmt.Fprintln(stdout, summary)
		fmt.Fprintln(stdout)
	}
	cells := []cell{
		{"table1", func() error { emit(cohort.Table1()); return nil }},
		{"fig5a", func() error { return runFig5(o, "all-cr", renderSummary) }},
		{"fig5b", func() error { return runFig5(o, "2cr-2ncr", renderSummary) }},
		{"fig5c", func() error { return runFig5(o, "1cr-3ncr", renderSummary) }},
		{"fig6a", func() error { return runFig6(o, "all-cr", renderSummary) }},
		{"fig6b", func() error { return runFig6(o, "2cr-2ncr", renderSummary) }},
		{"fig6c", func() error { return runFig6(o, "1cr-3ncr", renderSummary) }},
		{"fig7", func() error {
			res, err := experiments.Fig7(o, *bench, 1.5, 1.8)
			if err != nil {
				return err
			}
			for _, t := range res.Render() {
				emit(t)
			}
			fmt.Fprintln(stdout, res.Summary())
			fmt.Fprintln(stdout)
			return nil
		}},
		{"table2", func() error {
			res, err := experiments.Table2(o, *bench)
			if err != nil {
				return err
			}
			emit(res.Render())
			return nil
		}},
		{"nonperfect", func() error {
			res, err := experiments.NonPerfect(o)
			if err != nil {
				return err
			}
			renderSummary(res.Render(), res.Summary())
			return nil
		}},
		{"attribution", func() error {
			res, err := experiments.Attribution(o, "all-cr")
			if err != nil {
				return err
			}
			renderSummary(res.Render(), res.Summary())
			if man != nil {
				man.Attribution = res.ManifestRows()
			}
			return nil
		}},
		{"ablation-arbiter", func() error {
			res, err := experiments.AblationArbiter(o)
			if err != nil {
				return err
			}
			emit(res.Render())
			return nil
		}},
		{"ablation-transfer", func() error {
			res, err := experiments.AblationTransfer(o)
			if err != nil {
				return err
			}
			emit(res.Render())
			return nil
		}},
		{"ablation-timer", func() error {
			res, err := experiments.AblationTimer(o, nil)
			if err != nil {
				return err
			}
			emit(res.Render())
			return nil
		}},
		{"ablation-snoop", func() error {
			res, err := experiments.AblationSnoop(o)
			if err != nil {
				return err
			}
			emit(res.Render())
			return nil
		}},
		{"ablation-l1ways", func() error {
			res, err := experiments.AblationL1Ways(o, 100, nil)
			if err != nil {
				return err
			}
			emit(res.Render())
			return nil
		}},
		{"ablation-nonblocking", func() error {
			res, err := experiments.AblationNonBlocking(o)
			if err != nil {
				return err
			}
			emit(res.Render())
			return nil
		}},
		{"ablation-optimizer", func() error {
			res, err := experiments.AblationOptimizer(o)
			if err != nil {
				return err
			}
			emit(res.Render())
			return nil
		}},
		{"scalability", func() error {
			res, err := experiments.ExtensionScalability(o, *bench, 50, nil)
			if err != nil {
				return err
			}
			emit(res.Render())
			return nil
		}},
	}
	for _, c := range cells {
		if !sel[c.key] {
			continue
		}
		if err := c.run(); err != nil {
			return err
		}
		rh.AddCellsDone(1)
	}
	engine := experiments.MemoStats()
	if *memoStats {
		// Routed through the registry machinery so the counters render in the
		// same canonical form as every other metric. They live in their own
		// throwaway registry, never the manifest one: the hit/miss split is
		// scheduling-dependent, and manifest metrics must stay byte-identical
		// across worker counts.
		sreg := obs.NewRegistry()
		sreg.Gauge("memo_jobs_total").Set(engine.Jobs)
		sreg.Gauge("memo_cache_hits").Set(engine.CacheHits)
		sreg.Gauge("memo_cache_misses").Set(engine.CacheMisses)
		generated, reused := experiments.TraceMemoStats()
		sreg.Gauge("memo_traces_generated").Set(generated)
		sreg.Gauge("memo_traces_reused").Set(reused)
		log.Infof("cohort-bench memo:\n%s", strings.TrimSuffix(sreg.Snapshot().String(), "\n"))
	}
	if man != nil {
		refs, err := experiments.TraceRefs(o)
		if err != nil {
			return err
		}
		man.ConfigKey = benchConfigKey(selected, *bench, &o)
		man.Traces = refs
		man.Seed = int64(*seed)
		man.Workers = parallel.DefaultWorkers(cu.Jobs)
		man.Engine = &engine
		man.Metrics = o.Metrics.Snapshot()
		man.Finish(clk)
		path, err := man.Write(cu.OutDir)
		if err != nil {
			return err
		}
		tracePath := strings.TrimSuffix(path, ".manifest.json") + ".trace.json"
		tf, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := rec.WriteChrome(tf); err != nil {
			tf.Close()
			return err
		}
		if err := tf.Close(); err != nil {
			return err
		}
		log.Infof("cohort-bench: wrote %s and %s", path, tracePath)
	}
	return nil
}

// runFig5 runs one Fig. 5 scenario and renders it through the shared
// table+summary shape.
func runFig5(o experiments.Options, scenario string, render func(*stats.Table, string)) error {
	res, err := experiments.Fig5(o, scenario)
	if err != nil {
		return err
	}
	render(res.Render(), res.Summary())
	return nil
}

// runFig6 is runFig5's Fig. 6 counterpart.
func runFig6(o experiments.Options, scenario string, render func(*stats.Table, string)) error {
	res, err := experiments.Fig6(o, scenario)
	if err != nil {
		return err
	}
	render(res.Render(), res.Summary())
	return nil
}

// benchConfigKey fingerprints the effective experiment configuration —
// everything that determines the results, and nothing that doesn't: the
// worker count is deliberately excluded so -j 1 and -j 8 runs of the same
// configuration share a key and cohort-report can compare them.
func benchConfigKey(selected []string, bench string, o *experiments.Options) string {
	k := parallel.NewKey("cohort-bench/config")
	k.Int(len(selected))
	for _, s := range selected {
		k.Str(s)
	}
	k.Str(bench)
	k.Int(o.NCores).Float64(o.Scale).Int(o.MaxAccessesPerCore).Uint64(o.Seed)
	k.Int(len(o.Benchmarks))
	for _, b := range o.Benchmarks {
		k.Str(b)
	}
	g := o.GA
	k.Int(g.Pop).Int(g.Generations).Int(g.Elite).Int(g.TournamentK)
	k.Float64(g.CrossoverProb).Float64(g.MutationProb).Uint64(g.Seed)
	return hex.EncodeToString([]byte(k.Sum()))
}
