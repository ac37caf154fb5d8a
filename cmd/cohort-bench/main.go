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
	"slices"
	"strings"

	"cohort"
	"cohort/internal/analysis"
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
	os.Exit(cliutil.Status("cohort-bench", run(os.Args[1:], os.Stdout, os.Stderr, obs.WallClock{}), os.Stderr))
}

// run executes the selected experiments, writing their tables to stdout and
// diagnostics to stderr. Factored out of main so the golden-file tests drive
// the exact CLI path; clk is the injected wall clock (tests pass
// obs.ManualClock so manifests are byte-reproducible).
func run(args []string, stdout, stderr io.Writer, clk obs.Clock) error {
	fs := flag.NewFlagSet("cohort-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
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
		memoStats = fs.Bool("memo-stats", false, "report memo-cache and oracle-replay counters on stderr (counters are scheduling-dependent, never part of the tables)")
	)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	o := experiments.DefaultOptions()
	// Reject values no experiment can use before any work.
	switch {
	case *cap < 0:
		return cliutil.Usagef("-cap must be non-negative (0 = none), got %d", *cap)
	case *pop <= o.GA.Elite:
		return cliutil.Usagef("-pop must exceed the GA's %d elite individuals, got %d", o.GA.Elite, *pop)
	case *gens < 1:
		return cliutil.Usagef("-gens must be at least 1, got %d", *gens)
	}
	sel := map[string]bool{}
	if *runList == "all" {
		for _, k := range known {
			sel[k] = true
		}
	} else {
		for _, k := range strings.Split(*runList, ",") {
			k = strings.TrimSpace(k)
			if !slices.Contains(known, k) {
				return cliutil.Usagef("-run: unknown experiment %q (known: %s)", k, strings.Join(known, ", "))
			}
			sel[k] = true
		}
	}
	names := cohort.ProfileNames()
	*bench = strings.TrimSpace(*bench)
	if !slices.Contains(names, *bench) {
		return cliutil.Usagef("-bench: unknown benchmark %q (known: %s)", *bench, strings.Join(names, ", "))
	}
	if *benches != "" {
		for _, b := range strings.Split(*benches, ",") {
			b = strings.TrimSpace(b)
			if !slices.Contains(names, b) {
				return cliutil.Usagef("-benches: unknown benchmark %q (known: %s)", b, strings.Join(names, ", "))
			}
			o.Benchmarks = append(o.Benchmarks, b)
		}
	}
	// The scale must suit every profile the run may generate: the -benches
	// subset (all by default) and -bench.
	var used []cohort.Profile
	for _, p := range cohort.Profiles() {
		if p.Name == *bench || len(o.Benchmarks) == 0 || slices.Contains(o.Benchmarks, p.Name) {
			used = append(used, p)
		}
	}
	if err := cohort.CheckScale(*scale, 64, used...); err != nil {
		return cliutil.Usagef("-scale: %v", err)
	}
	// selected lists the chosen experiments in canonical (known) order, so
	// "-run fig6a,fig5a" and "-run fig5a,fig6a" share a config key.
	var selected []string
	for _, k := range known {
		if sel[k] {
			selected = append(selected, k)
		}
	}

	stopProfiles, err := cu.StartProfiles(stderr)
	if err != nil {
		return err
	}
	defer stopProfiles()

	o.Scale = *scale
	o.MaxAccessesPerCore = *cap
	o.Seed = *seed
	o.GA.Pop, o.GA.Generations = *pop, *gens
	o.Jobs = cu.Jobs
	o.GA.Workers = cu.Jobs

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

	emit := func(t *stats.Table) {
		if *md {
			fmt.Fprintln(stdout, t.Markdown())
		} else {
			fmt.Fprintln(stdout, t.String())
		}
	}

	// cells lists every experiment runner in output order.
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
	}
	engine := experiments.MemoStats()
	if *memoStats {
		// Routed through the registry machinery so the counters render in the
		// same canonical form as every other metric. They live in their own
		// throwaway registry, never the manifest one: the hit/miss split and
		// the oracle's replay counts are scheduling-dependent above -j 1, and
		// manifest metrics must stay byte-identical across worker counts.
		sreg := obs.NewRegistry()
		sreg.Gauge("memo_jobs_total").Set(engine.Jobs)
		sreg.Gauge("memo_cache_hits").Set(engine.CacheHits)
		sreg.Gauge("memo_cache_misses").Set(engine.CacheMisses)
		generated, reused := experiments.TraceMemoStats()
		sreg.Gauge("memo_traces_generated").Set(generated)
		sreg.Gauge("memo_traces_reused").Set(reused)
		_, replays, accesses := analysis.PlanWork()
		sreg.Gauge("oracle_replays").Set(replays)
		sreg.Gauge("oracle_accesses_replayed").Set(accesses)
		fmt.Fprintf(stderr, "cohort-bench memo:\n%s", sreg.Snapshot())
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
		fmt.Fprintf(stderr, "cohort-bench: wrote %s and %s\n", path, tracePath)
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
	o.GA.AppendKey(k)
	return hex.EncodeToString([]byte(k.Sum()))
}
