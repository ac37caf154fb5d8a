// Command cohort-opt runs the requirement-aware timer optimizer (paper §V):
// a genetic algorithm searches timer vectors Θ, querying the in-isolation
// cache analysis for guaranteed hits, and minimizes the average worst-case
// memory latency per request subject to per-core WCML requirements.
//
// Usage:
//
//	cohort-opt -bench fft
//	cohort-opt -bench radix -timed 1,1,0,0 -gamma 0,2000000,0,0
//	cohort-opt -bench water -pop 64 -gens 80 -seed 7
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"cohort"
	"cohort/internal/cliutil"
	"cohort/internal/experiments"
	"cohort/internal/obs"
	"cohort/internal/parallel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one optimization, writing its report to stdout and
// diagnostics to stderr, and returns the exit status: 0 on success, 2 for a
// bad flag, 1 for any other failure.
func run(args []string, stdout, stderr io.Writer) int {
	return cliutil.Status("cohort-opt", optimize(args, stdout, stderr), stderr)
}

func optimize(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cohort-opt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cu := cliutil.New("cohort-opt")
	cu.RegisterWork(fs)
	cu.RegisterObs(fs)
	cu.RegisterProfile(fs)
	var (
		bench = fs.String("bench", "fft", "benchmark profile")
		cores = fs.Int("cores", 4, "number of cores")
		scale = fs.Float64("scale", 0.05, "access-count scale factor")
		seed  = fs.Uint64("seed", 42, "trace generator seed")
		timed = fs.String("timed", "", "comma-separated 0/1 mask of GA-optimized cores (default: all)")
		gamma = fs.String("gamma", "", "comma-separated per-core WCML requirements Γ in cycles (0 = none)")
		pop   = fs.Int("pop", 32, "GA population size")
		gens  = fs.Int("gens", 40, "GA generations")
		gaSd  = fs.Uint64("ga-seed", 1, "GA random seed")
	)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	gc := cohort.DefaultGA(*gaSd)
	// Reject values no optimization can use before any work.
	switch {
	case *cores < 1 || *cores > cohort.MaxCores:
		return cliutil.Usagef("-cores must be in [1, %d], got %d", cohort.MaxCores, *cores)
	case *pop <= gc.Elite:
		return cliutil.Usagef("-pop must exceed the GA's %d elite individuals, got %d", gc.Elite, *pop)
	case *gens < 1:
		return cliutil.Usagef("-gens must be at least 1, got %d", *gens)
	}
	timedMask, err := parseMask(*timed, *cores)
	if err != nil {
		return cliutil.Usage(err)
	}
	gammas, err := parseGammas(*gamma, *cores)
	if err != nil {
		return cliutil.Usage(err)
	}
	p, err := cohort.ProfileByName(*bench)
	if err != nil {
		return cliutil.Usagef("-bench: %v", err)
	}
	if err := cohort.CheckScale(*scale, 64, p); err != nil {
		return cliutil.Usagef("-scale: %v", err)
	}

	clk := obs.WallClock{}
	stopProfiles, err := cu.StartProfiles(stderr)
	if err != nil {
		return err
	}
	defer stopProfiles()

	tr := p.Scaled(*scale).Generate(*cores, 64, *seed)
	base := cohort.PaperDefaults(*cores, 1)
	prob := &cohort.Problem{
		Lat:     base.Lat,
		L1:      base.L1,
		Streams: tr.Streams,
		Timed:   timedMask,
		Gamma:   gammas,
	}
	gc.Pop, gc.Generations = *pop, *gens
	gc.Workers = cu.Jobs

	var man *obs.Manifest
	if cu.OutDir != "" {
		man = obs.NewManifest("cohort-opt", clk)
		man.Args = args
		gc.Metrics = obs.NewRegistry()
		gc.Recorder = obs.NewRecorder()
	}

	res, err := cohort.Optimize(prob, gc)
	if err != nil {
		return err
	}

	if man != nil {
		// The config key covers every parameter that determines the Result —
		// and not Workers, which by contract does not.
		k := parallel.NewKey("cohort-opt/config")
		k.Str(experiments.Fingerprint(tr)).Int(*cores)
		for _, b := range timedMask {
			k.Bool(b)
		}
		k.Int(len(gammas))
		for _, g := range gammas {
			k.Int64(g)
		}
		gc.AppendKey(k)
		man.ConfigKey = hex.EncodeToString([]byte(k.Sum()))
		man.Traces = []obs.TraceRef{{Name: tr.Name, Fingerprint: experiments.Fingerprint(tr)}}
		man.Seed = int64(*seed)
		man.Workers = parallel.DefaultWorkers(cu.Jobs)
		engine := res.Engine
		man.Engine = &engine
		man.Metrics = gc.Metrics.Snapshot()
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
		if err := gc.Recorder.WriteChrome(tf); err != nil {
			tf.Close()
			return err
		}
		if err := tf.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "cohort-opt: wrote %s and %s\n", path, tracePath)
	}

	fmt.Fprintf(stdout, "workload %s: %d oracle evaluations, feasible %v\n",
		tr.Name, res.Evaluations, res.Eval.Feasible())
	if res.Engine.Jobs > 0 {
		fmt.Fprintf(stdout, "memo-cache: %s\n", res.Engine)
	}
	fmt.Fprintf(stdout, "objective (avg worst-case cycles per request, summed over timed cores): %.2f\n",
		res.Eval.Objective)
	g := 0
	for i, th := range res.Timers {
		line := fmt.Sprintf("  θ_%d = %v", i, th)
		if timedMask[i] {
			line += fmt.Sprintf("   (θ_is = %v)", res.ThetaIS[g])
			g++
		}
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintln(stdout, "per-core bounds at the chosen timers:")
	for _, b := range res.Eval.PerCore {
		fmt.Fprintf(stdout, "  core %d: WCL %d, guaranteed hits %d / misses %d, WCML bound %d\n",
			b.Core, b.WCL, b.MHit, b.MMiss, b.WCMLBound)
	}
	if len(res.BestHistory) > 0 {
		fmt.Fprintf(stdout, "best fitness: first generation %.2f → last %.2f\n",
			res.BestHistory[0], res.BestHistory[len(res.BestHistory)-1])
	}
	return nil
}

// parseMask parses the -timed mask: one 0 or 1 per core, all timed when
// empty.
func parseMask(s string, n int) ([]bool, error) {
	if s == "" {
		out := make([]bool, n)
		for i := range out {
			out[i] = true
		}
		return out, nil
	}
	var out []bool
	for _, p := range strings.Split(s, ",") {
		switch strings.TrimSpace(p) {
		case "1":
			out = append(out, true)
		case "0":
			out = append(out, false)
		default:
			return nil, fmt.Errorf("-timed: bad mask value %q (want 0 or 1)", p)
		}
	}
	if len(out) != n {
		return nil, fmt.Errorf("-timed has %d values for %d cores", len(out), n)
	}
	return out, nil
}

// parseGammas parses the -gamma requirements: one non-negative WCML bound
// in cycles per core (0 = none), or nil when empty.
func parseGammas(s string, n int) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var out []int64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("-gamma: bad requirement %q", p)
		}
		out = append(out, v)
	}
	if len(out) != n {
		return nil, fmt.Errorf("-gamma has %d values for %d cores", len(out), n)
	}
	return out, nil
}
