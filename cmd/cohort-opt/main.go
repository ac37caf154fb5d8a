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
	cu := cliutil.New("cohort-opt")
	cu.RegisterWork(flag.CommandLine)
	cu.RegisterObs(flag.CommandLine)
	cu.RegisterProfile(flag.CommandLine)
	var (
		bench = flag.String("bench", "fft", "benchmark profile")
		cores = flag.Int("cores", 4, "number of cores")
		scale = flag.Float64("scale", 0.05, "access-count scale factor")
		seed  = flag.Uint64("seed", 42, "trace generator seed")
		timed = flag.String("timed", "", "comma-separated 0/1 mask of GA-optimized cores (default: all)")
		gamma = flag.String("gamma", "", "comma-separated per-core WCML requirements Γ in cycles (0 = none)")
		pop   = flag.Int("pop", 32, "GA population size")
		gens  = flag.Int("gens", 40, "GA generations")
		gaSd  = flag.Uint64("ga-seed", 1, "GA random seed")
	)
	flag.Parse()

	clk := obs.Clock(obs.WallClock{})
	log, err := cu.Logger(os.Stderr, clk)
	if err != nil {
		fatal(err)
	}
	stopProfiles, err := cu.StartProfiles(log)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	p, err := cohort.ProfileByName(*bench)
	if err != nil {
		fatal(err)
	}
	tr := p.Scaled(*scale).Generate(*cores, 64, *seed)

	timedMask := make([]bool, *cores)
	for i := range timedMask {
		timedMask[i] = true
	}
	if *timed != "" {
		parts := strings.Split(*timed, ",")
		if len(parts) != *cores {
			fatal(fmt.Errorf("-timed has %d values for %d cores", len(parts), *cores))
		}
		for i, s := range parts {
			timedMask[i] = strings.TrimSpace(s) == "1"
		}
	}
	var gammas []int64
	if *gamma != "" {
		parts := strings.Split(*gamma, ",")
		if len(parts) != *cores {
			fatal(fmt.Errorf("-gamma has %d values for %d cores", len(parts), *cores))
		}
		for _, s := range parts {
			v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				fatal(fmt.Errorf("bad Γ %q: %v", s, err))
			}
			gammas = append(gammas, v)
		}
	}

	base := cohort.PaperDefaults(*cores, 1)
	prob := &cohort.Problem{
		Lat:     base.Lat,
		L1:      base.L1,
		Streams: tr.Streams,
		Timed:   timedMask,
		Gamma:   gammas,
	}
	gc := cohort.DefaultGA(*gaSd)
	gc.Pop, gc.Generations = *pop, *gens
	gc.Workers = cu.Jobs

	var man *obs.Manifest
	if cu.OutDir != "" {
		man = obs.NewManifest("cohort-opt", clk)
		man.Args = os.Args[1:]
		gc.Metrics = obs.NewRegistry()
		gc.Recorder = obs.NewRecorder()
	}

	// Live observability: the GA publishes generation progress and memo/replay
	// counters to the tracker handle; the debug server pull-samples them.
	// None of it feeds the canonical result or manifest.
	tracker := obs.NewRunTracker(clk)
	rh := tracker.Register("cohort-opt", *bench)
	gc.Progress = rh
	if cu.Listen != "" && gc.Metrics == nil {
		// Serve GA metrics even without -out-dir; Optimize publishes them
		// under Registry.Sync, so live scrapes are race-free.
		gc.Metrics = obs.NewRegistry()
	}
	srv, err := cu.StartServer(gc.Metrics, tracker, log)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()

	res, err := cohort.Optimize(prob, gc)
	if err != nil {
		fatal(err)
	}
	rh.Finish()

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
		k.Int(gc.Pop).Int(gc.Generations).Int(gc.Elite).Int(gc.TournamentK)
		k.Float64(gc.CrossoverProb).Float64(gc.MutationProb).Uint64(gc.Seed)
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
			fatal(err)
		}
		tracePath := strings.TrimSuffix(path, ".manifest.json") + ".trace.json"
		tf, err := os.Create(tracePath)
		if err != nil {
			fatal(err)
		}
		if err := gc.Recorder.WriteChrome(tf); err != nil {
			fatal(err)
		}
		if err := tf.Close(); err != nil {
			fatal(err)
		}
		log.Infof("cohort-opt: wrote %s and %s", path, tracePath)
	}

	fmt.Printf("workload %s: %d oracle evaluations, feasible %v\n",
		tr.Name, res.Evaluations, res.Eval.Feasible())
	if res.Engine.Jobs > 0 {
		fmt.Printf("memo-cache: %s\n", res.Engine)
	}
	fmt.Printf("objective (avg worst-case cycles per request, summed over timed cores): %.2f\n",
		res.Eval.Objective)
	g := 0
	for i, th := range res.Timers {
		line := fmt.Sprintf("  θ_%d = %v", i, th)
		if timedMask[i] {
			line += fmt.Sprintf("   (θ_is = %v)", res.ThetaIS[g])
			g++
		}
		fmt.Println(line)
	}
	fmt.Println("per-core bounds at the chosen timers:")
	for _, b := range res.Eval.PerCore {
		fmt.Printf("  core %d: WCL %d, guaranteed hits %d / misses %d, WCML bound %d\n",
			b.Core, b.WCL, b.MHit, b.MMiss, b.WCMLBound)
	}
	if len(res.BestHistory) > 0 {
		fmt.Printf("best fitness: first generation %.2f → last %.2f\n",
			res.BestHistory[0], res.BestHistory[len(res.BestHistory)-1])
	}
}

func fatal(err error) {
	cliutil.Fatal("cohort-opt", err)
}
