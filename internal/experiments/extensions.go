package experiments

import (
	"fmt"

	"cohort/internal/analysis"
	"cohort/internal/config"
	"cohort/internal/opt"
	"cohort/internal/parallel"
	"cohort/internal/stats"
)

// OptimizerAblationRow compares the two optimization engines on one
// benchmark.
type OptimizerAblationRow struct {
	Benchmark string
	// GAObjective / HCObjective are the best objective values found.
	GAObjective, HCObjective float64
	// GAEvals / HCEvals count oracle calls (the cost driver — the paper's
	// Matlab GA ran 50 min–20 h).
	GAEvals, HCEvals int
}

// OptimizerAblation validates that the Fig. 2a engine is algorithm-agnostic
// and quantifies GA vs hill climbing.
type OptimizerAblation struct {
	Rows []OptimizerAblationRow
}

// AblationOptimizer runs both engines on each benchmark (all cores timed).
func AblationOptimizer(o Options) (*OptimizerAblation, error) {
	profiles, err := o.profiles()
	if err != nil {
		return nil, err
	}
	res := &OptimizerAblation{}
	base := config.PaperDefaults(o.NCores, 1)
	rows, err := parallel.MapErr(o.jobs(), len(profiles), func(pi int) (OptimizerAblationRow, error) {
		p := profiles[pi]
		tr := o.generate(p)
		timed := make([]bool, o.NCores)
		for i := range timed {
			timed[i] = true
		}
		prob := &opt.Problem{Lat: base.Lat, L1: base.L1, Streams: tr.Streams, Timed: timed}
		ga, err := opt.Optimize(prob, o.GA)
		if err != nil {
			return OptimizerAblationRow{}, fmt.Errorf("optimizer ablation %s ga: %w", p.Name, err)
		}
		hcConf := opt.DefaultHC(o.GA.Seed)
		hcConf.Workers = o.GA.Workers
		hc, err := opt.HillClimb(prob, hcConf)
		if err != nil {
			return OptimizerAblationRow{}, fmt.Errorf("optimizer ablation %s hc: %w", p.Name, err)
		}
		return OptimizerAblationRow{
			Benchmark:   p.Name,
			GAObjective: ga.Eval.Objective, HCObjective: hc.Eval.Objective,
			GAEvals: ga.Evaluations, HCEvals: hc.Evaluations,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// Render lays out the engine comparison.
func (r *OptimizerAblation) Render() *stats.Table {
	t := stats.NewTable("Ablation: optimization engine (Fig. 2a loop, GA vs hill climbing)",
		"bench", "GA objective", "GA oracle calls", "HC objective", "HC oracle calls")
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark,
			fmt.Sprintf("%.1f", row.GAObjective), fmt.Sprintf("%d", row.GAEvals),
			fmt.Sprintf("%.1f", row.HCObjective), fmt.Sprintf("%d", row.HCEvals))
	}
	return t
}

// ScalabilityRow measures one core count.
type ScalabilityRow struct {
	NCores int
	// WCL is the Eq. 1 bound for core 0 with uniform θ.
	WCL int64
	// Cycles is the measured makespan.
	Cycles int64
	// BusUtil is the measured bus utilization.
	BusUtil float64
	// AvgLatency is the mean per-access latency over all cores.
	AvgLatency float64
}

// Scalability extends the evaluation beyond the paper's 4-core platform:
// the same workload pressure per core, swept over the core count, showing
// how the shared-bus worst case (linear in N and in Σθ) and the measured
// average case scale. This is an extension experiment — the paper evaluates
// N = 4 only.
type Scalability struct {
	Benchmark string
	Theta     config.Timer
	Rows      []ScalabilityRow
}

// ExtensionScalability sweeps the core count with a fixed uniform timer.
func ExtensionScalability(o Options, benchmark string, theta config.Timer, coreCounts []int) (*Scalability, error) {
	if len(coreCounts) == 0 {
		coreCounts = []int{2, 4, 8, 16}
	}
	p, err := o.profile(benchmark)
	if err != nil {
		return nil, err
	}
	res := &Scalability{Benchmark: p.Name, Theta: theta}
	rows, err := parallel.MapErr(o.jobs(), len(coreCounts), func(ci int) (ScalabilityRow, error) {
		n := coreCounts[ci]
		if n < 1 {
			return ScalabilityRow{}, fmt.Errorf("experiments: core count %d", n)
		}
		tr := generateTrace(p, n, 64, o.Seed)
		timers := make([]config.Timer, n)
		for i := range timers {
			timers[i] = theta
		}
		cfg, err := config.CoHoRT(n, 1, timers)
		if err != nil {
			return ScalabilityRow{}, err
		}
		run, err := runSystem(cfg, tr)
		if err != nil {
			return ScalabilityRow{}, fmt.Errorf("scalability n=%d: %w", n, err)
		}
		var lat, acc int64
		for i := range run.Cores {
			lat += run.Cores[i].TotalLatency
			acc += run.Cores[i].Accesses
		}
		return ScalabilityRow{
			NCores:     n,
			WCL:        analysis.WCLCoHoRT(cfg.Lat, timers, 0),
			Cycles:     run.Cycles,
			BusUtil:    run.BusUtilization(),
			AvgLatency: float64(lat) / float64(acc),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// Render lays out the core-count sweep.
func (r *Scalability) Render() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Extension: core-count scalability (%s, uniform θ=%v)", r.Benchmark, r.Theta),
		"cores", "WCL (Eq.1)", "makespan", "bus util", "avg latency/access")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d", row.NCores),
			stats.Cycles(row.WCL), stats.Cycles(row.Cycles),
			fmt.Sprintf("%.1f%%", 100*row.BusUtil),
			fmt.Sprintf("%.1f", row.AvgLatency))
	}
	return t
}
