// Package experiments regenerates every table and figure of the paper's
// evaluation (§VIII): the WCML comparisons of Fig. 5, the normalized
// execution times of Fig. 6, the mode-switch experiment of Fig. 7, the
// challenge matrix of Table I and the per-mode timer configurations of
// Table II — plus ablations over the design choices (arbiter, transfer
// policy, timer value). Each runner returns a structured result with a
// renderer; cmd/cohort-bench and the root bench_test.go drive them.
package experiments

import (
	"fmt"
	"math"

	"cohort/internal/obs"
	"cohort/internal/opt"
	"cohort/internal/parallel"
	"cohort/internal/trace"
)

// Options controls workload sizing and optimizer effort. The paper runs
// full SPLASH-2 executions and Matlab GA runs of up to 20 hours; the
// defaults here scale the traces so the whole suite regenerates in tens of
// seconds while preserving the sharing structure (see DESIGN.md §1).
type Options struct {
	// Scale multiplies each profile's paper-calibrated access count.
	Scale float64
	// MaxAccessesPerCore caps Λ_i after scaling (0 = no cap); keeps
	// ocean-sized profiles tractable.
	MaxAccessesPerCore int
	// Seed drives trace generation.
	Seed uint64
	// Benchmarks selects profiles by name (nil = the full suite).
	Benchmarks []string
	// GA tunes the optimization engine.
	GA opt.GAConfig
	// NCores is the platform width (the paper evaluates 4).
	NCores int
	// Jobs caps the worker pool that evaluates independent experiment cells
	// (one benchmark × one system configuration): 1 forces the legacy serial
	// path, anything below 1 selects runtime.NumCPU(). Every runner's result
	// is byte-identical for every value.
	Jobs int
	// Metrics, when non-nil, receives each runner's deterministic summary
	// metrics (figure/cell counters, headline ratios). Published post-hoc in
	// coordinator order — never probed by racing cells — so snapshots are
	// byte-identical for every Jobs value (see observe.go). The GA fields of
	// the same name are stripped before memoized Optimize calls.
	Metrics *obs.Registry
	// Recorder, when non-nil, receives one span per completed figure on the
	// obs.PidExperiments track, timestamped by figure sequence number.
	Recorder *obs.Recorder
}

// jobs resolves the effective cell worker count.
func (o *Options) jobs() int { return parallel.DefaultWorkers(o.Jobs) }

// DefaultOptions returns the settings used by cmd/cohort-bench and the
// benchmarks.
func DefaultOptions() Options {
	ga := opt.DefaultGA(1)
	ga.Pop, ga.Generations = 20, 16
	return Options{
		Scale:              0.05,
		MaxAccessesPerCore: 4000,
		Seed:               42,
		GA:                 ga,
		NCores:             4,
	}
}

// QuickOptions returns a reduced configuration for tests.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Scale = 0.01
	o.MaxAccessesPerCore = 800
	o.GA.Pop, o.GA.Generations = 8, 6
	o.Benchmarks = []string{"fft", "water"}
	return o
}

// profiles resolves the selected benchmark profiles.
func (o *Options) profiles() ([]trace.Profile, error) {
	names := o.Benchmarks
	if len(names) == 0 {
		names = trace.ProfileNames()
	}
	out := make([]trace.Profile, 0, len(names))
	for _, n := range names {
		p, err := trace.ProfileByName(n)
		if err != nil {
			return nil, err
		}
		p = p.Scaled(o.Scale)
		if o.MaxAccessesPerCore > 0 && p.AccessesPerCore > o.MaxAccessesPerCore {
			p.AccessesPerCore = o.MaxAccessesPerCore
		}
		out = append(out, p)
	}
	return out, nil
}

// generate returns the trace for one profile, shared process-wide through
// the trace memo (memo.go).
func (o *Options) generate(p trace.Profile) *trace.Trace {
	return generateTrace(p, o.NCores, 64, o.Seed)
}

// profile resolves one named profile with the options' sizing applied.
func (o *Options) profile(name string) (trace.Profile, error) {
	p, err := trace.ProfileByName(name)
	if err != nil {
		return trace.Profile{}, err
	}
	p = p.Scaled(o.Scale)
	if o.MaxAccessesPerCore > 0 && p.AccessesPerCore > o.MaxAccessesPerCore {
		p.AccessesPerCore = o.MaxAccessesPerCore
	}
	return p, nil
}

// Scenario is one criticality configuration of Fig. 5 / Fig. 6.
type Scenario struct {
	// Name labels the sub-figure ("all-cr", "2cr-2ncr", "1cr-3ncr").
	Name string
	// Critical marks the Cr cores.
	Critical []bool
}

// Scenarios returns the paper's three configurations for n cores: all
// critical, half critical, one critical.
func Scenarios(n int) []Scenario {
	all := make([]bool, n)
	half := make([]bool, n)
	one := make([]bool, n)
	for i := 0; i < n; i++ {
		all[i] = true
		half[i] = i < (n+1)/2
		one[i] = i == 0
	}
	return []Scenario{
		{Name: "all-cr", Critical: all},
		{Name: "2cr-2ncr", Critical: half},
		{Name: "1cr-3ncr", Critical: one},
	}
}

// ScenarioByName returns the named scenario.
func ScenarioByName(n int, name string) (Scenario, error) {
	for _, sc := range Scenarios(n) {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("experiments: unknown scenario %q", name)
}

// geomean returns the geometric mean of positive values (0 when empty).
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
