package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"cohort/internal/config"
	"cohort/internal/experiments"
	"cohort/internal/trace"
)

// nCores is the platform width of every workload (the paper's 4 cores).
const nCores = 4

// fig5aPaperBenches is the Fig. 5a subset run at paper length. ocean is left
// out because it alone takes about 7 s, which would swamp the other six.
var fig5aPaperBenches = []string{"fft", "lu", "radix", "barnes", "water", "cholesky", "raytrace"}

// workload is one named set of inputs and the CLI invocations that consume
// them. A cohort-bench workload is described by its experiment options; a
// cohort-sim workload by one generated trace file and the platforms
// simulated on it.
type workload struct {
	name string

	// cohort-bench workloads. suite marks the one that runs every
	// experiment runner rather than Fig. 5a alone.
	benchArgs []string
	options   func(seed uint64) experiments.Options
	suite     bool

	// cohort-sim workloads.
	profile   string
	scale     float64
	traceFile string
	sims      []simSpec
}

// simSpec is one cohort-sim platform: the CLI flags and, for the traced
// replay, the identical configuration.
type simSpec struct {
	system     string // cohort | pcc | pendulum | msifcfs
	timers     []config.Timer
	levels     int
	nonperfect bool
	switches   []modeSwitch
}

type modeSwitch struct {
	at   int64
	mode int
}

// workloads lists the benchmark's workloads in the order a round runs them.
// BENCHMARK.json records why each was chosen; bench/README.md gives the
// full rationale.
var workloads = []*workload{
	{
		name: "fig5a-paper",
		benchArgs: []string{"-run", "fig5a", "-j", "1", "-scale", "1", "-cap", "0",
			"-benches", strings.Join(fig5aPaperBenches, ",")},
		options: func(seed uint64) experiments.Options {
			o := benchOptions(seed)
			o.Scale, o.MaxAccessesPerCore = 1, 0
			o.Benchmarks = fig5aPaperBenches
			return o
		},
	},
	{
		name:      "suite",
		benchArgs: []string{"-run", "all", "-j", "1"},
		options:   benchOptions,
		suite:     true,
	},
	{
		name:      "sim-ocean",
		profile:   "ocean",
		scale:     1,
		traceFile: "ocean.ctrb",
		sims: []simSpec{
			{system: "cohort", timers: []config.Timer{300, 100, 50, -1}, levels: 1},
			{system: "pcc", levels: 1},
			{system: "pendulum", levels: 1},
			{system: "msifcfs", levels: 1},
		},
	},
	{
		name:      "sim-radix-llc",
		profile:   "radix",
		scale:     40,
		traceFile: "radix40.ctrb",
		sims: []simSpec{{
			system: "cohort", timers: []config.Timer{300, 20, 20, 20}, levels: 4, nonperfect: true,
			switches: []modeSwitch{{25_000_000, 2}, {50_000_000, 3}, {75_000_000, 4}},
		}},
	},
}

// benchOptions mirrors what `cohort-bench -j 1 -seed <seed>` configures at
// its default flags.
func benchOptions(seed uint64) experiments.Options {
	o := experiments.DefaultOptions()
	o.Seed = seed
	o.Jobs = 1
	o.GA.Workers = 1
	return o
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// invocation is one CLI process of a repetition.
type invocation struct {
	tool string // binary name under the build directory
	args []string
}

func (w *workload) invocations(seed uint64) []invocation {
	if w.sims == nil {
		args := append(append([]string(nil), w.benchArgs...), "-seed", strconv.FormatUint(seed, 10))
		return []invocation{{tool: "cohort-bench", args: args}}
	}
	out := make([]invocation, len(w.sims))
	for i, s := range w.sims {
		out[i] = invocation{tool: "cohort-sim", args: s.args(w.traceFile)}
	}
	return out
}

func (s simSpec) args(traceFile string) []string {
	args := []string{"-trace", traceFile, "-system", s.system}
	if s.timers != nil {
		ts := make([]string, len(s.timers))
		for i, t := range s.timers {
			ts[i] = strconv.Itoa(int(t))
		}
		args = append(args, "-timers", strings.Join(ts, ","))
	}
	if s.nonperfect {
		args = append(args, "-nonperfect")
	}
	if s.levels > 1 {
		args = append(args, "-levels", strconv.Itoa(s.levels))
	}
	if s.switches != nil {
		sw := make([]string, len(s.switches))
		for i, m := range s.switches {
			sw[i] = fmt.Sprintf("%d:%d", m.at, m.mode)
		}
		args = append(args, "-switch", strings.Join(sw, ","))
	}
	return args
}

// config builds the platform cohort-sim builds for these flags.
func (s simSpec) config() (*config.System, error) {
	var cfg *config.System
	switch s.system {
	case "cohort":
		var err error
		if cfg, err = config.CoHoRT(nCores, s.levels, s.timers); err != nil {
			return nil, err
		}
	case "pcc":
		cfg = config.PCC(nCores)
	case "pendulum":
		crit := make([]bool, nCores)
		for i := range crit {
			crit[i] = true
		}
		cfg = config.PENDULUM(crit)
	case "msifcfs":
		cfg = config.MSIFCFS(nCores)
	default:
		return nil, fmt.Errorf("unknown system %q", s.system)
	}
	if s.nonperfect {
		cfg.PerfectLLC = false
	}
	return cfg, nil
}

// profiles resolves the options' benchmark profiles with their sizing
// applied, as the experiment harness does before generating each trace.
func profiles(o experiments.Options) ([]trace.Profile, error) {
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

// simTrace generates a cohort-sim workload's trace.
func (w *workload) simTrace(seed uint64) (*trace.Trace, error) {
	p, err := trace.ProfileByName(w.profile)
	if err != nil {
		return nil, err
	}
	return p.Scaled(w.scale).Generate(nCores, 64, seed), nil
}

// setup builds the workload's inputs in dir; the setup child times it as
// setup_s. A cohort-sim workload gets its trace file. cohort-bench
// generates its traces itself, so for those workloads setup is the same
// generation, done once per distinct trace and then dropped.
func (w *workload) setup(dir string, seed uint64) error {
	if w.sims == nil {
		ps, err := profiles(w.options(seed))
		if err != nil {
			return err
		}
		for _, p := range ps {
			if p.Generate(nCores, 64, seed).TotalAccesses() == 0 {
				return fmt.Errorf("setup: empty %s trace", p.Name)
			}
		}
		return nil
	}
	tr, err := w.simTrace(seed)
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, w.traceFile))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := tr.WriteBinary(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var (
	simCyclesRE = regexp.MustCompile(`(?m)^run: (\d+) cycles`)
	simBoundRE  = regexp.MustCompile(`(?m)^  core (\d+) \(θ=.*\): measured (\d+), bound (\w+),`)
	pccRatioRE  = regexp.MustCompile(`Fig\. 5 \(all-cr\): CoHoRT bounds are ([0-9.]+)x tighter than PCC`)
)

// checkOutput applies the workload-level checks to one invocation's stdout:
// cohort-sim must print its cycle count and no numeric bound below the
// measured WCML it reports next to it.
func checkOutput(inv invocation, stdout []byte) error {
	if inv.tool != "cohort-sim" {
		return nil
	}
	if simCyclesRE.Find(stdout) == nil {
		return fmt.Errorf("no cycle count in output")
	}
	rows := simBoundRE.FindAllSubmatch(stdout, -1)
	if len(rows) != nCores {
		return fmt.Errorf("%d per-core WCML rows, want %d", len(rows), nCores)
	}
	for _, m := range rows {
		if string(m[3]) == "unbounded" {
			continue
		}
		measured, _ := strconv.ParseInt(string(m[2]), 10, 64)
		bound, err := strconv.ParseInt(string(m[3]), 10, 64)
		if err != nil {
			return fmt.Errorf("core %s: bad bound %q", m[1], m[3])
		}
		if measured > bound {
			return fmt.Errorf("core %s: measured WCML %d exceeds bound %d", m[1], measured, bound)
		}
	}
	return nil
}

// simCycles returns the simulated cycles cohort-sim reports (0 if none).
func simCycles(stdout []byte) int64 {
	m := simCyclesRE.FindSubmatch(stdout)
	if m == nil {
		return 0
	}
	v, _ := strconv.ParseInt(string(m[1]), 10, 64)
	return v
}

// pccBoundRatio returns the Fig. 5 all-cr geomean of PCC bound ÷ CoHoRT
// bound that cohort-bench prints (0 if the output has none).
func pccBoundRatio(stdout []byte) float64 {
	m := pccRatioRE.FindSubmatch(stdout)
	if m == nil {
		return 0
	}
	v, _ := strconv.ParseFloat(string(m[1]), 64)
	return v
}
