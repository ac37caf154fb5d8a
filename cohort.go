// Package cohort is a from-scratch reproduction of "Criticality and
// Requirement Aware Heterogeneous Coherence for Mixed Criticality Systems"
// (Bayes & Hassan, DATE 2025).
//
// CoHoRT lets the cores of one multi-core platform run different cache
// coherence protocols concurrently — a time-based protocol whose per-line
// countdown timers protect cache lines in the owner's private cache, and the
// standard snooping MSI protocol — selected per core by a single timer
// register value (θ = −1 reduces the hardware to MSI). A genetic-algorithm
// optimization engine configures the timers from per-task worst-case memory
// latency (WCML) requirements, and a per-core Mode-Switch LUT re-programs
// them at run time when the mixed-criticality system changes operating mode,
// degrading low-criticality cores to MSI instead of suspending them.
//
// The package is a facade over the implementation in internal/…:
//
//   - Workloads: deterministic synthetic SPLASH-2-shaped traces
//     (Profiles, ProfileByName, Profile.Generate, ParseTrace).
//   - Platform: validated configurations for CoHoRT and the paper's
//     baselines (PaperDefaults, NewCoHoRT, NewPCC, NewPENDULUM, NewMSIFCFS).
//   - Simulation: the cycle-accurate multi-core cache simulator
//     (NewSystem, System.Run, System.ScheduleModeSwitch).
//   - Analysis: the paper's §IV timing analysis (Bounds, WCLCoHoRT,
//     GuaranteedHits, SaturationTimer).
//   - Optimization: the §V requirement-aware timer optimizer
//     (Problem, Optimize, DefaultGA).
//   - Experiments: regeneration of every evaluation artifact
//     (Fig5, Fig6, Fig7, Table1, Table2 and the ablations).
//
// A minimal end-to-end use:
//
//	profile, _ := cohort.ProfileByName("fft")
//	tr := profile.Generate(4, 64, 42)
//	cfg, _ := cohort.NewCoHoRT(4, 1, []cohort.Timer{300, 20, 20, 20})
//	sys, _ := cohort.NewSystem(cfg, tr)
//	run, _ := sys.Run()
//	fmt.Println(run)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package cohort

import (
	"io"

	"cohort/internal/analysis"
	"cohort/internal/config"
	"cohort/internal/core"
	"cohort/internal/experiments"
	"cohort/internal/hwcost"
	"cohort/internal/obs"
	"cohort/internal/opt"
	"cohort/internal/sched"
	"cohort/internal/stats"
	"cohort/internal/trace"
	"cohort/internal/vcd"
)

// --- configuration -----------------------------------------------------

// Core types re-exported from the configuration model.
type (
	// Timer is a per-core coherence timer register value θ (§III-B):
	// θ ≥ 1 selects time-based coherence, TimerMSI (−1) the snooping MSI
	// protocol, TimerNoCache (0) a non-caching core.
	Timer = config.Timer
	// SystemConfig describes a complete platform: cores with criticality
	// levels and per-mode timer LUTs, cache geometry, latencies, arbiter.
	SystemConfig = config.System
	// CoreConfig is one core's criticality, timer LUT and requirements.
	CoreConfig = config.Core
	// CacheGeometry describes one cache level.
	CacheGeometry = config.CacheGeometry
	// Latencies holds the platform's fixed access latencies.
	Latencies = config.Latencies
	// Arbiter selects the bus arbitration mechanism.
	Arbiter = config.Arbiter
	// Transfer selects direct or via-memory ownership handovers.
	Transfer = config.Transfer
)

// Timer and enum constants.
const (
	TimerMSI     = config.TimerMSI
	TimerNoCache = config.TimerNoCache
	TimerMax     = config.TimerMax

	// MaxCores is the most cores a platform may have.
	MaxCores = config.MaxCores
	// MaxLevels is the most criticality levels (operating modes) a
	// platform may have.
	MaxLevels = config.MaxLevels

	ArbiterRROF = config.ArbiterRROF
	ArbiterRR   = config.ArbiterRR
	ArbiterFCFS = config.ArbiterFCFS
	ArbiterTDM  = config.ArbiterTDM

	TransferDirect    = config.TransferDirect
	TransferViaMemory = config.TransferViaMemory
)

// PaperDefaults returns the evaluation platform of §VIII (4 cores, 16 KiB
// direct-mapped L1s, 8-way LLC, latencies 1/4/50, perfect LLC, RROF).
func PaperDefaults(nCores, levels int) *SystemConfig {
	return config.PaperDefaults(nCores, levels)
}

// NewCoHoRT configures the proposed system with the given mode-1 timers.
func NewCoHoRT(nCores, levels int, timers []Timer) (*SystemConfig, error) {
	return config.CoHoRT(nCores, levels, timers)
}

// NewPCC configures the predictable-MSI baseline (via-memory handovers).
func NewPCC(nCores int) *SystemConfig { return config.PCC(nCores) }

// NewPENDULUM configures the PENDULUM baseline (TDM, fixed timers on Cr
// cores, nCr cores served only in idle slots).
func NewPENDULUM(critical []bool) *SystemConfig { return config.PENDULUM(critical) }

// NewPENDULUMStar configures the PENDULUM* comparator ([17]): all cores
// timed under RROF — requirement-aware but neither heterogeneous nor
// criticality-aware.
func NewPENDULUMStar(timers []Timer) (*SystemConfig, error) { return config.PENDULUMStar(timers) }

// NewMSIFCFS configures the COTS baseline of Fig. 6.
func NewMSIFCFS(nCores int) *SystemConfig { return config.MSIFCFS(nCores) }

// ParseConfig decodes and validates a JSON platform description.
func ParseConfig(data []byte) (*SystemConfig, error) { return config.ParseJSON(data) }

// --- workloads -----------------------------------------------------------

// Workload types re-exported from the trace model.
type (
	// Trace is a multi-core workload, one access stream per core.
	Trace = trace.Trace
	// Stream is one core's ordered access sequence.
	Stream = trace.Stream
	// Access is a single memory reference.
	Access = trace.Access
	// Profile parameterizes the synthetic SPLASH-2-shaped generator.
	Profile = trace.Profile
	// TraceSummary aggregates descriptive statistics of a trace.
	TraceSummary = trace.Summary
)

// Access kinds.
const (
	Read  = trace.Read
	Write = trace.Write
)

// Profiles returns the benchmark suite (fft, lu, radix, ocean, barnes,
// water, cholesky, raytrace), sized after the paper's request counts.
func Profiles() []Profile { return trace.Profiles() }

// ProfileByName returns the named benchmark profile.
func ProfileByName(name string) (Profile, error) { return trace.ProfileByName(name) }

// ProfileNames lists the suite in order.
func ProfileNames() []string { return trace.ProfileNames() }

// CheckScale reports whether every profile in ps, scaled by f, generates a
// well-formed trace at lineBytes-byte lines (see trace.CheckScale).
func CheckScale(f float64, lineBytes int, ps ...Profile) error {
	return trace.CheckScale(f, lineBytes, ps...)
}

// ParseTrace decodes a trace from its text encoding.
func ParseTrace(r io.Reader) (*Trace, error) { return trace.Parse(r) }

// ParseBinaryTrace decodes a trace from the compact binary encoding
// (Trace.WriteBinary).
func ParseBinaryTrace(r io.Reader) (*Trace, error) { return trace.ParseBinary(r) }

// TraceDecoding is a binary trace still being decoded; System.Follow runs
// on it while it decodes.
type TraceDecoding = trace.Decoding

// DecodeBinaryTrace starts decoding a binary trace on a goroutine of its
// own (see trace.DecodeBinary).
func DecodeBinaryTrace(r io.Reader) (*TraceDecoding, error) { return trace.DecodeBinary(r) }

// ParseDinero decodes one core's stream from the classic Dinero ("din")
// cache-trace format.
func ParseDinero(r io.Reader) (Stream, error) { return trace.ParseDinero(r) }

// TraceFromStreams assembles a multi-core Trace from per-core streams
// (e.g. one Dinero file per core).
func TraceFromStreams(name string, streams ...Stream) *Trace {
	return trace.FromStreams(name, streams...)
}

// SummarizeTrace computes descriptive statistics at line granularity.
func SummarizeTrace(t *Trace, lineBytes int) TraceSummary {
	return trace.Summarize(t, lineBytes)
}

// --- simulation ------------------------------------------------------------

// Simulation types.
type (
	// System is a runnable cycle-accurate simulation instance (single-use).
	System = core.System
	// RunStats holds a run's measurements.
	RunStats = stats.Run
	// CoreStats holds one core's measurements.
	CoreStats = stats.Core
)

// NewSystem builds a simulator from a validated configuration and a
// workload with one stream per core.
func NewSystem(cfg *SystemConfig, tr *Trace) (*System, error) { return core.New(cfg, tr) }

// --- analysis ---------------------------------------------------------------

// CoreBound is one core's analytical result (Eq. 1 + Eq. 2/3).
type CoreBound = analysis.CoreBound

// Unbounded marks a latency with no analytical bound.
const Unbounded = analysis.Unbounded

// Bounds computes per-core analytical WCML bounds for a configuration and
// workload, dispatching on the system variant.
func Bounds(cfg *SystemConfig, tr *Trace) ([]CoreBound, error) { return analysis.Bounds(cfg, tr) }

// WCLCoHoRT evaluates Equation 1 for core i under the given timer vector.
func WCLCoHoRT(lat Latencies, timers []Timer, i int) int64 {
	return analysis.WCLCoHoRT(lat, timers, i)
}

// GuaranteedHits runs the in-isolation static cache analysis (M_hit(θ)).
func GuaranteedHits(s Stream, geom CacheGeometry, lat Latencies, theta Timer, wcl int64) (hits, misses int64) {
	return analysis.GuaranteedHits(s, geom, lat, theta, wcl)
}

// SaturationTimer sweeps θ in isolation and returns θ_is (§V).
func SaturationTimer(s Stream, geom CacheGeometry, lat Latencies) (Timer, int64) {
	return analysis.SaturationTimer(s, geom, lat)
}

// --- optimization -------------------------------------------------------------

// Optimizer types.
type (
	// Problem describes one timer-optimization instance (§V).
	Problem = opt.Problem
	// GAConfig tunes the genetic algorithm.
	GAConfig = opt.GAConfig
	// OptimizeResult is the optimizer's output.
	OptimizeResult = opt.Result
)

// DefaultGA returns the GA parameters used by the experiment harness.
func DefaultGA(seed uint64) GAConfig { return opt.DefaultGA(seed) }

// Optimize runs the genetic algorithm over timer vectors.
func Optimize(p *Problem, gc GAConfig) (*OptimizeResult, error) { return opt.Optimize(p, gc) }

// HCConfig tunes the hill-climbing optimizer.
type HCConfig = opt.HCConfig

// DefaultHC returns the hill-climbing parameters used by the ablation.
func DefaultHC(seed uint64) HCConfig { return opt.DefaultHC(seed) }

// HillClimb runs the alternative optimization engine (random-restart
// coordinate descent) over the same Fig. 2a oracle loop.
func HillClimb(p *Problem, hc HCConfig) (*OptimizeResult, error) { return opt.HillClimb(p, hc) }

// --- experiments ---------------------------------------------------------------

// Experiment types.
type (
	// ExperimentOptions sizes the experiment harness.
	ExperimentOptions = experiments.Options
	// Fig5Result / Fig6Result / Fig7Result reproduce the paper's figures.
	Fig5Result = experiments.Fig5Result
	Fig6Result = experiments.Fig6Result
	Fig7Result = experiments.Fig7Result
	// Table2Result regenerates Table II through the optimizer.
	Table2Result = experiments.Table2Result
	// ResultTable is an aligned text/markdown table.
	ResultTable = stats.Table
)

// DefaultExperimentOptions returns the sizing used by cmd/cohort-bench.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// Fig5 regenerates one sub-figure of Fig. 5 ("all-cr", "2cr-2ncr",
// "1cr-3ncr").
func Fig5(o ExperimentOptions, scenario string) (*Fig5Result, error) {
	return experiments.Fig5(o, scenario)
}

// Fig6 regenerates one sub-figure of Fig. 6.
func Fig6(o ExperimentOptions, scenario string) (*Fig6Result, error) {
	return experiments.Fig6(o, scenario)
}

// Fig7 regenerates the mode-switch experiment of Fig. 7.
func Fig7(o ExperimentOptions, benchmark string, f2, f3 float64) (*Fig7Result, error) {
	return experiments.Fig7(o, benchmark, f2, f3)
}

// Table1 renders the challenge matrix of Table I.
func Table1() *ResultTable { return experiments.Table1() }

// Table2 regenerates Table II by running the optimizer per mode.
func Table2(o ExperimentOptions, benchmark string) (*Table2Result, error) {
	return experiments.Table2(o, benchmark)
}

// --- hardware cost, scheduling, observability -------------------------------

// HWCostReport summarizes the CoHoRT hardware overhead of a configuration
// (per-line countdown counters, timer register, Mode-Switch LUT; §III-B).
type HWCostReport = hwcost.Report

// HardwareCost computes the silicon-overhead report for a configuration.
func HardwareCost(cfg *SystemConfig) (HWCostReport, error) { return hwcost.ForSystem(cfg) }

// Scheduling types (the §II task model made actionable).
type (
	// Task is one mixed-criticality task mapped to one core.
	Task = sched.Task
	// Verdict is one task's admission result at one mode.
	Verdict = sched.Verdict
)

// Admission checks every task at the given mode against per-core WCML
// bounds.
func Admission(tasks []Task, bounds []CoreBound, mode, levels int) ([]Verdict, error) {
	return sched.Admission(tasks, bounds, mode, levels)
}

// SetSchedulable reports whether every verdict passes.
func SetSchedulable(vs []Verdict) bool { return sched.SetSchedulable(vs) }

// LowestFeasibleMode returns the first mode ≥ from at which the task set is
// schedulable — the selection policy of the Fig. 7 experiment.
func LowestFeasibleMode(tasks []Task, boundsPerMode [][]CoreBound, from int) (mode int, verdicts []Verdict, ok bool, err error) {
	return sched.LowestFeasibleMode(tasks, boundsPerMode, from)
}

// Observability types.
type (
	// TraceEvent is one simulator event delivered to an attached Tracer.
	TraceEvent = core.TraceEvent
	// Tracer receives simulator events (see System.SetTracer).
	Tracer = core.Tracer
	// VCDRecorder renders the event stream as a Value Change Dump.
	VCDRecorder = vcd.Recorder
	// Governor is the closed-loop mode-switch controller.
	Governor = core.Governor
	// GovernorDecision is one governor sampling point.
	GovernorDecision = core.GovernorDecision
	// LatencyHistogram is a power-of-two-bucket latency distribution.
	LatencyHistogram = stats.Histogram
)

// Trace event kinds.
const (
	EvBroadcast  = core.EvBroadcast
	EvData       = core.EvData
	EvMissStart  = core.EvMissStart
	EvMissEnd    = core.EvMissEnd
	EvInvalidate = core.EvInvalidate
	EvModeSwitch = core.EvModeSwitch
)

// Snooping protocol families.
const (
	SnoopMSI  = config.SnoopMSI
	SnoopMESI = config.SnoopMESI
)

// NewVCDRecorder builds a waveform recorder for nCores cores writing to w;
// attach it with System.SetTracer and Close it after Run.
func NewVCDRecorder(w io.Writer, nCores int) (*VCDRecorder, error) {
	return vcd.NewRecorder(w, nCores)
}

// Metrics / span / manifest types (internal/obs; see DESIGN.md §10).
type (
	// MetricsRegistry collects deterministic counters, gauges and histograms
	// from an attached System (System.SetMetrics), optimizer (GAConfig.Metrics)
	// or experiment run (ExperimentOptions.Metrics).
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is the registry state in canonical order.
	MetricsSnapshot = obs.Snapshot
	// MetricLabel is one key=value metric dimension.
	MetricLabel = obs.Label
	// SpanRecorder collects spans and instants and exports Chrome trace-event
	// JSON for Perfetto (System.SetRecorder, GAConfig.Recorder,
	// ExperimentOptions.Recorder).
	SpanRecorder = obs.Recorder
	// RunManifest describes one CLI invocation for cmd/cohort-report.
	RunManifest = obs.Manifest
	// ManifestClock abstracts the wall clock used only for manifests.
	ManifestClock = obs.Clock
	// WallClock is the production ManifestClock.
	WallClock = obs.WallClock
	// ManualClock is a fixed-time ManifestClock for reproducible manifests.
	ManualClock = obs.ManualClock
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewSpanRecorder returns an empty span recorder.
func NewSpanRecorder() *SpanRecorder { return obs.NewRecorder() }

// NewRunManifest starts a manifest for the named tool.
func NewRunManifest(tool string, clk ManifestClock) *RunManifest { return obs.NewManifest(tool, clk) }

// LoadManifests reads every *.manifest.json in dir in sorted order.
func LoadManifests(dir string) ([]*RunManifest, error) { return obs.LoadDir(dir) }
