// Package model is an explicit-state model checker for the CoHoRT protocol
// in the Murphi tradition: it exhaustively enumerates the reachable
// quiescent states of a small configuration (2–3 cores, 1–2 lines, a handful
// of timer values, 2 criticality modes) and checks every protocol invariant
// — SWMR, value consistency, LLC inclusion, exact timer release, mode-switch
// LUT fidelity, deadlock and livelock freedom — at every reachable state.
//
// Unlike a hand-written transition table, the checker drives the *real*
// simulator: each explored state is reached by replaying an event script
// (internal/model.Script) through a fresh core.System with invariant
// checking enabled, so the transition relation being verified is the
// shipping protocol implementation itself (the pure rules in
// internal/core/rules.go and the directory/timer logic in
// internal/coherence). A bug cannot hide in a modeling gap because there is
// no second model.
//
// Exploration is breadth-first over scripts: each frontier node is extended
// by one window drawn from a finite menu of command bursts (single accesses,
// racing access pairs at protocol-aligned offsets, mode switches, and
// access/switch races). The quiescent state after each replay is canonically
// encoded — timer phases reduced to residues, write versions to deltas, LRU
// stamps to ranks, and core identities folded under the symmetry group of
// identically-configured cores — and deduplicated through an in-memory set
// of visited states. A violation surfaces as a minimized Script: a complete,
// deterministic counterexample replayable in the simulator and renderable
// as a Perfetto trace.
package model

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"cohort/internal/cache"
	"cohort/internal/coherence"
	"cohort/internal/config"
	"cohort/internal/core"
	"cohort/internal/invariant"
	"cohort/internal/obs"
	"cohort/internal/sim"
	"cohort/internal/stats"
)

// Config parameterizes one exhaustive exploration.
type Config struct {
	// Sys is the platform under test. It is cloned; invariant checking is
	// forced on regardless of the flag in the input.
	Sys *config.System
	// Lines are the byte addresses the workload touches (distinct lines).
	Lines []uint64
	// Depth bounds the script length in windows (BFS depth).
	Depth int
	// PostGaps are the window start offsets, in cycles, after the previous
	// quiescent boundary. Defaults to 0..4, covering every residue of the
	// small timer moduli. Each must lie below the window stride, which
	// exceeds every LUT timer, so every residue stays reachable.
	PostGaps []int64
	// RaceOffsets are the intra-window delays of a second racing command.
	// Defaults to the protocol-aligned set {0, 1, Req, Req+1, Req+Data,
	// Req+Data+1} so races land exactly on broadcast and transfer edges.
	// Each must lie in [0, config.TimerMax].
	RaceOffsets []int64
	// Pairs enables two-command race windows (on by default in presets;
	// singles-only exploration is a faster shallow tier).
	Pairs bool
	// Symmetry folds states under permutations of identically-configured
	// cores. Only applied under the RROF and RR arbiters, whose policies are
	// equivariant under core renaming; FCFS breaks ties by core id and TDM's
	// slot schedule is id-ordered, so symmetry is silently disabled there.
	Symmetry bool
	// Mutation names a seeded protocol fault (MutationNames) to arm while
	// each replay runs; "" checks the protocol as shipped. The fault hooks
	// are process-global, so never replay concurrently with one armed.
	Mutation string
	// Progress, when non-nil, receives one line per completed BFS level.
	Progress func(format string, args ...any)
}

// Result summarizes an exploration.
type Result struct {
	// States is the number of distinct canonical quiescent states reached,
	// including the initial state.
	States int64
	// Runs is the number of full simulator replays executed.
	Runs int64
	// Depth is the number of BFS levels fully expanded.
	Depth int
	// Violation is the first property violation found, or nil if every
	// explored state satisfied every invariant.
	Violation *Violation
}

// Violation is a failed check with its reproduction.
type Violation struct {
	// Kind classifies the violation: an invariant.Kind string, "deadlock",
	// "livelock", "coherence" (final-sweep failure), "quiescence" or
	// "overrun" (the run failed to settle inside its window stride).
	Kind string
	// Err is the full violation message from the simulator.
	Err string
	// Script is the exploration script that reached the violation.
	Script *Script
	// Minimized is the greedily minimized counterexample: windows dropped,
	// races reduced to single commands, gaps and offsets shrunk — every step
	// verified to preserve the violation kind by replay.
	Minimized *Script
}

// Checker is a configured explorer. Build one with New; Explore and Replay
// may be called repeatedly (each replay builds a fresh single-use System).
type Checker struct {
	cfg       Config
	sys       *config.System
	lines     []uint64 // byte addresses, as configured
	lineAddrs []uint64 // line-granularity addresses, same order
	lineIdx   map[uint64]int
	l1Sets    []int
	llcSets   []int
	stride    int64
	perms     [][]int
	winCache  map[int][]Window

	// lruScratch backs the per-set snapshots taken while encoding a state;
	// encode runs once per (state, permutation) and is the checker's hottest
	// loop, so the buffer is reused across calls (cache.AppendEntriesLRU).
	lruScratch []*cache.Entry
}

// New validates the exploration config and precomputes the schedule stride,
// the symmetry group, and the line index maps.
func New(cfg Config) (*Checker, error) {
	if cfg.Sys == nil {
		return nil, errors.New("model: nil system config")
	}
	sys := cfg.Sys.Clone()
	sys.CheckInvariants = true
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if sys.N() > 8 {
		return nil, fmt.Errorf("model: %d cores; exhaustive exploration supports at most 8", sys.N())
	}
	if len(cfg.Lines) == 0 || len(cfg.Lines) > 250 {
		return nil, fmt.Errorf("model: need 1..250 lines, got %d", len(cfg.Lines))
	}
	if cfg.Depth < 0 {
		return nil, fmt.Errorf("model: negative depth %d", cfg.Depth)
	}
	if cfg.Mutation != "" && !slices.Contains(MutationNames(), cfg.Mutation) {
		return nil, fmt.Errorf("model: unknown mutation %q (have %v)", cfg.Mutation, MutationNames())
	}
	if len(cfg.PostGaps) == 0 {
		cfg.PostGaps = []int64{0, 1, 2, 3, 4}
	}
	if len(cfg.RaceOffsets) == 0 {
		r, d := sys.Lat.Req, sys.Lat.Data
		cfg.RaceOffsets = []int64{0, 1, r, r + 1, r + d, r + d + 1}
	}
	for _, d := range cfg.RaceOffsets {
		if d < 0 || d > int64(config.TimerMax) {
			return nil, fmt.Errorf("model: race-offset menu entry %d outside [0, %d]", d, config.TimerMax)
		}
	}

	c := &Checker{cfg: cfg, sys: sys, lineIdx: make(map[uint64]int), winCache: make(map[int][]Window)}
	lineShift := uint(0)
	for 1<<lineShift < sys.L1.LineBytes {
		lineShift++
	}
	l1SetSeen, llcSetSeen := map[int]bool{}, map[int]bool{}
	for _, addr := range cfg.Lines {
		la := addr >> lineShift
		if _, dup := c.lineIdx[la]; dup {
			return nil, fmt.Errorf("model: addresses map to duplicate line %#x", la)
		}
		c.lineIdx[la] = len(c.lines)
		c.lines = append(c.lines, addr)
		c.lineAddrs = append(c.lineAddrs, la)
		s1 := int(la) & (sys.L1.Sets() - 1)
		if !l1SetSeen[s1] {
			l1SetSeen[s1] = true
			c.l1Sets = append(c.l1Sets, s1)
		}
		s2 := int(la) & (sys.LLC.Sets() - 1)
		if !llcSetSeen[s2] {
			llcSetSeen[s2] = true
			c.llcSets = append(c.llcSets, s2)
		}
	}
	sort.Ints(c.l1Sets)
	sort.Ints(c.llcSets)

	maxCmds := int64(1)
	if cfg.Pairs {
		maxCmds = 2
	}
	var maxOff int64
	for _, d := range cfg.RaceOffsets {
		if d > maxOff {
			maxOff = d
		}
	}
	var maxTheta int64
	for _, co := range sys.Cores {
		for _, th := range co.TimerLUT {
			if th.Timed() && int64(th) > maxTheta {
				maxTheta = int64(th)
			}
		}
	}
	// Per-command quiescence allowance: the race offset, a broadcast, two
	// data slots (ViaMemory transfers pay two), a DRAM fill, a full timer
	// epoch the request may have to wait out, the hit latency, and slack for
	// the fixed per-transaction bookkeeping cycles. Replays assert the run
	// actually settled inside the stride, so an undersized bound is caught,
	// never silently unsound.
	perCmd := maxOff + sys.Lat.Req + 2*sys.Lat.Data + sys.Lat.DRAM + maxTheta + sys.Lat.Hit + 8
	c.stride = maxCmds * perCmd
	// A longer gap would spend the run's cycle budget on idle time and
	// report a livelock the protocol does not have.
	for _, g := range cfg.PostGaps {
		if g < 0 || g >= c.stride {
			return nil, fmt.Errorf("model: gap menu entry %d outside [0, %d), the window stride", g, c.stride)
		}
	}

	c.perms = corePerms(sys, cfg.Symmetry)
	return c, nil
}

// EmptyScript returns the zero-window script on this checker's stride (the
// BFS root).
func (c *Checker) EmptyScript() *Script { return &Script{Stride: c.stride} }

// Sys returns the (cloned, invariant-enabled) platform under test.
func (c *Checker) Sys() *config.System { return c.sys }

// Lines returns the configured byte addresses.
func (c *Checker) Lines() []uint64 { return append([]uint64(nil), c.lines...) }

// replayResult is one simulator execution of a script.
type replayResult struct {
	sys      *core.System
	run      *stats.Run
	boundary int64
	kind     string // "" when the replay was violation-free
	msg      string
}

// replay builds a fresh System for the script and runs it to completion with
// invariant checking on, classifying any violation.
func (c *Checker) replay(s *Script, rec *obs.Recorder) (*replayResult, error) {
	sched, err := computeSchedule(s)
	if err != nil {
		return nil, err
	}
	if c.cfg.Mutation != "" {
		armMutation(c.cfg.Mutation)
		defer armMutation("")
	}
	tr, err := buildTrace(c.sys, c.lines, sched)
	if err != nil {
		return nil, err
	}
	sys, err := core.New(c.sys, tr)
	if err != nil {
		return nil, err
	}
	for _, sw := range sched.switches {
		if err := sys.ScheduleModeSwitch(sw.at, sw.mode); err != nil {
			return nil, err
		}
	}
	if rec != nil {
		sys.SetRecorder(rec)
	}
	out := &replayResult{sys: sys, boundary: sched.boundary}
	run, err := sys.Run()
	if err != nil {
		out.kind, out.msg = classify(err)
		return out, nil
	}
	out.run = run
	if err := sys.CheckCoherence(); err != nil {
		out.kind, out.msg = "coherence", err.Error()
		return out, nil
	}
	if !sys.Quiescent() {
		out.kind, out.msg = "quiescence", "run completed with in-flight protocol state"
		return out, nil
	}
	if sched.boundary > 0 && run.Cycles >= sched.boundary {
		out.kind = "overrun"
		out.msg = fmt.Sprintf("run finished at cycle %d, past the window boundary %d", run.Cycles, sched.boundary)
		return out, nil
	}
	return out, nil
}

// classify maps a Run error to a violation kind.
func classify(err error) (kind, msg string) {
	var ie *invariant.Error
	switch {
	case errors.As(err, &ie):
		return ie.Kind.String(), err.Error()
	case errors.Is(err, sim.ErrBudgetExceeded):
		return "livelock", err.Error()
	case errors.Is(err, core.ErrDeadlock):
		return "deadlock", err.Error()
	default:
		return "error", err.Error()
	}
}

// ReplayOutcome is the public result of replaying one script.
type ReplayOutcome struct {
	// Run holds the measurements when the replay completed (nil on an error
	// path such as a latched invariant violation).
	Run *stats.Run
	// Violation is non-nil when the script reproduces a violation.
	Violation *Violation
	// FinalMode is the operating mode after the run.
	FinalMode int
}

// Replay runs one script through a fresh simulator and reports whether it
// violates any property. Counterexample scripts loaded with ParseScript
// replay through a Checker built from the script's own embedded config.
func (c *Checker) Replay(s *Script) (*ReplayOutcome, error) {
	return c.replayPublic(s, nil)
}

// ReplayChrome is Replay with a Perfetto/Chrome trace of the run written to
// w (load it at ui.perfetto.dev). The trace covers the cycles up to the
// violation when one occurs.
func (c *Checker) ReplayChrome(s *Script, w io.Writer) (*ReplayOutcome, error) {
	rec := obs.NewRecorder()
	out, err := c.replayPublic(s, rec)
	if err != nil {
		return nil, err
	}
	if err := rec.WriteChrome(w); err != nil {
		return nil, err
	}
	return out, nil
}

func (c *Checker) replayPublic(s *Script, rec *obs.Recorder) (*ReplayOutcome, error) {
	rr, err := c.replay(s, rec)
	if err != nil {
		return nil, err
	}
	out := &ReplayOutcome{Run: rr.run, FinalMode: rr.sys.Mode()}
	if rr.kind != "" {
		out.Violation = &Violation{Kind: rr.kind, Err: rr.msg, Script: s.clone()}
	}
	return out, nil
}

// corePerms returns the symmetry group to canonicalize under: every
// permutation of core ids that maps each core to an identically-configured
// one. Falls back to the identity when symmetry is off or the arbiter is not
// equivariant under renaming (FCFS id tie-breaks, TDM id-ordered schedule).
func corePerms(sys *config.System, symmetry bool) [][]int {
	n := sys.N()
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	if !symmetry || (sys.Arbiter != config.ArbiterRROF && sys.Arbiter != config.ArbiterRR) {
		return [][]int{id}
	}
	class := make([]string, n)
	for i, co := range sys.Cores {
		class[i] = fmt.Sprintf("%d|%v|%v", co.Criticality, co.TimerLUT, co.Requirement)
	}
	var perms [][]int
	used := make([]bool, n)
	cur := make([]int, 0, n)
	var rec func()
	rec = func() {
		if len(cur) == n {
			perms = append(perms, append([]int(nil), cur...))
			return
		}
		pos := len(cur)
		for i := 0; i < n; i++ {
			if used[i] || class[i] != class[pos] {
				continue
			}
			used[i] = true
			cur = append(cur, i)
			rec()
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	rec()
	return perms
}

// --- seeded mutations -------------------------------------------------------

// MutationNames lists the seeded protocol faults the checker is proven to
// catch (Config.Mutation, cmd/cohort-model -mutate,
// TestMutationsProduceCounterexamples).
func MutationNames() []string {
	return []string{"skip-msi-downgrade", "timer-release-skew", "stale-sharer-bitmask", "lut-off-by-one"}
}

// armMutation arms the named seeded fault and disarms every other; ""
// disarms them all.
func armMutation(name string) {
	core.TestHooks.SkipMSIDowngrade = name == "skip-msi-downgrade"
	core.TestHooks.TimerReleaseSkew = 0
	if name == "timer-release-skew" {
		core.TestHooks.TimerReleaseSkew = 3
	}
	core.TestHooks.StaleSharerBitmask = name == "stale-sharer-bitmask"
	coherence.TestHooks.LUTLookupOffByOne = name == "lut-off-by-one"
}
