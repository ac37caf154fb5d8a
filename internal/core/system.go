// Package core wires the full CoHoRT platform together: trace-driven cores
// with non-blocking private caches, the snooping bus with pluggable
// arbitration, the heterogeneous coherence engine (per-core timers, θ = −1
// reducing to MSI), the shared LLC, and run-time mode switching through the
// per-core Mode-Switch LUT. It is the cycle-accurate simulator substrate the
// paper built on Octopus, rebuilt from scratch (DESIGN.md §1).
package core

import (
	"errors"
	"fmt"

	"cohort/internal/bus"
	"cohort/internal/cache"
	"cohort/internal/coherence"
	"cohort/internal/config"
	"cohort/internal/invariant"
	"cohort/internal/memctrl"
	"cohort/internal/obs"
	"cohort/internal/sim"
	"cohort/internal/stats"
	"cohort/internal/trace"
)

// missState tracks one core's outstanding bus request (MSHR of depth 1).
type missState struct {
	line        uint64
	write       bool
	wasShared   bool  // upgrade: the core held the line in S
	issuedAt    int64 // cycle the access started (latency base; FCFS key)
	broadcasted bool
	broadcastAt int64
	dataReadyAt int64 // earliest cycle the data transfer may be granted; -1 unknown
	inFlight    bool  // currently occupying the bus
	// li is the line's directory record, kept from the broadcast on so the
	// data phase needs no second lookup. Nil before the broadcast.
	li *coherence.LineInfo
	// Latency-attribution stamps (stats.Attribution): the broadcast- and
	// data-grant cycles and the LLC/DRAM fetch penalty folded into the data
	// phase. Plain integer fields in the recycled per-core record.
	grantAt     int64
	dataGrantAt int64
	dramPenalty int64
}

// coreState is the simulator-side state of one core.
type coreState struct {
	id    int
	l1    *cache.Cache
	lut   *coherence.ModeLUT
	theta config.Timer // timer register at the current mode

	stream        trace.Stream
	pos           int
	limit         int   // accesses of stream decoded: reads stay below it
	nextEligible  int64 // earliest issue cycle of the next access
	miss          *missState
	missBuf       missState // backing for miss: MSHR depth 1 means one record per core, recycled in place
	maxCompletion int64
	finished      bool
	wakeAt        int64 // scheduled coreWake cycle (-1 none)
}

// System is a runnable simulation instance. Build one with New, run it with
// Run; a System is single-use.
type System struct {
	cfg *config.System
	eng *sim.Engine
	arb bus.Arbiter
	llc *memctrl.LLC
	dir *coherence.Directory

	cores []*coreState
	run   *stats.Run
	mode  int

	busBusyUntil int64
	busHeld      bool    // a transaction owner may still extend its tenure
	kickPending  []int64 // cycles with an arbitration round due: a queued evKick or the bus release (bounded by cores+2; linear scan beats a map here)

	// Hot-path scratch, preallocated in New / pooled across events so the
	// steady-state simulation loop performs no heap allocations.
	cands     []bus.Candidate   // arbiter candidate snapshot, one slot per core
	timerRecs []timerRec        // pooled owner-release / sharer-invalidation records
	timerFree int32             // head of the timerRecs free list (-1 empty)
	pinnedFn  func(uint64) bool // s.pinnedInL1 bound once (a method value allocates per use)

	inv    *invariant.Checker // nil unless cfg.CheckInvariants
	invErr error              // first invariant violation, latched

	feed *trace.Decoding // the decode the streams come from, if Follow was called

	modeSwitches []scheduledSwitch
	tracer       Tracer
	governor     *Governor
	governorLog  []GovernorDecision
	governorLast int64
	ran          bool

	// Observability (internal/obs). metrics and rec stay nil unless
	// SetMetrics/SetRecorder are called, keeping the unobserved hot path
	// allocation-free; the timer-window counters are plain value fields and
	// count unconditionally (an integer add each).
	metrics           *obs.Registry
	rec               *obs.Recorder
	missStart         []int64 // per-core miss-start cycle for recorder spans
	timerWindows      obs.Counter
	timerWindowCycles obs.Counter

	// Live-progress handle (obs.RunTracker). Updates are batched through
	// plain integer fields so the steady-state cost with a handle attached is
	// one increment and one branch per completed access; the atomics are
	// touched once per progressBatch completions and once at the end of Run.
	progress       *obs.RunHandle
	progressEvents int64 // completions since the last flush
	progressCycle  int64 // simulated cycle at the last flush
}

// progressBatch is how many access completions accumulate locally before
// being flushed to the progress handle's atomics.
const progressBatch = 1024

type scheduledSwitch struct {
	at   int64
	mode int
}

// New builds a system from a validated configuration and a workload trace
// with one stream per core.
func New(cfg *config.System, tr *trace.Trace) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tr.NumCores() != cfg.N() {
		return nil, fmt.Errorf("core: trace has %d streams for %d cores", tr.NumCores(), cfg.N())
	}
	cfg = cfg.Clone()

	var arb bus.Arbiter
	switch cfg.Arbiter {
	case config.ArbiterRROF:
		arb = bus.NewRROF(cfg.N())
	case config.ArbiterRR:
		arb = bus.NewRR(cfg.N())
	case config.ArbiterFCFS:
		arb = bus.NewFCFS()
	case config.ArbiterTDM:
		crit := make([]bool, cfg.N())
		for i := range crit {
			crit[i] = cfg.Critical(i)
		}
		arb = bus.NewTDM(crit, cfg.Lat.SlotWidth(), cfg.PendulumCritOnly)
	default:
		return nil, fmt.Errorf("core: unknown arbiter %v", cfg.Arbiter)
	}

	s := &System{
		cfg:         cfg,
		eng:         sim.New(),
		arb:         arb,
		llc:         memctrl.New(cfg.LLC, cfg.PerfectLLC, cfg.Lat.DRAM),
		dir:         coherence.NewDirectory(),
		run:         stats.NewRun(cfg.N()),
		mode:        cfg.Mode,
		kickPending: make([]int64, 0, cfg.N()+4),
		cands:       make([]bus.Candidate, cfg.N()),
		timerRecs:   make([]timerRec, 0, 4*cfg.N()),
		timerFree:   -1,
	}
	s.eng.SetHandler(s)
	s.pinnedFn = s.pinnedInL1
	// Steady-state queue depth: one wake/kick per core plus in-flight bus
	// events and timer expiries — far below this; reserve once so the heap
	// backing never reallocates mid-run.
	s.eng.Reserve(8*cfg.N() + 32)
	for i := 0; i < cfg.N(); i++ {
		lut, err := coherence.NewModeLUT(cfg.Cores[i].TimerLUT)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, &coreState{
			id:     i,
			l1:     cache.New(cfg.L1.SizeBytes, cfg.L1.LineBytes, cfg.L1.Ways),
			lut:    lut,
			theta:  cfg.Cores[i].TimerAt(cfg.Mode),
			stream: tr.Streams[i],
			limit:  len(tr.Streams[i]),
			wakeAt: -1,
		})
	}
	if cfg.CheckInvariants {
		s.inv = invariant.NewChecker(s)
	}
	return s, nil
}

// at schedules fn at an absolute cycle; scheduling in the past is a
// simulator bug, so it panics rather than returning an error.
func (s *System) at(cycle int64, fn func(now int64)) {
	if err := s.eng.ScheduleAt(sim.Cycle(cycle), func(now sim.Cycle) { fn(int64(now)) }); err != nil {
		panic(err)
	}
}

// Mode returns the current operating mode.
func (s *System) Mode() int { return s.mode }

// BusArbiter exposes the live arbiter instance (replaced on TDM mode
// switches). The exhaustive model checker folds its rotation state into the
// canonical state encoding; everyone else should treat it as read-only.
func (s *System) BusArbiter() bus.Arbiter { return s.arb }

// Quiescent reports whether the system has no in-flight protocol activity:
// every core finished its stream with no outstanding miss, the bus is free,
// and no directory line has waiters or an untransferred owner release. The
// exhaustive model checker snapshots states only at quiescence, where this
// must hold.
func (s *System) Quiescent() bool {
	for _, c := range s.cores {
		if !c.finished || c.miss != nil {
			return false
		}
	}
	if s.busHeld {
		return false
	}
	quiet := true
	s.dir.ForEach(func(_ uint64, li *coherence.LineInfo) {
		if li.PendingInv() || li.OwnerReleased {
			quiet = false
		}
	})
	return quiet
}

// Config returns the system's (cloned) configuration.
func (s *System) Config() *config.System { return s.cfg }

// ScheduleModeSwitch arranges a switch to the given mode at the given cycle.
// Must be called before Run.
func (s *System) ScheduleModeSwitch(at int64, mode int) error {
	if s.ran {
		return errors.New("core: ScheduleModeSwitch after Run")
	}
	if mode < 1 || mode > s.cfg.Levels {
		return fmt.Errorf("core: mode %d out of range [1,%d]", mode, s.cfg.Levels)
	}
	if at < 0 {
		return fmt.Errorf("core: negative switch cycle %d", at)
	}
	s.modeSwitches = append(s.modeSwitches, scheduledSwitch{at: at, mode: mode})
	return nil
}

// Follow makes the run read each core's stream from d's trace while d
// decodes it. A core that reaches the end of what d has decoded waits for
// more, and a decode error ends the run: Run returns it ahead of any other.
// Call it before Run.
func (s *System) Follow(d *trace.Decoding) error {
	if s.ran {
		return errors.New("core: Follow after Run")
	}
	tr := d.Trace()
	if tr.NumCores() != len(s.cores) {
		return fmt.Errorf("core: trace has %d streams for %d cores", tr.NumCores(), len(s.cores))
	}
	for i, c := range s.cores {
		c.stream, c.limit = tr.Streams[i], 0
	}
	s.feed = d
	return nil
}

// more raises c's read limit to what the decode has reached past it,
// waiting for it if need be. It reports false when no more will come: the
// decode failed, so the budget drops to cycle 1 and no later event fires.
func (s *System) more(c *coreState) bool {
	n, err := s.feed.Next(c.id, c.limit)
	if err != nil {
		s.eng.SetBudget(1)
		return false
	}
	c.limit = n
	return true
}

// ErrDeadlock is returned by Run when the event queue drains with unfinished
// cores — a protocol bug, never expected in a correct build.
var ErrDeadlock = errors.New("core: simulation deadlocked")

// CycleBudget is the livelock guard Run sets for a workload of the given
// number of accesses: the last cycle an event may fire at. A correct
// protocol finishes every access within its (loose) per-request bound, so
// a run past this generous budget is a protocol bug and fails fast instead
// of hanging the caller.
func CycleBudget(accesses int64) int64 { return 10_000_000 + accesses*1_000_000 }

// Run executes the workload to completion and returns the measurements.
func (s *System) Run() (*stats.Run, error) {
	if s.ran {
		return nil, errors.New("core: System is single-use")
	}
	s.ran = true
	var totalAccesses int64
	for _, c := range s.cores {
		totalAccesses += int64(len(c.stream))
	}
	s.eng.SetBudget(sim.Cycle(CycleBudget(totalAccesses)))
	for _, sw := range s.modeSwitches {
		s.atEvent(sw.at, evModeSwitch, 0, uint64(sw.mode), 0)
	}
	s.startGovernor()
	for _, c := range s.cores {
		if len(c.stream) == 0 {
			c.finished = true
			continue
		}
		if c.limit == 0 && !s.more(c) {
			break
		}
		c.nextEligible = c.stream[0].Gap
		s.atEvent(c.nextEligible, evCoreWake, int32(c.id), 0, 0)
	}
	err := s.eng.Run()
	// A decode error outranks every other outcome: the run read a trace
	// that is not whole.
	if s.feed != nil {
		if _, ferr := s.feed.Wait(); ferr != nil {
			return nil, ferr
		}
	}
	// An invariant violation outranks any downstream symptom (budget
	// exhaustion, deadlock): report the first breach, not the wreckage.
	if s.invErr != nil {
		return nil, s.invErr
	}
	if err != nil {
		return nil, err
	}
	for _, c := range s.cores {
		if !c.finished {
			return nil, fmt.Errorf("%w: core %d stalled at access %d/%d",
				ErrDeadlock, c.id, c.pos, len(c.stream))
		}
		s.run.Cores[c.id].FinishCycle = c.maxCompletion
		if c.maxCompletion > s.run.Cycles {
			s.run.Cycles = c.maxCompletion
		}
	}
	// Flush the batched progress remainder so a sampler sees exact final
	// totals even before the run is unregistered.
	if s.progress != nil {
		s.progress.AddEvents(s.progressEvents)
		if d := s.run.Cycles - s.progressCycle; d > 0 {
			s.progress.AddCycles(d)
		}
		s.progressEvents = 0
		s.progressCycle = s.run.Cycles
	}
	return s.run, nil
}

// applyModeSwitch re-programs every core's timer register from its
// Mode-Switch LUT (paper §VI) and re-bases the timer epochs of resident
// lines at the switch instant.
//
// Mode switches are rare, bounded-per-run reconfiguration events, not
// steady-state traffic; the arbiter rebuild and LUT sweep below allocate by
// design, so the subtree is exempt from the hot-path allocation contract
// (the runtime ceiling in TestAllocationCeiling still bounds the total).
//
//cohort:hotpath exempt
func (s *System) applyModeSwitch(now int64, mode int) {
	if mode == s.mode {
		return
	}
	s.mode = mode
	s.run.ModeSwitches++
	s.emit(TraceEvent{Cycle: now, Kind: EvModeSwitch, Core: -1, Line: uint64(mode)})
	for _, c := range s.cores {
		th, err := c.lut.Lookup(mode)
		if err != nil {
			panic(err) // LUT length was validated against Levels
		}
		c.theta = th
		// The programmed register must equal the configured LUT entry,
		// resolved through the raw per-mode slice rather than the ModeLUT
		// hardware model — the predicate that catches a corrupted LUT path.
		if s.inv != nil && s.invErr == nil {
			if err := invariant.CheckModeSwitch(now, mode, c.id, s.cfg.Cores[c.id].TimerAt(mode), th); err != nil {
				s.invErr = err
			}
		}
		// Re-base timer epochs: resident lines start a fresh epoch under the
		// new θ. For θ = −1 this makes them plain MSI lines immediately.
		c.l1.ForEach(func(e *cache.Entry) { e.FetchedAt = now })
	}
	// The TDM schedule is part of the mode configuration: reprogram it so
	// every core critical at the new mode owns slots — a statically built
	// schedule would strand a core that became critical (the crit-only rule
	// forbids serving critical cores in idle slots), livelocking the bus.
	if s.cfg.Arbiter == config.ArbiterTDM {
		crit := make([]bool, s.cfg.N())
		for i := range crit {
			crit[i] = s.critical(i)
		}
		s.arb = bus.NewTDM(crit, s.cfg.Lat.SlotWidth(), s.cfg.PendulumCritOnly)
	}
	// Owner epochs follow the re-based entries; recompute pending releases.
	s.dir.ForEach(func(line uint64, li *coherence.LineInfo) {
		if li.Owner != coherence.MemOwner {
			li.OwnerFetch = now
		}
		if li.PendingInv() {
			s.refreshLine(line, li, now)
		}
	})
	s.kickArbiter(now)
}

// Critical reports whether core i is critical at the current (dynamic) mode.
func (s *System) critical(i int) bool { return s.cfg.Cores[i].Criticality >= s.mode }

// pinnedInL1 reports whether some timed core currently holds the line; the
// LLC never back-invalidates such lines (non-perfect mode).
func (s *System) pinnedInL1(line uint64) bool {
	for _, c := range s.cores {
		if c.theta.Timed() && c.l1.Lookup(line) != nil {
			return true
		}
	}
	return false
}

// CheckCoherence applies the invariant checker's per-line rule (SWMR,
// value consistency, LLC inclusion) to every line an L1 holds, and rejects
// a cached line the directory does not track. The first violation is an
// *invariant.Error. Meant for the end of a run, when nothing is in flight
// and only cached lines carry obligations; its cost is proportional to
// cache capacity.
func (s *System) CheckCoherence() error {
	if err := invariant.NewChecker(s).CheckCached(int64(s.eng.Now())); err != nil {
		return err
	}
	return nil
}
