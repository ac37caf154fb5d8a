package core

import (
	"errors"
	"fmt"
	"strconv"

	"cohort/internal/coherence"
	"cohort/internal/obs"
)

// Trace-event thread IDs within obs.PidSim: tid 0 is the shared bus, core i
// renders on tid i+1.
const simTidBus = 0

func simTidCore(core int) int { return core + 1 }

// SetMetrics registers the system's measurement surface with a registry:
// run-level counters (cycles, bus occupancy, transactions, mode switches,
// events scheduled on the engine),
// the per-core access/latency family including the latency histograms, the
// LLC and arbiter counters, timer-protection-window totals, and contention
// summaries. Values are read when the registry is snapshotted — attach the
// registry, Run, then Snapshot. Must be called before Run; passing nil is a
// no-op. Attaching a registry does not touch the simulator hot path.
func (s *System) SetMetrics(reg *obs.Registry) error {
	if s.ran {
		return errors.New("core: SetMetrics after Run")
	}
	if reg == nil {
		return nil
	}
	s.metrics = reg
	reg.RegisterFunc("sim_cycles", func() int64 { return s.run.Cycles })
	reg.RegisterCounterFunc("sim_bus_busy_cycles", func() int64 { return s.run.BusBusy })
	reg.RegisterCounterFunc("sim_bus_transactions", func() int64 { return s.run.Transactions })
	reg.RegisterCounterFunc("sim_mode_switches", func() int64 { return int64(s.run.ModeSwitches) })
	reg.RegisterFunc("sim_mode", func() int64 { return int64(s.mode) })
	reg.RegisterCounterFunc("sim_events_scheduled", func() int64 { return int64(s.eng.Scheduled()) })
	reg.RegisterCounter("sim_timer_windows", &s.timerWindows)
	reg.RegisterCounter("sim_timer_window_cycles", &s.timerWindowCycles)

	for i := range s.cores {
		c := s.cores[i]
		st := &s.run.Cores[i]
		lbl := obs.L("core", strconv.Itoa(i))
		reg.RegisterCounterFunc("sim_core_accesses", func() int64 { return st.Accesses }, lbl)
		reg.RegisterCounterFunc("sim_core_hits", func() int64 { return st.Hits }, lbl)
		reg.RegisterCounterFunc("sim_core_misses", func() int64 { return st.Misses }, lbl)
		reg.RegisterCounterFunc("sim_core_total_latency", func() int64 { return st.TotalLatency }, lbl)
		reg.RegisterFunc("sim_core_max_miss_latency", func() int64 { return st.MaxMissLatency }, lbl)
		reg.RegisterCounterFunc("sim_core_writebacks", func() int64 { return st.Writebacks }, lbl)
		reg.RegisterCounterFunc("sim_core_invalidations", func() int64 { return st.Invalidations }, lbl)
		reg.RegisterCounterFunc("sim_core_upgrades", func() int64 { return st.Upgrades }, lbl)
		reg.RegisterFunc("sim_core_finish_cycle", func() int64 { return st.FinishCycle }, lbl)
		reg.RegisterFunc("sim_core_theta", func() int64 { return int64(c.theta) }, lbl)
		reg.RegisterFunc("sim_core_l1_valid_lines", func() int64 { return int64(c.l1.CountValid()) }, lbl)
		reg.RegisterHistogram("sim_core_latency", &st.Latency, lbl)
	}

	s.llc.RegisterMetrics(reg)
	// The arbiter is read through s.arb at snapshot time: a mode switch
	// reprograms the TDM schedule by replacing the instance, and the counter
	// must follow the replacement (counts are per current instance).
	reg.RegisterCounterFunc("bus_arbiter_grants", func() int64 {
		if g, ok := s.arb.(interface{ Grants() int64 }); ok {
			return g.Grants()
		}
		return 0
	}, obs.L("arbiter", s.arb.Name()))

	reg.RegisterFunc("sim_directory_lines", func() int64 {
		var n int64
		s.dir.ForEach(func(uint64, *coherence.LineInfo) { n++ })
		return n
	})
	reg.RegisterFunc("sim_contended_lines", func() int64 {
		return s.sumLines(func(li *coherence.LineInfo) int64 {
			if contended(li) {
				return 1
			}
			return 0
		})
	})
	reg.RegisterCounterFunc("sim_line_requests_total", func() int64 {
		return s.sumLines(func(li *coherence.LineInfo) int64 { return li.Requests })
	})
	reg.RegisterCounterFunc("sim_line_handovers_total", func() int64 {
		return s.sumLines(func(li *coherence.LineInfo) int64 { return li.Handovers })
	})
	reg.RegisterCounterFunc("sim_timer_stall_cycles_total", func() int64 {
		return s.sumLines(func(li *coherence.LineInfo) int64 { return li.TimerStalls })
	})
	return nil
}

// sumLines adds f over every directory line.
func (s *System) sumLines(f func(*coherence.LineInfo) int64) int64 {
	var total int64
	s.dir.ForEach(func(_ uint64, li *coherence.LineInfo) { total += f(li) })
	return total
}

// RegisterAttribution exposes the per-core miss-latency decomposition
// (stats.Attribution) as metrics: the four component totals and their
// per-miss histograms. It is deliberately separate from SetMetrics — the
// attribution family is opt-in so the canonical snapshots and fingerprints
// of pre-existing runs stay byte-identical. The underlying counters
// accumulate unconditionally (plain integer adds in the recycled per-core
// miss record); registering only exposes them. Must be called before Run;
// passing nil is a no-op.
func (s *System) RegisterAttribution(reg *obs.Registry) error {
	if s.ran {
		return errors.New("core: RegisterAttribution after Run")
	}
	if reg == nil {
		return nil
	}
	for i := range s.cores {
		st := &s.run.Cores[i]
		lbl := obs.L("core", strconv.Itoa(i))
		reg.RegisterCounterFunc("sim_core_attr_arbitration_cycles", func() int64 { return st.Attr.ArbitrationCycles }, lbl)
		reg.RegisterCounterFunc("sim_core_attr_timer_stall_cycles", func() int64 { return st.Attr.TimerStallCycles }, lbl)
		reg.RegisterCounterFunc("sim_core_attr_transfer_cycles", func() int64 { return st.Attr.TransferCycles }, lbl)
		reg.RegisterCounterFunc("sim_core_attr_dram_cycles", func() int64 { return st.Attr.DRAMCycles }, lbl)
		reg.RegisterHistogram("sim_core_attr_arbitration", &st.Attr.Arbitration, lbl)
		reg.RegisterHistogram("sim_core_attr_timer_stall", &st.Attr.TimerStall, lbl)
		reg.RegisterHistogram("sim_core_attr_transfer", &st.Attr.Transfer, lbl)
		reg.RegisterHistogram("sim_core_attr_dram", &st.Attr.DRAM, lbl)
	}
	return nil
}

// SetRecorder attaches a span/event recorder: bus occupancy spans
// (broadcast and data phases), per-core miss intervals, timer-protection
// windows, and invalidation and mode-switch instants become Chrome trace
// events (obs.Recorder.WriteChrome → Perfetto).
// Timestamps are simulated cycles. Must be called before Run; passing nil
// is a no-op. Recording is fully independent of SetTracer (both may be
// attached) and has zero cost when detached.
func (s *System) SetRecorder(rec *obs.Recorder) error {
	if s.ran {
		return errors.New("core: SetRecorder after Run")
	}
	if rec == nil {
		return nil
	}
	s.rec = rec
	s.missStart = make([]int64, len(s.cores))
	for i := range s.missStart {
		s.missStart[i] = -1
	}
	rec.NameProcess(obs.PidSim, "cohort simulator")
	rec.NameThread(obs.PidSim, simTidBus, "bus")
	for i := range s.cores {
		rec.NameThread(obs.PidSim, simTidCore(i), "core "+strconv.Itoa(i))
	}
	return nil
}

// recordEvent translates one simulator event into trace spans/instants.
// Only called when a recorder is attached.
func (s *System) recordEvent(ev TraceEvent) {
	switch ev.Kind {
	case EvBroadcast:
		s.rec.Complete(obs.PidSim, simTidBus, "broadcast", "bus", ev.Cycle, ev.Until-ev.Cycle,
			map[string]string{"core": strconv.Itoa(ev.Core), "line": fmt.Sprintf("%#x", ev.Line)})
	case EvData:
		s.rec.Complete(obs.PidSim, simTidBus, "data", "bus", ev.Cycle, ev.Until-ev.Cycle,
			map[string]string{"core": strconv.Itoa(ev.Core), "line": fmt.Sprintf("%#x", ev.Line)})
	case EvMissStart:
		s.missStart[ev.Core] = ev.Cycle
	case EvMissEnd:
		if start := s.missStart[ev.Core]; start >= 0 {
			s.rec.Complete(obs.PidSim, simTidCore(ev.Core), "miss", "l1", start, ev.Cycle-start,
				map[string]string{"line": fmt.Sprintf("%#x", ev.Line)})
			s.missStart[ev.Core] = -1
		}
	case EvInvalidate:
		s.rec.Instant(obs.PidSim, simTidCore(ev.Core), "invalidate", "coherence", ev.Cycle,
			map[string]string{"line": fmt.Sprintf("%#x", ev.Line)})
	case EvModeSwitch:
		s.rec.Instant(obs.PidSim, simTidBus, "mode switch", "mode", ev.Cycle,
			map[string]string{"mode": strconv.FormatUint(ev.Line, 10)})
		s.rec.Count(obs.PidSim, simTidBus, "mode", ev.Cycle, int64(ev.Line))
	}
}

// recordTimerWindow accounts one timer-protection window [from, to) on a
// core's copy of a line: the counters always accumulate (plain integer
// adds), and with a recorder attached the window becomes a span on the
// core's track. Timer windows start at the copy's fetch, which predates the
// release event driving this call — they are emitted here, off the Tracer
// stream, because Tracer consumers (the VCD recorder) require nondecreasing
// event cycles.
func (s *System) recordTimerWindow(core int, line uint64, from, to int64) {
	if to < from {
		from = to
	}
	s.timerWindows.Inc()
	s.timerWindowCycles.Add(to - from)
	if s.rec != nil {
		s.rec.Complete(obs.PidSim, simTidCore(core), "timer window", "coherence", from, to-from,
			// Attaching a recorder opts out of the zero-alloc guarantee.
			map[string]string{"line": fmt.Sprintf("%#x", line)}) //cohort:allow hotalloc: recorder branch allocates only when a recorder is attached
	}
}
