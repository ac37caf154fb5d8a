package core

import (
	"fmt"

	"cohort/internal/config"
	"cohort/internal/parallel"
	"cohort/internal/sim"
	"cohort/internal/stats"
	"cohort/internal/trace"
)

// ModeSwitch is one scheduled run-time criticality change in a batched lane:
// switch to Mode at cycle At (the same contract as System.ScheduleModeSwitch).
type ModeSwitch struct {
	At   int64
	Mode int
}

// BatchLane is one configuration in a batched evaluation: a full system
// configuration plus its mode-switch schedule. Lanes in one batch may differ
// arbitrarily — timers, protocol, arbiter, criticality map — because each
// lane runs its own event loop; only the decoded trace is shared.
type BatchLane struct {
	Cfg          *config.System
	ModeSwitches []ModeSwitch
}

// RunBatch evaluates every lane against one shared decoded trace and returns
// the per-lane measurements, index-aligned with lanes. The trace is decoded
// once and every lane replays it, so a parameter sweep pays trace generation
// once instead of once per configuration.
//
// Batching here is at lane granularity, not event granularity: heterogeneous
// configurations diverge in timing from the first miss, so there is no shared
// event order to walk in lockstep (DESIGN.md §14 spells this out). What is
// shared is the trace and — with workers ≤ 1 — one engine whose queue backing
// is Reset-reused across lanes, so a fleet of N configurations performs the
// queue growth of the deepest single run, not the sum over runs.
//
// workers > 1 runs lanes concurrently under the whole-jobs-only parallelism
// rule: each lane gets its own engine, results land in index-addressed slots,
// and the returned slice is bit-identical for every worker count.
func RunBatch(lanes []BatchLane, tr *trace.Trace, workers int) ([]*stats.Run, error) {
	if len(lanes) == 0 {
		return nil, nil
	}
	skew := TestHooks.BatchLaneTimerSkew
	runLane := func(eng *sim.Engine, lane BatchLane) (*stats.Run, error) {
		sys, err := newOn(eng, lane.Cfg, tr)
		if err != nil {
			return nil, err
		}
		for _, sw := range lane.ModeSwitches {
			if err := sys.ScheduleModeSwitch(sw.At+skew, sw.Mode); err != nil {
				return nil, err
			}
		}
		return sys.Run()
	}
	if workers <= 1 {
		eng := sim.New()
		out := make([]*stats.Run, len(lanes))
		for i, lane := range lanes {
			eng.Reset()
			run, err := runLane(eng, lane)
			if err != nil {
				return nil, fmt.Errorf("core: batch lane %d: %w", i, err)
			}
			out[i] = run
		}
		return out, nil
	}
	b := sim.NewBatch(len(lanes))
	out, err := parallel.MapErr(workers, len(lanes), func(i int) (*stats.Run, error) {
		run, err := runLane(b.Lane(i), lanes[i])
		if err != nil {
			return nil, fmt.Errorf("core: batch lane %d: %w", i, err) //cohort:allow hotalloc: lane failure path; the batch aborts
		}
		return run, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
