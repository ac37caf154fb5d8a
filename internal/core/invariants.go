package core

import (
	"cohort/internal/cache"
	"cohort/internal/coherence"
	"cohort/internal/config"
	"cohort/internal/memctrl"
)

// System implements invariant.SystemView so the checker can inspect a
// running platform without internal/invariant importing internal/core.

// NumCores returns the number of cores.
func (s *System) NumCores() int { return len(s.cores) }

// CoreTheta returns core i's current timer register value.
func (s *System) CoreTheta(i int) config.Timer { return s.cores[i].theta }

// CoreL1 returns core i's private cache.
func (s *System) CoreL1(i int) *cache.Cache { return s.cores[i].l1 }

// Directory returns the global coherence bookkeeping.
func (s *System) Directory() *coherence.Directory { return s.dir }

// LLC returns the shared last-level cache controller.
func (s *System) LLC() *memctrl.LLC { return s.llc }

// HeadDataReady returns the cycle the line's head waiter may be granted its
// data transfer (as last computed by refreshLine), or -1 when the line has
// no refreshed head request.
func (s *System) HeadDataReady(line uint64) int64 {
	li := s.dir.Peek(line)
	if li == nil {
		return -1
	}
	head := s.dir.HeadWaiter(li)
	if head == nil {
		return -1
	}
	m := s.cores[head.Core].miss
	if m == nil || m.line != line || !m.broadcasted {
		return -1
	}
	return m.dataReadyAt
}

// TestHooks injects seeded protocol faults for the correctness tooling's
// mutation tests (and nothing else): each hook breaks one hand-over rule so
// a test can assert the dynamic invariant checker and the exhaustive model
// checker (internal/model) fail closed. All hooks default to off; production
// code must never set them. A fourth seeded fault, LUTLookupOffByOne, lives
// in coherence.TestHooks next to the ModeLUT it corrupts.
var TestHooks struct {
	// SkipMSIDowngrade makes the OwnerHandover rule keep an MSI owner's
	// Modified copy intact on a remote load instead of downgrading it to
	// Shared — the classic "stale dirty copy" coherence bug.
	SkipMSIDowngrade bool
	// TimerReleaseSkew shifts every timed owner release by this many cycles
	// (positive = late, breaking the WCML bound; negative = early, breaking
	// the owner's own WCET protection).
	TimerReleaseSkew int64
	// StaleSharerBitmask makes invalidateSharer clear a sharer's directory
	// bit without invalidating its cached Shared copy, so the bitmask and
	// the caches disagree and the stale copy survives a remote store.
	StaleSharerBitmask bool
}

// verifyInvariants sweeps the protocol invariants after a completed bus
// transaction. The first violation is latched and returned from Run;
// further checks stop so the report names the original breach, not the
// wreckage downstream of it.
//
// Opt-in debug machinery: a no-op unless a checker is attached, so it is
// deliberately outside the steady-state allocation budget.
//
//cohort:hotpath exempt
func (s *System) verifyInvariants(now int64) {
	if s.inv == nil || s.invErr != nil {
		return
	}
	if err := s.inv.CheckTransaction(now); err != nil {
		s.invErr = err
	}
}

// checkTimerRelease validates one release/invalidation event against the
// closed-form expiry (Fig. 3 semantics) just before it is applied.
//
// Opt-in debug machinery, like verifyInvariants: a no-op unless a checker
// is attached.
//
//cohort:hotpath exempt
func (s *System) checkTimerRelease(now int64, line uint64, core int, fetchedAt int64, theta config.Timer, reqVisible int64) {
	if s.inv == nil || s.invErr != nil {
		return
	}
	if err := s.inv.CheckTimerRelease(now, line, core, fetchedAt, theta, reqVisible); err != nil {
		s.invErr = err
	}
}

// InvariantChecks reports how many post-transaction sweeps ran (0 when the
// checker is disabled); tests use it to prove the checker was live.
func (s *System) InvariantChecks() int64 {
	if s.inv == nil {
		return 0
	}
	return s.inv.Checks()
}
