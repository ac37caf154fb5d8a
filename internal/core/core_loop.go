package core

import (
	"cohort/internal/cache"
	"cohort/internal/coherence"
	"cohort/internal/sim"
	"cohort/internal/trace"
)

// coreWake advances a core's instruction stream as far as the current cycle
// allows. The model approximates the paper's OoO cores with non-blocking
// caches: accesses issue in order, hits complete in L_hit cycles and do not
// block later accesses (hits-over-misses), one miss may be outstanding
// (MSHR = 1), and a second miss stalls issue until the first resolves.
//
// tail reports that the caller is the evCoreWake handler, with nothing left
// to do at this cycle. Such a call runs the next access's wake in place
// when that wake would be the next event to fire (sim.Engine.Advance), and
// keeps issuing. completeMiss passes false: finishData still works at the
// current cycle after it returns.
func (s *System) coreWake(c *coreState, now int64, tail bool) {
	if c.finished {
		return
	}
	for {
		if c.pos >= c.limit {
			if c.pos == len(c.stream) {
				if c.miss == nil {
					c.finished = true
				}
				return
			}
			// The decode has not reached this access yet (Follow): wait for
			// it, then add the gap advanceIssue could not read.
			if !s.more(c) {
				return
			}
			c.nextEligible += c.stream[c.pos].Gap
		}
		if c.nextEligible > now {
			if !tail || !s.eng.Advance(sim.Cycle(c.nextEligible)) {
				s.scheduleCoreWake(c, c.nextEligible)
				return
			}
			now = c.nextEligible
		}
		// A blocking cache (ablation knob) stalls on any outstanding miss;
		// the paper's non-blocking L1 lets hits proceed under a miss.
		if c.miss != nil && s.cfg.BlockingCaches {
			return
		}
		a := c.stream[c.pos]
		line := c.l1.LineAddr(a.Addr)
		entry := c.l1.Lookup(line)
		if entry != nil && (a.Kind == trace.Read || entry.State.Owned()) {
			s.completeHit(c, a, entry, now)
			c.advanceIssue(now)
			continue
		}
		// Miss (or S→M upgrade). One outstanding miss per core.
		if c.miss != nil {
			// Stall: resume from the miss-completion path.
			return
		}
		s.startMiss(c, a, line, entry, now)
		c.advanceIssue(now)
		// Keep issuing later accesses under the miss (hits proceed, the
		// next miss will stall above).
	}
}

// advanceIssue moves the issue cursor past the current access: the next
// access becomes eligible after one issue cycle plus its compute gap, which
// coreWake adds instead when the access is not decoded yet.
func (c *coreState) advanceIssue(now int64) {
	c.pos++
	c.nextEligible = now + 1
	if c.pos < c.limit {
		c.nextEligible += c.stream[c.pos].Gap
	}
}

// scheduleCoreWake schedules an evCoreWake at the given cycle, deduplicating
// (the wakeAt check at dispatch lives in HandleEvent).
func (s *System) scheduleCoreWake(c *coreState, at int64) {
	if c.wakeAt == at {
		return
	}
	c.wakeAt = at
	s.atEvent(at, evCoreWake, int32(c.id), 0, 0)
}

// completeHit finishes a private-cache hit at now + L_hit.
func (s *System) completeHit(c *coreState, a trace.Access, entry *cache.Entry, now int64) {
	done := now + s.cfg.Lat.Hit
	c.l1.Touch(entry)
	if a.Kind == trace.Write {
		// Write hit to an owned line: commit a new version. An Exclusive
		// copy upgrades to Modified silently (MESI), without a bus
		// transaction.
		entry.State = cache.Modified
		li := s.dir.Get(entry.LineAddr)
		li.Version++
		entry.Version = li.Version
	}
	s.run.Cores[c.id].RecordAccess(true, s.cfg.Lat.Hit)
	if done > c.maxCompletion {
		c.maxCompletion = done
	}
}

// startMiss creates the core's outstanding bus request and offers it to the
// arbiter. For a store to a line the core holds in S (upgrade), the stale
// copy is dropped when the broadcast completes.
func (s *System) startMiss(c *coreState, a trace.Access, line uint64, entry *cache.Entry, now int64) {
	// MSHR depth 1: the single per-core record is recycled in place rather
	// than allocated per miss.
	c.missBuf = missState{
		line:        line,
		write:       a.Kind == trace.Write,
		wasShared:   entry != nil && entry.State == cache.Shared,
		issuedAt:    now,
		dataReadyAt: -1,
	}
	c.miss = &c.missBuf
	if c.miss.wasShared {
		s.run.Cores[c.id].Upgrades++
	}
	s.emit(TraceEvent{Cycle: now, Kind: EvMissStart, Core: c.id, Line: line})
	s.kickArbiter(now)
}

// completeMiss finishes the access that created the miss: installs the line
// (unless θ = 0), records the latency, and resumes the core.
func (s *System) completeMiss(c *coreState, m *missState, st cache.State, now int64) {
	li := m.li
	if c.theta == 0 {
		// θ = 0: serve the data without caching it.
		if m.write {
			li.Version++
			backInv := s.llc.WriteBack(m.line, now, s.pinnedFn)
			li.Owner = coherence.MemOwner
			li.OwnerReleased = false
			s.applyBackInvalidations(backInv, now)
		}
	} else {
		victim := c.l1.VictimFor(m.line, nil)
		if victim.Valid() {
			s.evictL1(c, victim, now)
		}
		c.l1.Fill(victim, m.line, st, now)
		if st.Owned() {
			li.Owner = c.id
			li.OwnerFetch = now
			li.OwnerReleased = false
			li.Sharers = 0
			if st == cache.Modified {
				li.Version++
			}
		} else {
			li.AddSharer(c.id)
		}
		victim.Version = li.Version
	}
	lat := now - m.issuedAt
	// Exact latency decomposition (stats.Attribution): the request waited
	// for its broadcast grant, then for the data to become transferable
	// (timer-protected copies plus earlier requesters of the line), then for
	// the data grant, and finally occupied the bus; the residual after
	// removing the waits and the DRAM penalty is pure bus transfer time.
	arb := (m.grantAt - m.issuedAt) + (m.dataGrantAt - m.dataReadyAt)
	timer := m.dataReadyAt - m.broadcastAt
	transfer := lat - arb - timer - m.dramPenalty
	s.run.Cores[c.id].RecordAccess(false, lat)
	s.run.Cores[c.id].Attr.Record(arb, timer, transfer, m.dramPenalty)
	s.emit(TraceEvent{Cycle: now, Kind: EvMissEnd, Core: c.id, Line: m.line})
	if now > c.maxCompletion {
		c.maxCompletion = now
	}
	c.miss = nil
	s.arb.Served(c.id)
	s.coreWake(c, now, false)
}

// evictL1 removes a victim line from a core's private cache (the core's own
// replacement decision). Modified victims write back to the shared memory
// through the write buffer (off the request/data bus; see DESIGN.md §4), so
// pending requesters of the victim line are served from memory afterwards.
func (s *System) evictL1(c *coreState, victim *cache.Entry, now int64) {
	line := victim.LineAddr
	li := s.dir.Get(line)
	var backInv []uint64
	switch victim.State {
	case cache.Modified:
		s.run.Cores[c.id].Writebacks++
		// Inclusion: re-installing the line may victimize another LLC
		// entry whose private copies must die with it (applied below,
		// after the victim itself leaves this L1).
		backInv = s.llc.WriteBack(line, now, s.pinnedFn)
		if li.Owner == c.id {
			li.Owner = coherence.MemOwner
			li.OwnerReleased = false
		}
	case cache.Exclusive:
		// Clean owner copy: no writeback, just release ownership.
		if li.Owner == c.id {
			li.Owner = coherence.MemOwner
			li.OwnerReleased = false
		}
	default:
		li.RemoveSharer(c.id)
	}
	c.l1.Invalidate(victim)
	s.applyBackInvalidations(backInv, now)
	if li.PendingInv() {
		s.refreshLine(line, li, now)
	}
}
