package core

import (
	"fmt"
	"math/bits"

	"cohort/internal/bus"
	"cohort/internal/cache"
	"cohort/internal/coherence"
	"cohort/internal/config"
)

// kickArbiter runs one arbitration round if the bus is free. It is
// idempotent and safe to call at any time; duplicate calls in one cycle are
// cheap no-ops.
func (s *System) kickArbiter(now int64) {
	if s.busHeld || s.busBusyUntil > now {
		return // the tenure's finish event runs the release round
	}
	// s.cands is preallocated in New and fully overwritten each round; the
	// arbiters treat it as a read-only snapshot and never retain it.
	cands := s.cands
	anyPending := false
	for i, c := range s.cores {
		cand := bus.Candidate{Core: i, Critical: s.critical(i)}
		if m := c.miss; m != nil && !m.inFlight {
			anyPending = true
			cand.Pending = true
			cand.Enqueued = m.issuedAt
			if !m.broadcasted {
				cand.Ready = true
			} else if m.dataReadyAt >= 0 && now >= m.dataReadyAt && s.isHeadWaiter(c, m) {
				cand.Ready = true
			}
		}
		cands[i] = cand
	}
	if !anyPending {
		return
	}
	winner := s.arb.Pick(now, cands)
	if winner < 0 {
		if wake := s.arb.NextWake(now); wake > now {
			s.scheduleKick(wake)
		}
		return
	}
	c := s.cores[winner]
	m := c.miss
	if !m.broadcasted {
		s.grantBroadcast(c, m, now)
	} else {
		s.grantData(c, m, now)
	}
}

// isHeadWaiter reports whether the core's broadcast miss is first in its
// line's FIFO.
func (s *System) isHeadWaiter(c *coreState, m *missState) bool {
	h := s.dir.HeadWaiter(m.li)
	return h != nil && h.Core == c.id
}

// scheduleKick schedules an arbitration round at the given cycle, once.
func (s *System) scheduleKick(at int64) {
	if s.addKick(at) {
		s.atEvent(at, evKick, 0, 0, 0)
	}
}

// addKick records at as a cycle with an arbitration round due and reports
// whether it was new. The pending set holds only future cycles (bus release,
// arbiter wake, data ready) and stays a handful of entries deep, so a linear
// scan over a small slice replaces the old map without a hashing cost or
// per-entry allocation.
func (s *System) addKick(at int64) bool {
	for _, t := range s.kickPending {
		if t == at {
			return false
		}
	}
	s.kickPending = append(s.kickPending, at) //cohort:allow hotalloc: pending-kick set reaches its high-water mark early, then reuses capacity
	return true
}

// clearKick removes a due kick cycle from the pending set (order-free
// swap-remove; the set is membership-only).
func (s *System) clearKick(now int64) {
	for i, t := range s.kickPending {
		if t == now {
			last := len(s.kickPending) - 1
			s.kickPending[i] = s.kickPending[last]
			s.kickPending = s.kickPending[:last]
			return
		}
	}
}

// occupyBus reserves the bus for dur cycles starting now. It queues no
// arbitration round for the release cycle: the finish event the caller has
// just queued there runs it (finishBroadcast, finishData). The cycle joins
// the pending kicks until then, so a kick requested for it meanwhile queues
// nothing.
func (s *System) occupyBus(now, dur int64) {
	if s.busBusyUntil > now {
		panic(fmt.Sprintf("core: bus double-granted: busy until %d, grant at %d", s.busBusyUntil, now))
	}
	s.busHeld = true
	s.busBusyUntil = now + dur
	s.run.BusBusy += dur
	s.addKick(now + dur)
}

// releaseBus ends the current transaction owner's tenure.
func (s *System) releaseBus() { s.busHeld = false }

// grantBroadcast puts the core's request on the bus for the request latency.
func (s *System) grantBroadcast(c *coreState, m *missState, now int64) {
	m.inFlight = true
	m.grantAt = now
	s.run.Transactions++
	s.emit(TraceEvent{Cycle: now, Kind: EvBroadcast, Core: c.id, Line: m.line, Until: now + s.cfg.Lat.Req})
	s.atEvent(now+s.cfg.Lat.Req, evFinishBroadcast, int32(c.id), 0, 0)
	s.occupyBus(now, s.cfg.Lat.Req)
}

// finishBroadcast makes the request globally visible: it joins the line's
// waiter FIFO, and if the requester is the head and the owner has already
// released the line, the data transfer is fused onto the same bus tenure.
// It is also the bus-release round: it ends in kickArbiter, or in the fused
// data grant, which keeps the bus held.
func (s *System) finishBroadcast(c *coreState, m *missState, now int64) {
	s.clearKick(now)
	m.inFlight = false
	m.broadcasted = true
	m.broadcastAt = now
	li := s.dir.Get(m.line)
	m.li = li
	recordRequest(li, c.id)
	// Upgrade: the stale S copy dies with the GetM broadcast.
	if m.wasShared {
		if e := c.l1.Lookup(m.line); e != nil && e.State == cache.Shared {
			c.l1.Invalidate(e)
		}
		li.RemoveSharer(c.id)
	}
	if err := s.dir.Enqueue(li, coherence.Waiter{Core: c.id, Write: m.write, Broadcast: now}); err != nil {
		panic(err) // unreachable: one outstanding miss per core
	}
	// Recompute the head waiter's readiness unconditionally: an upgrade
	// broadcast may have just removed this core's own Shared copy, which
	// could be exactly what the head (and everyone queued behind it) was
	// waiting out — a stale release time would charge phantom timer
	// latency beyond Equation 1.
	s.refreshLine(m.line, li, now)
	s.verifyInvariants(now)
	if s.dir.HeadWaiter(li).Core == c.id {
		// Fuse the data phase onto the same bus tenure when the data is
		// already available. The broadcaster still holds the bus (busHeld),
		// so no same-cycle kick can have granted it elsewhere.
		if m.dataReadyAt >= 0 && m.dataReadyAt <= now {
			s.busHeld = false // hand tenure to the fused data grant
			s.grantData(c, m, now)
			return
		}
	}
	s.releaseBus()
	s.kickArbiter(now)
}

// refreshLine recomputes when the head waiter of a line can receive data:
// the owner's release time (timer expiry, or immediately for MSI owners) and,
// for stores, the release of every timer-protected Shared copy. It schedules
// the corresponding hand-over/invalidation events and an arbitration kick at
// the ready cycle.
func (s *System) refreshLine(line uint64, li *coherence.LineInfo, now int64) {
	head := s.dir.HeadWaiter(li)
	if head == nil {
		return
	}
	c := s.cores[head.Core]
	m := c.miss
	if m == nil || m.line != line || !m.broadcasted || m.inFlight {
		return
	}
	base := head.Broadcast
	if now > base {
		base = now
	}
	ready := base
	if li.Owner != coherence.MemOwner && !li.OwnerReleased {
		owner := s.cores[li.Owner]
		rel := OwnerReleaseAt(li.OwnerFetch, base, owner.theta)
		if rel > ready {
			ready = rel
		}
		if rel <= now {
			s.checkTimerRelease(now, line, li.Owner, li.OwnerFetch, owner.theta, base)
			s.releaseOwner(line, li, head.Write, now)
		} else {
			s.scheduleOwnerRelease(line, li, li.Owner, li.OwnerFetch, head.Write, base, rel)
		}
	}
	if head.Write {
		// Snapshot the bitmask up front (the loop body removes sharers) and
		// iterate set bits ascending — same visit order as the old SharerList
		// slice, without materializing it.
		for mask := li.Sharers; mask != 0; mask &= mask - 1 {
			j := bits.TrailingZeros64(mask)
			if j == head.Core {
				continue
			}
			cj := s.cores[j]
			e := cj.l1.Lookup(line)
			if e == nil || e.State != cache.Shared {
				li.RemoveSharer(j)
				continue
			}
			rel := SharerReleaseAt(e.FetchedAt, base, cj.theta)
			if rel > ready {
				ready = rel
			}
			if rel <= now {
				s.checkTimerRelease(now, line, j, e.FetchedAt, cj.theta, base)
				s.invalidateSharer(cj, line, li)
			} else {
				s.scheduleSharerInvalidation(cj, line, e.FetchedAt, base, rel)
			}
		}
	}
	m.dataReadyAt = ready
	if ready > now {
		s.scheduleKick(ready)
	}
}

// releaseOwner applies the owner's hand-over per the OwnerHandover rule
// (rules.go). The data waits in the transfer buffer until the bus grant.
func (s *System) releaseOwner(line uint64, li *coherence.LineInfo, write bool, now int64) {
	if li.Owner == coherence.MemOwner || li.OwnerReleased {
		return
	}
	oc := s.cores[li.Owner]
	if e := oc.l1.Lookup(line); e != nil {
		if oc.theta.Timed() {
			s.recordTimerWindow(oc.id, line, li.OwnerFetch, now)
		}
		s.applyHandover(oc, e, li, OwnerHandover(oc.theta, write))
	}
	li.OwnerReleased = true
}

// applyHandover executes an OwnerHandover decision on the owner's copy.
func (s *System) applyHandover(oc *coreState, e *cache.Entry, li *coherence.LineInfo, act HandoverAction) {
	switch act {
	case HandoverInvalidate:
		oc.l1.Invalidate(e)
		s.run.Cores[oc.id].Invalidations++
	case HandoverDowngrade:
		e.State = cache.Shared
		li.AddSharer(oc.id)
	case HandoverKeep:
		// Seeded fault (TestHooks.SkipMSIDowngrade): the stale owned copy
		// survives the remote request.
	}
}

// scheduleOwnerRelease schedules releaseOwner at the computed expiry, guarded
// against the world changing in between (ownership transfer, eviction, mode
// switch re-basing the epoch). reqVisible is the request cycle the expiry was
// computed against; the invariant checker replays the computation at fire
// time to pin the release to the exact Fig. 3 expiry.
func (s *System) scheduleOwnerRelease(line uint64, li *coherence.LineInfo, owner int, fetchStamp int64, write bool, reqVisible, at int64) {
	_ = li // the guard re-reads the line at fire time (firedOwnerRelease)
	idx := s.allocTimerRec(timerRec{
		line: line, fetchStamp: fetchStamp, reqVisible: reqVisible,
		core: int32(owner), write: write,
	})
	s.atEvent(at, evOwnerRelease, 0, uint64(idx), 0)
}

// invalidateSharer drops a Shared copy whose release time has passed.
func (s *System) invalidateSharer(cj *coreState, line uint64, li *coherence.LineInfo) {
	if e := cj.l1.Lookup(line); e != nil && e.State == cache.Shared {
		if TestHooks.StaleSharerBitmask {
			// Seeded fault (mutation tests only): clear the directory bit but
			// leave the Shared copy in the cache — the sharer bitmask and the
			// caches disagree, and the stale copy survives the remote store.
			li.RemoveSharer(cj.id)
			return
		}
		if cj.theta.Timed() {
			s.recordTimerWindow(cj.id, line, e.FetchedAt, int64(s.eng.Now()))
		}
		cj.l1.Invalidate(e)
		s.run.Cores[cj.id].Invalidations++
		s.emit(TraceEvent{Cycle: int64(s.eng.Now()), Kind: EvInvalidate, Core: cj.id, Line: line})
	}
	li.RemoveSharer(cj.id)
}

// scheduleSharerInvalidation schedules a guarded invalidation at the copy's
// release time; reqVisible plays the same role as in scheduleOwnerRelease.
func (s *System) scheduleSharerInvalidation(cj *coreState, line uint64, fetchStamp, reqVisible, at int64) {
	idx := s.allocTimerRec(timerRec{
		line: line, fetchStamp: fetchStamp, reqVisible: reqVisible,
		core: int32(cj.id),
	})
	s.atEvent(at, evSharerInval, 0, uint64(idx), 0)
}

// grantData puts the data transfer on the bus. Data comes cache-to-cache in
// one data latency (TransferDirect), through the shared memory in two
// (TransferViaMemory — the PCC baseline), or from the LLC/DRAM when the
// memory owns the line.
func (s *System) grantData(c *coreState, m *missState, now int64) {
	li := m.li
	m.inFlight = true
	m.dataGrantAt = now
	dur := s.cfg.Lat.Data
	if li.Owner != coherence.MemOwner {
		recordHandover(li, m.dataReadyAt-m.broadcastAt)
		if s.cfg.Transfer == config.TransferViaMemory {
			dur = 2 * s.cfg.Lat.Data // write back to memory, then re-fetch
		}
	} else {
		penalty, backInv := s.llc.Fetch(m.line, now, s.pinnedFn)
		dur += penalty
		m.dramPenalty = penalty
		s.applyBackInvalidations(backInv, now)
	}
	s.run.Transactions++
	s.emit(TraceEvent{Cycle: now, Kind: EvData, Core: c.id, Line: m.line, Until: now + dur})
	s.atEvent(now+dur, evFinishData, int32(c.id), 0, 0)
	s.occupyBus(now, dur)
}

// finishData completes the head waiter's transfer: ownership moves, stale
// copies die, the requester installs the line and its access completes. It
// ends in kickArbiter, the bus-release round.
func (s *System) finishData(c *coreState, m *missState, now int64) {
	s.clearKick(now)
	m.inFlight = false
	li := m.li
	w := s.dir.PopWaiter(li)
	if w.Core != c.id {
		panic(fmt.Sprintf("core: transfer completed for core %d but head waiter is %d", c.id, w.Core))
	}
	prevOwner := li.Owner
	if prevOwner != coherence.MemOwner {
		if prevOwner != c.id && !li.OwnerReleased {
			// Owner not yet released (expiry aligned with the grant):
			// apply the same OwnerHandover rule as releaseOwner.
			po := s.cores[prevOwner]
			if e := po.l1.Lookup(m.line); e != nil {
				s.applyHandover(po, e, li, OwnerHandover(po.theta, m.write))
			}
		}
		// The memory observes the transfer (snarf) for loads, and always
		// under the via-memory policy. Installing the line may victimize
		// another LLC entry; inclusion demands its private copies die too.
		if !m.write || s.cfg.Transfer == config.TransferViaMemory {
			backInv := s.llc.WriteBack(m.line, now, s.pinnedFn)
			s.applyBackInvalidations(backInv, now)
		}
	}
	li.Owner = coherence.MemOwner
	li.OwnerReleased = false
	if m.write {
		// Stragglers' release times were ≤ the grant; force-drop them.
		// Bitmask snapshot, ascending — see refreshLine.
		for mask := li.Sharers; mask != 0; mask &= mask - 1 {
			if j := bits.TrailingZeros64(mask); j != c.id {
				s.invalidateSharer(s.cores[j], m.line, li)
			}
		}
		li.Sharers = 0
	}
	s.releaseBus()
	// completeMiss resumes the core, which may start its next miss in the
	// same per-core record — m must not be read after this call.
	line := m.line
	s.completeMiss(c, m, FillState(m.write, s.cfg.Snoop, prevOwner, li.Sharers), now)
	if li.PendingInv() {
		s.refreshLine(line, li, now)
	}
	s.verifyInvariants(now)
	s.kickArbiter(now)
}

// applyBackInvalidations enforces LLC inclusion: lines evicted from the LLC
// disappear from every private cache (dirty copies drain to DRAM through the
// write buffer).
func (s *System) applyBackInvalidations(lines []uint64, now int64) {
	for _, line := range lines {
		li := s.dir.Get(line)
		for _, c := range s.cores {
			if e := c.l1.Lookup(line); e != nil {
				c.l1.Invalidate(e)
				s.run.Cores[c.id].Invalidations++
			}
		}
		li.Sharers = 0
		if li.Owner != coherence.MemOwner {
			li.Owner = coherence.MemOwner
			li.OwnerReleased = false
		}
		if li.PendingInv() {
			s.refreshLine(line, li, now)
		}
	}
}
