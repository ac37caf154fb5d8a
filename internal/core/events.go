package core

import (
	"fmt"

	"cohort/internal/cache"
	"cohort/internal/sim"
)

// Typed event kinds dispatched through the System jump table. The simulator
// hot path schedules these as plain data (kind + receiver + payload words)
// instead of closures: scheduling a typed event performs zero allocations,
// where the closure path allocated a capture record per callback. Cold paths
// (governor, test scaffolding) keep the Schedule-closure escape hatch.
const (
	// evCoreWake resumes core recv's issue loop (dedup through coreState.wakeAt).
	evCoreWake sim.Kind = iota
	// evKick runs an arbitration round at an arbiter-wake or data-ready
	// cycle. A bus release queues none: its finish event runs the round.
	evKick
	// evFinishBroadcast completes core recv's request broadcast (c.miss).
	evFinishBroadcast
	// evFinishData completes core recv's data transfer (c.miss).
	evFinishData
	// evOwnerRelease fires a scheduled owner timer expiry; p0 indexes the
	// pooled timerRec carrying the guard state.
	evOwnerRelease
	// evSharerInval fires a scheduled sharer timer expiry; p0 indexes the
	// pooled timerRec.
	evSharerInval
	// evModeSwitch applies a scheduled mode switch; p0 carries the mode.
	evModeSwitch
)

// timerRec is the pooled record behind a scheduled owner-release or
// sharer-invalidation event: everything the guarded re-check at fire time
// needs. Records live in a System-owned free list (allocTimerRec /
// freeTimerRec) and are referenced from queue items by index, so scheduling
// a timer expiry allocates nothing once the pool has warmed up.
type timerRec struct {
	line       uint64
	fetchStamp int64 // epoch the expiry was computed against
	reqVisible int64 // request cycle (Fig. 3 expiry base) for exact-release checks
	next       int32 // free-list link
	core       int32 // owner core (evOwnerRelease) or sharer core (evSharerInval)
	write      bool  // head waiter's request kind at schedule time
}

// allocTimerRec takes a record from the free list (or grows the pool) and
// returns its index.
func (s *System) allocTimerRec(r timerRec) int32 {
	if i := s.timerFree; i >= 0 {
		s.timerFree = s.timerRecs[i].next
		s.timerRecs[i] = r
		return i
	}
	s.timerRecs = append(s.timerRecs, r) //cohort:allow hotalloc: pool grows to the outstanding-timer high-water mark, then the free list recycles
	return int32(len(s.timerRecs) - 1)
}

// freeTimerRec returns a record to the free list.
func (s *System) freeTimerRec(i int32) {
	s.timerRecs[i].next = s.timerFree
	s.timerFree = i
}

// atEvent schedules a typed event at an absolute cycle; scheduling in the
// past is a simulator bug, so it panics rather than returning an error
// (mirrors System.at for closures).
func (s *System) atEvent(cycle int64, kind sim.Kind, recv int32, p0, p1 uint64) {
	if err := s.eng.ScheduleKindAt(sim.Cycle(cycle), kind, recv, p0, p1); err != nil {
		panic(err)
	}
}

// HandleEvent is the per-system jump table: it implements sim.Handler and
// routes each typed event to the same logic the closure path used to invoke,
// preserving the exact (at, seq) firing order and therefore bit-identical
// results.
//
//cohort:hotpath
func (s *System) HandleEvent(now sim.Cycle, kind sim.Kind, recv int32, p0, _ uint64) {
	n := int64(now)
	switch kind {
	case evCoreWake:
		c := s.cores[recv]
		if c.wakeAt == n {
			c.wakeAt = -1
		}
		s.coreWake(c, n, true) // tail position: nothing follows in this case
	case evKick:
		s.clearKick(n)
		s.kickArbiter(n)
	case evFinishBroadcast:
		// c.miss is necessarily the miss that scheduled this event: a miss
		// cannot complete (or be replaced) while its broadcast is in flight.
		c := s.cores[recv]
		s.finishBroadcast(c, c.miss, n)
	case evFinishData:
		// Same argument: the miss occupies the bus until finishData clears it.
		c := s.cores[recv]
		s.finishData(c, c.miss, n)
	case evOwnerRelease:
		s.firedOwnerRelease(int32(p0), n)
	case evSharerInval:
		s.firedSharerInval(int32(p0), n)
	case evModeSwitch:
		s.applyModeSwitch(n, int(p0))
	default:
		panic(fmt.Sprintf("core: unknown event kind %d", kind))
	}
}

// firedOwnerRelease re-checks a scheduled owner timer expiry and applies the
// release when the world still matches the schedule-time snapshot (ownership
// transfer, eviction, or a mode switch re-basing the epoch all void it).
func (s *System) firedOwnerRelease(idx int32, now int64) {
	r := s.timerRecs[idx]
	s.freeTimerRec(idx)
	li := s.dir.Peek(r.line)
	if li == nil {
		return // unreachable: the line existed when the expiry was scheduled
	}
	if li.Owner != int(r.core) || li.OwnerReleased || li.OwnerFetch != r.fetchStamp || !li.PendingInv() {
		return
	}
	if s.dir.HeadWaiter(li).Write != r.write {
		return
	}
	s.checkTimerRelease(now, r.line, int(r.core), r.fetchStamp, s.cores[r.core].theta, r.reqVisible)
	s.releaseOwner(r.line, li, r.write, now)
}

// firedSharerInval re-checks a scheduled sharer timer expiry; the copy must
// still be the exact Shared copy (same fetch epoch) the expiry was computed
// for, with a remote store still pending.
func (s *System) firedSharerInval(idx int32, now int64) {
	r := s.timerRecs[idx]
	s.freeTimerRec(idx)
	cj := s.cores[r.core]
	e := cj.l1.Lookup(r.line)
	if e == nil || e.State != cache.Shared || e.FetchedAt != r.fetchStamp {
		return
	}
	li := s.dir.Get(r.line)
	if !li.PendingInv() {
		return
	}
	s.checkTimerRelease(now, r.line, int(r.core), r.fetchStamp, cj.theta, r.reqVisible)
	s.invalidateSharer(cj, r.line, li)
}
