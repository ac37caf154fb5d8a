// Package sim provides a deterministic discrete-event simulation kernel with
// integer cycle timestamps. It is the substrate under the cycle-accurate
// cache-system model in internal/core: components schedule callbacks at
// absolute cycles and the engine executes them in (time, insertion order)
// order, which makes every run bit-reproducible. The queue is a slice kept
// sorted by due cycle, latest first: the next event is its last element,
// and a new event's position among same-cycle events is its insertion
// order.
//
// Two scheduling surfaces share one queue and one total order:
// closure events (Schedule/ScheduleAt — the flexible path for tests and cold
// code) and typed events (ScheduleKind/ScheduleKindAt — an enum kind, a
// receiver index and two payload words dispatched through a Handler). Typed
// events exist because the simulator hot path used to allocate a fresh
// closure per scheduled callback; a typed item is plain data, so scheduling
// one performs zero allocations beyond amortized queue growth.
package sim

import (
	"errors"
	"fmt"
	"slices"
)

// Cycle is a point in simulated time, measured in clock cycles from reset.
type Cycle int64

// Event is a callback scheduled to run at a specific cycle.
type Event func(now Cycle)

// Kind is a small enum identifying a typed event's meaning. The enum values
// belong to the Handler's domain (internal/core defines the simulator's
// kinds); the engine only carries them.
type Kind uint8

// Handler dispatches typed events. The receiver index and payload words are
// opaque to the engine; the handler's jump table interprets them.
type Handler interface {
	HandleEvent(now Cycle, kind Kind, recv int32, p0, p1 uint64)
}

// ErrPastEvent is returned by ScheduleAt when the requested cycle precedes
// the engine's current time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// Engine is a single-threaded discrete-event simulation engine.
// The zero value is ready to use and starts at cycle 0.
type Engine struct {
	now       Cycle
	scheduled uint64
	queue     queue
	budget    Cycle // 0 means unlimited
	deadline  Cycle // the active RunUntil deadline while inUntil
	inUntil   bool
	handler   Handler
}

// New returns an engine starting at cycle 0.
func New() *Engine { return &Engine{} }

// Now reports the current simulation time.
func (e *Engine) Now() Cycle { return e.now }

// Pending reports the number of events still queued.
func (e *Engine) Pending() int { return len(e.queue) }

// Scheduled reports the number of events queued since the engine started,
// fired or not.
func (e *Engine) Scheduled() uint64 { return e.scheduled }

// Reserve preallocates queue backing for at least n more events than are
// pending, so a caller that knows its queue's peak depth never reallocates
// it mid-run. That depth also bounds the cost of a push, which moves each
// pending event due no later than the new one by one slot. A non-positive n
// does nothing.
func (e *Engine) Reserve(n int) {
	if n > 0 {
		e.queue = slices.Grow(e.queue, n)
	}
}

// SetHandler installs the typed-event dispatcher. Must be set before the
// first ScheduleKind/ScheduleKindAt call.
func (e *Engine) SetHandler(h Handler) { e.handler = h }

// SetBudget limits Run to at most limit cycles of simulated time
// (0 removes the limit). Run returns ErrBudgetExceeded if the limit is hit
// while events remain.
func (e *Engine) SetBudget(limit Cycle) { e.budget = limit }

// ErrBudgetExceeded is returned by Run when the cycle budget set with
// SetBudget is exhausted before the event queue drains.
var ErrBudgetExceeded = errors.New("sim: cycle budget exceeded")

// Schedule queues fn to run delay cycles from now. A zero delay runs fn later
// in the current cycle, after all previously queued events for this cycle.
func (e *Engine) Schedule(delay Cycle, fn Event) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	e.push(e.now+delay, fn)
}

// ScheduleAt queues fn to run at the absolute cycle at.
func (e *Engine) ScheduleAt(at Cycle, fn Event) error {
	if at < e.now {
		return fmt.Errorf("%w: at=%d now=%d", ErrPastEvent, at, e.now)
	}
	e.push(at, fn)
	return nil
}

func (e *Engine) push(at Cycle, fn Event) {
	if fn == nil {
		panic("sim: nil event")
	}
	e.scheduled++
	e.queue.push(item{at: at, fn: fn})
}

// ScheduleKind queues a typed event delay cycles from now. It shares one
// order with closure events: a typed event and a closure scheduled back to
// back for the same cycle fire in exactly that order.
//
//cohort:hotpath
func (e *Engine) ScheduleKind(delay Cycle, kind Kind, recv int32, p0, p1 uint64) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	e.pushKind(e.now+delay, kind, recv, p0, p1)
}

// ScheduleKindAt queues a typed event at the absolute cycle at.
func (e *Engine) ScheduleKindAt(at Cycle, kind Kind, recv int32, p0, p1 uint64) error {
	if at < e.now {
		return fmt.Errorf("%w: at=%d now=%d", ErrPastEvent, at, e.now) //cohort:allow hotalloc: scheduling-in-the-past error path; the run aborts
	}
	e.pushKind(at, kind, recv, p0, p1)
	return nil
}

func (e *Engine) pushKind(at Cycle, kind Kind, recv int32, p0, p1 uint64) {
	if e.handler == nil {
		panic("sim: typed event scheduled with no Handler set")
	}
	e.scheduled++
	e.queue.push(item{at: at, kind: kind, recv: recv, p0: p0, p1: p1})
}

// Step executes the earliest pending event, advancing time to its cycle.
// It reports whether an event was executed. The event is consumed in place:
// its payload is copied out and the queue truncated before it runs, since
// whatever it schedules may reuse its slot.
//
//cohort:hotpath
func (e *Engine) Step() bool {
	n := len(e.queue) - 1
	if n < 0 {
		return false
	}
	it := &e.queue[n]
	if it.at < e.now {
		// The queue's order makes this unreachable; guard anyway.
		panic(fmt.Sprintf("sim: time moved backwards: %d < %d", it.at, e.now))
	}
	e.now = it.at
	fn, kind, recv, p0, p1 := it.fn, it.kind, it.recv, it.p0, it.p1
	it.fn = nil // let the garbage collector free a fired closure
	e.queue = e.queue[:n]
	if fn != nil {
		fn(e.now)
	} else {
		e.handler.HandleEvent(e.now, kind, recv, p0, p1)
	}
	return true
}

// Advance moves the clock to at, in place of an event the caller would
// otherwise queue there, and reports whether it did. It refuses, leaving
// the clock alone, when at is before now, past the cycle budget or past the
// deadline of the RunUntil in progress, or when any queued event is due at
// or before at. On success the skipped event would have been the next to
// fire, so running its work now changes nothing: an event already queued
// for the same cycle was queued first and fires first, which is why a tie
// refuses. Only a handler with nothing left to do at the current cycle may
// call it, since on success everything it does afterwards runs at at.
//
//cohort:hotpath
func (e *Engine) Advance(at Cycle) bool {
	if at < e.now || (e.budget > 0 && at > e.budget) || (e.inUntil && at > e.deadline) {
		return false
	}
	if len(e.queue) > 0 && e.queue.next() <= at {
		return false
	}
	e.now = at
	return true
}

// Run executes events until the queue drains or the cycle budget is hit.
//
//cohort:hotpath
func (e *Engine) Run() error {
	for len(e.queue) > 0 {
		if e.budget > 0 && e.queue.next() > e.budget {
			return fmt.Errorf("%w: next event at %d, budget %d", ErrBudgetExceeded, e.queue.next(), e.budget) //cohort:allow hotalloc: budget-exhaustion error path; the run stops
		}
		e.Step()
	}
	return nil
}

// RunUntil executes events with timestamps ≤ deadline, leaving later events
// queued, and advances time to deadline.
//
//cohort:hotpath
func (e *Engine) RunUntil(deadline Cycle) {
	e.deadline, e.inUntil = deadline, true
	for len(e.queue) > 0 && e.queue.next() <= deadline {
		e.Step()
	}
	e.inUntil = false
	if e.now < deadline {
		e.now = deadline
	}
}
