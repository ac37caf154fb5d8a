package sim

// item is one queued event: the cycle it is due and what runs then, either
// a closure (fn non-nil) or a typed event for the engine's Handler.
type item struct {
	at   Cycle
	fn   Event // nil for typed events
	p0   uint64
	p1   uint64
	recv int32
	kind Kind
}

// queue holds the pending events sorted by due cycle, latest first, so the
// next event to fire is always the last element and firing it only
// truncates the slice. push places a new event to fire after every queued
// event due at or before its cycle, so events due in the same cycle fire in
// the order they were queued: the insertion position is the tie-break, and
// no sequence number is stored.
//
// A push costs one step per queued event due no later than its own, so it
// is linear in the depth at worst. The simulator's queue is shallow: one
// wake or kick per core plus the in-flight bus events and timer expiries.
type queue []item

// push queues it to fire after every event due at or before it.at.
func (q *queue) push(it item) {
	s := append(*q, it) //cohort:allow hotalloc: queue grows to its high-water mark, then append stays within capacity
	i := len(s) - 1
	for i > 0 && s[i-1].at <= it.at {
		s[i] = s[i-1]
		i--
	}
	s[i] = it
	*q = s
}

// next reports the cycle the next event is due. The queue must not be
// empty.
func (q queue) next() Cycle { return q[len(q)-1].at }
