package coherence

import (
	"fmt"
	"sort"

	"cohort/internal/config"
)

// Waiter is one broadcast request queued behind a line's current owner.
type Waiter struct {
	// Core is the requesting core.
	Core int
	// Write reports whether the request is a store (GetM) or a load (GetS).
	Write bool
	// Broadcast is the cycle the request became globally visible.
	Broadcast int64
}

// LineInfo is the simulator's global view of one cache line: who owns it,
// which cores hold read-only copies, the ends of the FIFO of broadcast
// requesters waiting behind the owner (the waiters themselves live in the
// Directory), and a write-version counter used to check data propagation in
// tests. A snooping system has no physical directory; this structure is the
// simulator's bookkeeping of what the snoops imply. It holds no pointer.
type LineInfo struct {
	// Owner is the core holding the line in Modified state, or MemOwner
	// when the shared memory owns it.
	Owner int
	// OwnerFetch is the cycle the owner (re)installed the line; the base of
	// the owner's timer epochs. Meaningless when Owner == MemOwner.
	OwnerFetch int64
	// Sharers is a bitmask of cores holding the line in Shared state.
	Sharers uint64
	// Version counts committed writes to the line.
	Version uint64
	// OwnerReleased marks that the owner's copy was invalidated at timer
	// expiry (or evicted) while the data transfer to the head waiter is
	// still pending; the data sits in the transfer buffer.
	OwnerReleased bool
	// waitHead and waitTail are the first and last waiter's core + 1, or 0
	// when no request waits for the line.
	waitHead, waitTail int32

	// Contention counters over a run: bus requests (broadcasts) for the
	// line, ownership transfers sourced from another cache, the cycles
	// requesters spent waiting for timer releases, and a bitmask of the
	// cores that requested the line.
	Requests    int64
	Handovers   int64
	TimerStalls int64
	Requesters  uint64
}

// PendingInv reports whether any remote requester waits for the line — the
// PendingInv signal of Fig. 3 as seen by the owner.
func (li *LineInfo) PendingInv() bool { return li.waitHead != 0 }

// AddSharer marks core as holding a Shared copy.
func (li *LineInfo) AddSharer(core int) { li.Sharers |= 1 << uint(core) }

// RemoveSharer clears core's Shared copy.
func (li *LineInfo) RemoveSharer(core int) { li.Sharers &^= 1 << uint(core) }

// IsSharer reports whether core holds a Shared copy.
func (li *LineInfo) IsSharer(core int) bool { return li.Sharers&(1<<uint(core)) != 0 }

// waitSlot is one core's place in the waiter FIFOs: its queued request and
// the next waiter for the same line.
type waitSlot struct {
	w      Waiter
	next   int32 // next waiter's core + 1; 0 ends the line's FIFO
	queued bool
}

// dirSlot is one open-addressing table slot; empty iff li == nil (so address
// 0 needs no sentinel).
type dirSlot struct {
	addr uint64
	li   *LineInfo
}

const (
	// dirInitSlots is the initial table size (power of two).
	dirInitSlots = 256
	// dirSlabLines is the LineInfo arena chunk size: records are allocated 64
	// at a time from fixed-capacity slabs, so &slab[i] pointers stay stable
	// across directory growth (callers hold *LineInfo across events).
	dirSlabLines = 64
	// dirHashMul is the Fibonacci-hashing multiplier (odd ⇒ bijective mod
	// 2^k), spreading the low, often-sequential bits of line addresses.
	dirHashMul = 0x9E3779B97F4A7C15
)

// Directory maps line addresses to their global coherence state. Lines are
// only ever added (the protocol never forgets a line), which lets the table
// be a simple linear-probe open-addressing map — no tombstones — in front of
// a slab arena, with a one-entry cache absorbing the back-to-back Get/Peek
// runs of a single transaction (coreWake → completeMiss → evictL1 touch the
// same line several times in one event).
type Directory struct {
	slots []dirSlot
	mask  uint64
	n     int

	// addrs lists tracked addresses in insertion order; ForEach sorts it
	// lazily (sorted tracks whether it is currently ascending), preserving
	// the documented ascending-address iteration contract without a per-call
	// copy-and-sort.
	addrs  []uint64
	sorted bool

	arena []LineInfo // current slab (fixed cap; a full slab is abandoned to its pointers)

	lastAddr uint64    // one-entry lookup cache
	lastLI   *LineInfo // nil until the first hit

	// waiters holds every line's waiter FIFO, one slot per core linked by
	// core index. A core has at most one outstanding miss (MSHR depth 1),
	// so it waits on at most one line and one slot per core is exact.
	waiters [config.MaxCores]waitSlot
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{
		slots:  make([]dirSlot, dirInitSlots),
		mask:   dirInitSlots - 1,
		sorted: true,
	}
}

// Get returns the LineInfo for lineAddr, creating a memory-owned record on
// first touch.
//
//cohort:hotpath
func (d *Directory) Get(lineAddr uint64) *LineInfo {
	if d.lastLI != nil && d.lastAddr == lineAddr {
		return d.lastLI
	}
	i := (lineAddr * dirHashMul) & d.mask
	for {
		s := &d.slots[i]
		if s.li == nil {
			li := d.insert(i, lineAddr)
			d.lastAddr, d.lastLI = lineAddr, li
			return li
		}
		if s.addr == lineAddr {
			d.lastAddr, d.lastLI = lineAddr, s.li
			return s.li
		}
		i = (i + 1) & d.mask
	}
}

// Peek returns the LineInfo if it exists, without creating one.
//
//cohort:hotpath
func (d *Directory) Peek(lineAddr uint64) *LineInfo {
	if d.lastLI != nil && d.lastAddr == lineAddr {
		return d.lastLI
	}
	i := (lineAddr * dirHashMul) & d.mask
	for {
		s := &d.slots[i]
		if s.li == nil {
			return nil
		}
		if s.addr == lineAddr {
			d.lastAddr, d.lastLI = lineAddr, s.li
			return s.li
		}
		i = (i + 1) & d.mask
	}
}

// insert fills the empty slot found at index i with a fresh record for addr,
// growing the table first when the next insert would cross 75% load.
func (d *Directory) insert(i uint64, addr uint64) *LineInfo {
	if (d.n+1)*4 > len(d.slots)*3 {
		d.grow()
		i = d.probeEmpty(addr)
	}
	li := d.alloc()
	d.slots[i] = dirSlot{addr: addr, li: li}
	d.n++
	if d.sorted && len(d.addrs) > 0 && addr < d.addrs[len(d.addrs)-1] {
		d.sorted = false
	}
	d.addrs = append(d.addrs, addr) //cohort:allow hotalloc: first touch of a line only; steady state takes Get's lookup path
	return li
}

// probeEmpty returns the index of the empty slot addr hashes to (addr is
// known to be absent).
func (d *Directory) probeEmpty(addr uint64) uint64 {
	i := (addr * dirHashMul) & d.mask
	for d.slots[i].li != nil {
		i = (i + 1) & d.mask
	}
	return i
}

// grow doubles the table and reinserts every occupied slot.
func (d *Directory) grow() {
	old := d.slots
	d.slots = make([]dirSlot, 2*len(old)) //cohort:allow hotalloc: table doubling, amortized O(1) per first touch
	d.mask = uint64(len(d.slots) - 1)
	for _, s := range old {
		if s.li != nil {
			d.slots[d.probeEmpty(s.addr)] = s
		}
	}
}

// alloc hands out the next LineInfo from the slab arena. Slabs have fixed
// capacity, so the returned pointer is never invalidated by later allocs.
func (d *Directory) alloc() *LineInfo {
	if len(d.arena) == cap(d.arena) {
		d.arena = make([]LineInfo, 0, dirSlabLines) //cohort:allow hotalloc: fresh slab once per dirSlabLines first touches
	}
	d.arena = append(d.arena, LineInfo{Owner: MemOwner}) //cohort:allow hotalloc: within slab capacity by the check above
	return &d.arena[len(d.arena)-1]
}

// Len returns the number of tracked lines.
func (d *Directory) Len() int { return d.n }

// ForEach visits every tracked line in ascending address order. The sort
// makes the visit order — and therefore any event the callback schedules —
// identical between runs; mode switches iterate the directory on the hot
// path, so this must never fall back to raw table order. Lines the callback
// creates are not visited (matching the previous snapshot semantics).
func (d *Directory) ForEach(fn func(lineAddr uint64, li *LineInfo)) {
	if !d.sorted {
		sort.Slice(d.addrs, func(i, j int) bool { return d.addrs[i] < d.addrs[j] })
		d.sorted = true
	}
	for _, la := range d.addrs {
		fn(la, d.Peek(la))
	}
}

// Enqueue appends w to li's waiter FIFO. A core waits for one line at a
// time, so enqueuing a core that is already queued is an error.
func (d *Directory) Enqueue(li *LineInfo, w Waiter) error {
	if d.waiters[w.Core].queued {
		return fmt.Errorf("coherence: core %d already waiting for a line", w.Core) //cohort:allow hotalloc: protocol-violation error path; the transaction aborts
	}
	d.waiters[w.Core] = waitSlot{w: w, queued: true}
	id := int32(w.Core) + 1
	if li.waitTail != 0 {
		d.waiters[li.waitTail-1].next = id
	} else {
		li.waitHead = id
	}
	li.waitTail = id
	return nil
}

// HeadWaiter returns li's oldest waiter, or nil.
func (d *Directory) HeadWaiter(li *LineInfo) *Waiter {
	if li.waitHead == 0 {
		return nil
	}
	return &d.waiters[li.waitHead-1].w
}

// PopWaiter removes and returns li's oldest waiter; li must have one.
func (d *Directory) PopWaiter(li *LineInfo) Waiter {
	slot := &d.waiters[li.waitHead-1]
	li.waitHead = slot.next
	if li.waitHead == 0 {
		li.waitTail = 0
	}
	slot.queued = false
	return slot.w
}
