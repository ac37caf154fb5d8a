// Package cache provides the structural cache model shared by the private L1s
// and the shared LLC: address decomposition, MSI line states, and a
// set-associative array with LRU replacement and pinning support (used to
// keep timer-protected lines resident). The coherence behaviour itself lives
// in internal/coherence; this package only stores state.
package cache

import (
	"fmt"
	"math/bits"
)

// State is the MSI stable state of a cache line.
type State uint8

const (
	// Invalid: the line is not present.
	Invalid State = iota
	// Shared: read-only copy; other caches may also hold it.
	Shared
	// Exclusive: the only cached copy, clean (MESI only); a store upgrades
	// it to Modified silently, without a bus transaction.
	Exclusive
	// Modified: exclusive, writable, dirty copy; all other caches hold Invalid.
	Modified
)

// String returns "I", "S", "E" or "M".
func (s State) String() string {
	switch s {
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return "I"
	}
}

// Owned reports whether the state makes the holder the line's owner
// (Exclusive or Modified): the only cached copy, registered as the
// directory owner.
func (s State) Owned() bool { return s == Exclusive || s == Modified }

// Entry is one cache line slot. LineAddr is the line-granularity address
// (byte address >> log2(lineBytes)); Version counts committed writes to the
// line and exists so integration tests can assert data propagation.
type Entry struct {
	LineAddr  uint64
	State     State
	Version   uint64
	FetchedAt int64  // cycle the line was installed (timer epoch base)
	lastUse   uint64 // LRU stamp
}

// Valid reports whether the slot holds a line.
func (e *Entry) Valid() bool { return e.State != Invalid }

// Cache is a set-associative cache array. Ways = 1 models the paper's
// direct-mapped private caches. The zero value is not usable; use New.
//
// The array is one set-major slice: set s occupies entries[s*ways :
// (s+1)*ways]. A lookup computes its set's offset instead of loading a
// per-set slice header first.
type Cache struct {
	entries   []Entry
	ways      int
	lineShift uint
	setMask   uint64
	useClock  uint64
}

// New builds a cache of sizeBytes capacity with the given line size and
// associativity. Sizes must produce a power-of-two set count (validated by
// config; double-checked here).
func New(sizeBytes, lineBytes, ways int) *Cache {
	if sizeBytes <= 0 || lineBytes <= 0 || ways <= 0 {
		panic("cache: non-positive geometry")
	}
	if bits.OnesCount(uint(lineBytes)) != 1 {
		panic(fmt.Sprintf("cache: line size %d not a power of two", lineBytes))
	}
	nSets := sizeBytes / (lineBytes * ways)
	if nSets <= 0 || bits.OnesCount(uint(nSets)) != 1 {
		panic(fmt.Sprintf("cache: set count %d not a positive power of two", nSets))
	}
	return &Cache{
		entries:   make([]Entry, nSets*ways),
		ways:      ways,
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		setMask:   uint64(nSets - 1),
	}
}

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return 1 << c.lineShift }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.entries) / c.ways }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineAddr converts a byte address to a line-granularity address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift }

// SetIndex returns the set a line address maps to.
func (c *Cache) SetIndex(lineAddr uint64) int { return int(lineAddr & c.setMask) }

// set returns the ways of set s.
func (c *Cache) set(s int) []Entry {
	base := s * c.ways
	return c.entries[base : base+c.ways]
}

// Lookup returns the entry holding lineAddr, or nil on a miss. It does not
// update recency; call Touch on a hit.
func (c *Cache) Lookup(lineAddr uint64) *Entry {
	// Indexing the flat array directly, rather than through c.set, skips
	// building a slice header on the hottest path.
	base := c.SetIndex(lineAddr) * c.ways
	for i := base; i < base+c.ways; i++ {
		if e := &c.entries[i]; e.Valid() && e.LineAddr == lineAddr {
			return e
		}
	}
	return nil
}

// Touch marks the entry most-recently used.
func (c *Cache) Touch(e *Entry) {
	c.useClock++
	e.lastUse = c.useClock
}

// VictimFor selects the slot that would hold lineAddr: an invalid slot if one
// exists, otherwise the least-recently-used slot for which pinned (if
// non-nil) returns false. It returns nil when every valid slot is pinned.
// The caller is responsible for handling write-back/invalidation of the
// returned slot before calling Fill.
func (c *Cache) VictimFor(lineAddr uint64, pinned func(*Entry) bool) *Entry {
	set := c.set(c.SetIndex(lineAddr))
	var victim *Entry
	for i := range set {
		e := &set[i]
		if !e.Valid() {
			return e
		}
		if pinned != nil && pinned(e) {
			continue
		}
		if victim == nil || e.lastUse < victim.lastUse {
			victim = e
		}
	}
	return victim
}

// Fill installs lineAddr into slot e with the given state, stamping recency
// and the fetch cycle. The slot's previous contents are overwritten; the
// caller must have evicted them first.
func (c *Cache) Fill(e *Entry, lineAddr uint64, st State, now int64) {
	if st == Invalid {
		panic("cache: Fill with Invalid state")
	}
	e.LineAddr = lineAddr
	e.State = st
	e.FetchedAt = now
	c.Touch(e)
}

// Invalidate empties slot e.
func (c *Cache) Invalidate(e *Entry) {
	*e = Entry{}
}

// InvalidateAll empties the whole cache (used on mode-switch flush ablations
// and tests).
func (c *Cache) InvalidateAll() {
	clear(c.entries)
}

// ForEach calls fn for every valid entry; iteration order is deterministic
// (set-major, way-minor).
func (c *Cache) ForEach(fn func(*Entry)) {
	for i := range c.entries {
		if c.entries[i].Valid() {
			fn(&c.entries[i])
		}
	}
}

// EntriesLRU returns the valid entries of set s ordered least-recently-used
// first (ties broken by way index, which cannot occur for entries touched
// through Touch). Callers needing a canonical view of replacement state use
// the ordering rather than the raw use stamps, so two caches differing only
// in absolute use-clock values compare equal.
func (c *Cache) EntriesLRU(s int) []*Entry {
	return c.AppendEntriesLRU(nil, s)
}

// AppendEntriesLRU appends the set's valid entries to dst in EntriesLRU
// order and returns the extended slice. Passing a reused buffer (dst[:0])
// makes the snapshot allocation-free; the insertion sort is stable, so ties
// keep ascending way order exactly as sort.SliceStable did. Sets hold a
// handful of ways, where insertion sort beats the generic sort outright.
func (c *Cache) AppendEntriesLRU(dst []*Entry, s int) []*Entry {
	set := c.set(s)
	base := len(dst)
	for w := range set {
		if !set[w].Valid() {
			continue
		}
		e := &set[w]
		i := len(dst)
		dst = append(dst, e)
		for i > base && dst[i-1].lastUse > e.lastUse {
			dst[i] = dst[i-1]
			i--
		}
		dst[i] = e
	}
	return dst
}

// CountValid returns the number of resident lines.
func (c *Cache) CountValid() int {
	n := 0
	c.ForEach(func(*Entry) { n++ })
	return n
}
