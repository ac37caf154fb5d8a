// Regime-interval oracle: the exact, lazily filled form of the in-isolation
// analysis that the optimizer queries.
//
// A single replay at a fixed θ yields more than its own split. Every branch
// the replay takes stays identical for every θ' ≥ θ up to the first access
// whose classification can change, and the smallest such θ' — nextBreak —
// is directly readable off the replay: it is the minimum "flip age"
// now − fetchedAt over the window misses whose kind condition holds (a read,
// or a write finding a Modified copy). No per-access monotonicity is assumed
// and none holds (DESIGN.md §14 gives a counterexample). What does hold is
// regime constancy: for every integer θ' in [θ, nextBreak) the entire
// replay — every lookup, every window test, every victim choice — is
// access-for-access identical to the replay at θ. So one replay answers the
// whole half-open interval [θ, nextBreak), and a RegimeSet that records
// those intervals answers any later θ' inside one with a binary search.
package analysis

import (
	"fmt"
	"math/bits"
	"sync"

	"cohort/internal/cache"
	"cohort/internal/config"
	"cohort/internal/trace"
)

// TestHooks holds seeded-fault injection points for the analysis package.
// All fields are zero in production; tests set them to prove the
// differential harnesses fail closed.
var TestHooks struct {
	// RegimeEndSkew widens the end of every interval a RegimeSet records by
	// the given amount, so queries just past a true regime boundary are
	// answered with the previous regime's split — silently wrong, exactly
	// what the equivalence suites must detect.
	RegimeEndSkew config.Timer
}

// domainEnd is the exclusive end of the timed domain [1, TimerMax].
const domainEnd = config.TimerMax + 1

// Regime is the answer of one replay: the guaranteed hit/miss split, which
// holds for every θ in the half-open interval [Start, End).
type Regime struct {
	Start, End   config.Timer
	Hits, Misses int64
}

// replayEntry is one cache-line slot of the replay's private cache: the
// fields of cache.Entry the in-isolation analysis reads.
type replayEntry struct {
	lineAddr  uint64
	fetchedAt int64
	lastUse   uint64
	state     cache.State
}

// Replay runs GuaranteedHits(s, geom, lat, θ, wcl) — the same branch
// sequence, bit for bit — and returns the regime containing θ: End is the
// smallest θ' > θ at which the classification can first differ, or
// TimerMax+1 when no θ' in the timed domain changes anything. θ must lie in
// [1, TimerMax]. The geometry must satisfy the constraints cache.New
// enforces (power-of-two line size and set count); violations panic.
func Replay(s trace.Stream, geom config.CacheGeometry, lat config.Latencies, theta config.Timer, wcl int64) Regime {
	if !theta.Timed() || theta > config.TimerMax {
		panic(fmt.Sprintf("analysis: replay at θ=%d outside the timed domain", theta))
	}
	if wcl <= 0 {
		// Same guard, same message as the scalar kernel.
		panic(fmt.Sprintf("analysis: non-positive WCL %d", wcl))
	}
	if geom.SizeBytes <= 0 || geom.LineBytes <= 0 || geom.Ways <= 0 {
		panic("analysis: non-positive replay geometry")
	}
	if bits.OnesCount(uint(geom.LineBytes)) != 1 {
		panic(fmt.Sprintf("analysis: line size %d not a power of two", geom.LineBytes))
	}
	nSets := geom.SizeBytes / (geom.LineBytes * geom.Ways)
	if nSets <= 0 || bits.OnesCount(uint(nSets)) != 1 {
		panic(fmt.Sprintf("analysis: set count %d not a positive power of two", nSets))
	}
	lineShift := uint(bits.TrailingZeros(uint(geom.LineBytes)))
	setMask := uint64(nSets - 1)
	ways := geom.Ways
	ents := make([]replayEntry, nSets*ways)

	var hits, misses int64
	window := int64(theta)
	now := int64(0)
	next := int64(domainEnd)
	useClock := uint64(0)
	for ai := range s {
		a := &s[ai]
		line := a.Addr >> lineShift
		row := int(line&setMask) * ways
		isRead := a.Kind == trace.Read
		now += a.Gap
		hit := -1
		for w := 0; w < ways; w++ {
			e := &ents[row+w]
			if e.state != cache.Invalid && e.lineAddr == line {
				hit = w
				break
			}
		}
		st := cache.Shared
		if !isRead {
			st = cache.Modified
		}
		if hit >= 0 {
			e := &ents[row+hit]
			if now <= e.fetchedAt+window && (isRead || e.state == cache.Modified) {
				hits++
				now += lat.Hit
				useClock++
				e.lastUse = useClock
				continue
			}
			if isRead || e.state == cache.Modified {
				// A pure window miss: θ' ≥ now − fetchedAt would classify
				// this access a hit (the kind condition already holds), so
				// its age is a candidate breakpoint.
				if age := now - e.fetchedAt; age < next {
					next = age
				}
			}
			// Present but outside the window (or an upgrade): re-fill in
			// place with a fresh window.
			misses++
			now += wcl
			e.lineAddr, e.state, e.fetchedAt = line, st, now
			useClock++
			e.lastUse = useClock
			continue
		}
		// Cold or capacity miss: first invalid way, else strict-LRU with the
		// lowest way winning ties — exactly cache.VictimFor with no pinning.
		misses++
		now += wcl
		victim := -1
		for w := 0; w < ways; w++ {
			e := &ents[row+w]
			if e.state == cache.Invalid {
				victim = w
				break
			}
			if victim == -1 || e.lastUse < ents[row+victim].lastUse {
				victim = w
			}
		}
		e := &ents[row+victim]
		e.lineAddr, e.state, e.fetchedAt = line, st, now
		useClock++
		e.lastUse = useClock
	}
	return Regime{Start: theta, End: config.Timer(next), Hits: hits, Misses: misses}
}

// RegimeSet is the lazily filled step function θ → (hits, misses) of one
// stream's in-isolation analysis: disjoint half-open regimes sorted by
// start. It holds no reference to the stream — callers pass the stream to
// each call that may replay — so a set shared process-wide keeps nothing
// alive but its intervals. The zero value is an empty set; all methods are
// safe for concurrent use.
type RegimeSet struct {
	mu      sync.Mutex
	regimes []Regime
}

// Lookup answers θ from the recorded regimes; ok is false when no recorded
// regime covers θ.
func (rs *RegimeSet) Lookup(theta config.Timer) (hits, misses int64, ok bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	i := rs.upper(theta)
	if i == 0 || theta >= rs.regimes[i-1].End {
		return 0, 0, false
	}
	r := &rs.regimes[i-1]
	return r.Hits, r.Misses, true
}

// upper returns the number of recorded regimes starting at or before θ.
// Callers hold rs.mu.
func (rs *RegimeSet) upper(theta config.Timer) int {
	lo, hi := 0, len(rs.regimes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rs.regimes[mid].Start <= theta {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert records a regime returned by Replay. A regime already covered is
// dropped. Two replays inside one true regime share its end, so a regime
// overlapping its successor extends that successor downward instead of
// being stored twice.
func (rs *RegimeSet) Insert(r Regime) {
	if sk := TestHooks.RegimeEndSkew; sk != 0 {
		r.End = min(r.End+sk, domainEnd)
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	i := rs.upper(r.Start)
	if i > 0 && r.Start < rs.regimes[i-1].End {
		return
	}
	if i < len(rs.regimes) && r.End > rs.regimes[i].Start {
		rs.regimes[i].Start = r.Start
		return
	}
	rs.regimes = append(rs.regimes, Regime{})
	copy(rs.regimes[i+1:], rs.regimes[i:])
	rs.regimes[i] = r
}

// IsolationHits answers IsolationHits(s, geom, lat, θ) for a timed θ from
// the set, replaying and recording the regime on a miss. s, geom and lat
// must be the ones every earlier regime of the set was replayed from.
func (rs *RegimeSet) IsolationHits(s trace.Stream, geom config.CacheGeometry, lat config.Latencies, theta config.Timer) (hits, misses int64) {
	if h, m, ok := rs.Lookup(theta); ok {
		return h, m
	}
	r := Replay(s, geom, lat, theta, lat.SlotWidth())
	rs.Insert(r)
	return r.Hits, r.Misses
}

// SaturationTimer is the package-level SaturationTimer answered through the
// set: the same probe sequence, each probe a lookup or one recorded replay,
// so the result is bit-identical and later queries reuse every regime the
// sweep found.
func (rs *RegimeSet) SaturationTimer(s trace.Stream, geom config.CacheGeometry, lat config.Latencies) (config.Timer, int64) {
	return saturationSweep(func(th config.Timer) int64 {
		h, _ := rs.IsolationHits(s, geom, lat, th)
		return h
	})
}
