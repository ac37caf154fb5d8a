// Regime-interval oracle: the exact, lazily filled form of the in-isolation
// analysis that the optimizer queries.
//
// A single replay at a fixed θ yields more than its own split. Each access
// of the replay takes a branch decided by at most one comparison with θ: a
// hit needs its age now − fetchedAt ≤ θ, and a window miss (its kind
// condition holds: a read, or a write finding a Modified copy) has an age
// above θ. So every θ′ from the largest hit age up to, but not including,
// the smallest window-miss age takes the same branches, access for access,
// and the replay at θ answers that whole interval. No per-access
// monotonicity is assumed and none holds (DESIGN.md §14 gives a
// counterexample); what holds is regime constancy on that two-sided
// interval, and both of its ends are tight, so the regimes of two replays
// are equal or disjoint. A RegimeSet that records them answers any later θ′
// inside one with a binary search.
//
// The replay itself splits in two. Which line each access finds, the slot it
// lands in and every LRU victim depend only on the access sequence: every
// access leaves its line resident and most recently used, whether it hits,
// refills in place or fills a victim. A Plan records that θ-independent part
// once, and each replay walks the record with θ, tracking only each slot's
// fetch time and Modified bit.
package analysis

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

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

// planWork counts the compiled-plan work of the whole process.
var planWork struct{ compiles, replays, accesses atomic.Int64 }

// PlanWork reports the process-wide oracle work so far: plans compiled,
// replays run, and the accesses those replays walked.
func PlanWork() (compiles, replays, accesses int64) {
	return planWork.compiles.Load(), planWork.replays.Load(), planWork.accesses.Load()
}

// step is one access of a compiled plan.
type step struct {
	gap int64
	// slot is the access's cache slot, set*ways + way.
	slot uint32
	// op holds stepRead for a load and stepResident when the access finds
	// its line in the cache.
	op uint32
}

const (
	stepRead     = 1 << 0
	stepResident = 1 << 1
)

// Plan is a stream compiled for repeated replays on one geometry: per
// access its gap, its cache slot, whether its line is resident and whether
// it is a load. It is built by NewPlan and compiled on its first replay, at
// most once; all methods are safe for concurrent use.
type Plan struct {
	s         trace.Stream
	lineShift uint
	setMask   uint64
	ways      int
	once      sync.Once
	steps     []step
}

// NewPlan returns the uncompiled plan of s on geom. The geometry must
// satisfy the constraints cache.New enforces (power-of-two line size and set
// count); violations panic.
func NewPlan(s trace.Stream, geom config.CacheGeometry) *Plan {
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
	if uint64(nSets*geom.Ways) > math.MaxUint32 {
		panic(fmt.Sprintf("analysis: %d cache slots overflow a plan's slot index", nSets*geom.Ways))
	}
	return &Plan{
		s:         s,
		lineShift: uint(bits.TrailingZeros(uint(geom.LineBytes))),
		setMask:   uint64(nSets - 1),
		ways:      geom.Ways,
	}
}

// slots returns the number of cache slots, sets × ways.
func (p *Plan) slots() int { return int(p.setMask+1) * p.ways }

// compile runs the θ-independent pass: tag lookup and strict-LRU victim
// selection, with the first invalid way, else the lowest way among equally
// old ones, winning — exactly cache.VictimFor with no pinning.
func (p *Plan) compile() {
	planWork.compiles.Add(1)
	tags := make([]uint64, p.slots())
	lastUse := make([]uint64, p.slots()) // 0 marks an invalid way
	steps := make([]step, len(p.s))
	clock := uint64(0)
	for i := range p.s {
		a := &p.s[i]
		line := a.Addr >> p.lineShift
		row := int(line&p.setMask) * p.ways
		way := -1
		for w := 0; w < p.ways; w++ {
			if lastUse[row+w] != 0 && tags[row+w] == line {
				way = w
				break
			}
		}
		resident := way >= 0
		if !resident {
			for w := 0; w < p.ways; w++ {
				if lastUse[row+w] == 0 {
					way = w
					break
				}
				if way == -1 || lastUse[row+w] < lastUse[row+way] {
					way = w
				}
			}
			tags[row+way] = line
		}
		clock++
		lastUse[row+way] = clock
		st := step{gap: a.Gap, slot: uint32(row + way)}
		if a.Kind == trace.Read {
			st.op |= stepRead
		}
		if resident {
			st.op |= stepResident
		}
		steps[i] = st
	}
	p.steps = steps
}

// Replay runs GuaranteedHits(s, geom, lat, θ, wcl) — the same branch
// sequence, bit for bit — and returns the regime containing θ: Start is the
// largest hit age (at least 1) and End the smallest window-miss age, or
// TimerMax+1 when no θ′ in the timed domain turns a miss into a hit. θ must
// lie in [1, TimerMax].
func (p *Plan) Replay(lat config.Latencies, theta config.Timer, wcl int64) Regime {
	if !theta.Timed() || theta > config.TimerMax {
		panic(fmt.Sprintf("analysis: replay at θ=%d outside the timed domain", theta))
	}
	if wcl <= 0 {
		// Same guard, same message as the scalar kernel.
		panic(fmt.Sprintf("analysis: non-positive WCL %d", wcl))
	}
	p.once.Do(p.compile)
	planWork.replays.Add(1)
	planWork.accesses.Add(int64(len(p.steps)))

	// cells[slot] is the slot's fetch time shifted left by one, with the
	// Modified bit in bit 0.
	steps, cells := p.steps, make([]int64, p.slots())
	hitCost, window := lat.Hit, int64(theta)
	var hits, now int64
	start, end := int64(1), int64(domainEnd)
	for _, st := range steps {
		now += st.gap
		c := &cells[st.slot]
		// Resident, and a load or a store finding its line Modified: one
		// test, as the Modified bit stands in for stepRead.
		if uint32(*c)&1|st.op == stepRead|stepResident {
			// The kind condition holds, so θ alone decides: a hit at every
			// θ′ ≥ age, a window miss at every θ′ < age.
			age := now - *c>>1
			if age <= window {
				hits++
				now += hitCost
				start = max(start, age)
				continue
			}
			end = min(end, age)
		}
		// A window miss, an upgrade or a cold or capacity miss: the line is
		// (re)filled in its slot with a fresh window.
		now += wcl
		*c = now<<1 | int64(^st.op&stepRead)
	}
	return Regime{Start: config.Timer(start), End: config.Timer(end), Hits: hits, Misses: int64(len(steps)) - hits}
}

// RegimeSet is the lazily filled step function θ → (hits, misses) of one
// stream's in-isolation analysis: disjoint half-open regimes sorted by
// start. It holds no reference to the stream — callers pass the stream's
// plan to each call that may replay — so a set shared process-wide keeps
// nothing alive but its intervals. The zero value is an empty set; all
// methods are safe for concurrent use.
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

// Insert records a regime returned by Plan.Replay, clipped to the gap
// between its recorded neighbours, and drops it when nothing is left. Exact
// regimes are equal or disjoint, so an equal regime is dropped and any other
// is inserted whole, in order. Under a seeded RegimeEndSkew the clip keeps
// the set disjoint, and every replayed θ stays covered: it lies in the
// clipped regime or in its widened predecessor.
func (rs *RegimeSet) Insert(r Regime) {
	if sk := TestHooks.RegimeEndSkew; sk != 0 {
		r.End = min(r.End+sk, domainEnd)
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	i := rs.upper(r.Start)
	if i > 0 {
		r.Start = max(r.Start, rs.regimes[i-1].End)
	}
	if i < len(rs.regimes) {
		r.End = min(r.End, rs.regimes[i].Start)
	}
	if r.Start >= r.End {
		return
	}
	rs.regimes = append(rs.regimes, Regime{})
	copy(rs.regimes[i+1:], rs.regimes[i:])
	rs.regimes[i] = r
}

// IsolationHits answers IsolationHits(s, geom, lat, θ) for a timed θ from
// the set, replaying p and recording the regime on a miss. p and lat must
// be the ones every earlier regime of the set was replayed from.
func (rs *RegimeSet) IsolationHits(p *Plan, lat config.Latencies, theta config.Timer) (hits, misses int64) {
	if h, m, ok := rs.Lookup(theta); ok {
		return h, m
	}
	r := p.Replay(lat, theta, lat.SlotWidth())
	rs.Insert(r)
	return r.Hits, r.Misses
}

// SaturationTimer is the package-level SaturationTimer answered through the
// set: the same probe sequence, each probe a lookup or one recorded replay,
// so the result is bit-identical and later queries reuse every regime the
// sweep found.
func (rs *RegimeSet) SaturationTimer(p *Plan, lat config.Latencies) (config.Timer, int64) {
	return saturationSweep(func(th config.Timer) int64 {
		h, _ := rs.IsolationHits(p, lat, th)
		return h
	})
}
