// The optimizer's exact oracle: one analysis.RegimeSet per timed core
// stream, shared process-wide through a content-addressed cache. Every
// value a set serves is an analysis.IsolationHits result (regime constancy,
// DESIGN.md §14), so this file changes only the oracle's cost, never its
// answers.
package opt

import (
	"crypto/sha256"
	"encoding/binary"

	"cohort/internal/analysis"
	"cohort/internal/config"
	"cohort/internal/parallel"
	"cohort/internal/trace"
)

// curveMemo caches regime sets process-wide, keyed by curveKey: everything
// that defines a stream's step function θ → (hits, misses). Optimization
// runs — and above them the experiment harness and the GA benchmark —
// repeatedly analyze the same stream content, so every regime is replayed
// once per distinct (stream, platform) pair per process. A set holds only
// its intervals, never the stream.
var curveMemo = parallel.NewCache[*analysis.RegimeSet]()

// ResetCurveCache drops every cached regime set. Equivalence tests call it
// to compare cold-cache runs.
func ResetCurveCache() {
	curveMemo.Reset()
}

// streamFingerprint content-addresses a stream: a SHA-256 over every
// access, fed through a fixed buffer so the pass allocates nothing per
// access.
func streamFingerprint(s trace.Stream) string {
	h := sha256.New()
	var buf [64 * 24]byte
	n := 0
	for i := range s {
		a := &s[i]
		binary.LittleEndian.PutUint64(buf[n:], a.Addr)
		binary.LittleEndian.PutUint64(buf[n+8:], uint64(a.Kind))
		binary.LittleEndian.PutUint64(buf[n+16:], uint64(a.Gap))
		if n += 24; n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
	}
	h.Write(buf[:n])
	return string(h.Sum(nil))
}

// curveKey content-addresses a regime set: the geometry, the two latency
// components the analysis consumes (hit cost and per-miss slot width), and
// the stream's length and fingerprint.
func curveKey(s trace.Stream, geom config.CacheGeometry, lat config.Latencies) string {
	k := parallel.NewKey("opt/regimes")
	k.Int(geom.SizeBytes).Int(geom.LineBytes).Int(geom.Ways)
	k.Int64(lat.Hit).Int64(lat.SlotWidth())
	k.Int(len(s)).Str(streamFingerprint(s))
	return k.Sum()
}

// regimeSets returns one regime set per timed core (nil for untimed cores),
// fingerprinting each timed stream once. Under an active seeded fault the
// sets are fresh and private: a skewed set must never enter the shared
// cache, where it would leak into unrelated runs.
func regimeSets(p *Problem) []*analysis.RegimeSet {
	sets := make([]*analysis.RegimeSet, len(p.Streams))
	for i, timed := range p.Timed {
		switch {
		case !timed:
		case analysis.TestHooks.RegimeEndSkew != 0:
			sets[i] = &analysis.RegimeSet{}
		default:
			sets[i] = curveMemo.GetOrCompute(curveKey(p.Streams[i], p.L1, p.Lat), func() *analysis.RegimeSet {
				return &analysis.RegimeSet{}
			})
		}
	}
	return sets
}

// query is one (core, θ) question to the oracle.
type query struct {
	core  int
	theta config.Timer
}

// resolve records in sets the regime of every timed (core, θ) pair the
// vectors need. Uncovered pairs are collected against the sets as they
// stand on entry, deduplicated, replayed through one parallel.Map, and
// inserted serially in submission order — one code path for every worker
// count. It returns the number of replays run.
func resolve(p *Problem, sets []*analysis.RegimeSet, vectors [][]config.Timer, workers int) int {
	var pending []query
	seen := make(map[query]bool)
	for _, timers := range vectors {
		for i, th := range timers {
			if !th.Timed() {
				continue
			}
			q := query{core: i, theta: th}
			if seen[q] {
				continue
			}
			seen[q] = true
			if _, _, ok := sets[i].Lookup(th); !ok {
				pending = append(pending, q)
			}
		}
	}
	regimes := parallel.Map(workers, len(pending), func(k int) analysis.Regime {
		q := pending[k]
		return analysis.Replay(p.Streams[q.core], p.L1, p.Lat, q.theta, p.Lat.SlotWidth())
	})
	for k, q := range pending {
		sets[q.core].Insert(regimes[k])
	}
	return len(pending)
}

// thetaIS computes the per-gene saturation timers (§V): one sweep per timed
// core through its regime set, fanned out across workers. Every regime a
// sweep replays stays in the set for the evaluations that follow.
func thetaIS(p *Problem, sets []*analysis.RegimeSet, workers int) []config.Timer {
	timed := make([]int, 0, len(p.Timed))
	for i, t := range p.Timed {
		if t {
			timed = append(timed, i)
		}
	}
	return parallel.Map(workers, len(timed), func(g int) config.Timer {
		i := timed[g]
		th, _ := sets[i].SaturationTimer(p.Streams[i], p.L1, p.Lat)
		return th
	})
}
