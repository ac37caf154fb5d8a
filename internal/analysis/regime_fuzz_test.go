package analysis

import (
	"testing"

	"cohort/internal/config"
	"cohort/internal/parallel"
	"cohort/internal/trace"
)

// fuzzStream decodes the shared fuzz encoding's trace tail: three bytes per
// access (address byte, kind/alias byte, gap byte), capped at 512 accesses.
func fuzzStream(data []byte) trace.Stream {
	var s trace.Stream
	for p := 0; p+2 < len(data) && len(s) < 512; p += 3 {
		k := trace.Read
		if data[p+1]&1 == 1 {
			k = trace.Write
		}
		s = append(s, trace.Access{
			// Spread addresses over several sets and force aliasing.
			Addr: uint64(data[p])*64 + uint64(data[p+1]&0xf0)*4096,
			Kind: k,
			Gap:  int64(data[p+2]),
		})
	}
	return s
}

// FuzzCurveVsScalar replays a random trace prefix at a fuzzer-chosen θ grid
// through one compiled plan and asserts exact two-sided regimes against the
// scalar GuaranteedHits: each replay's regime must satisfy
// 1 ≤ Start ≤ θ < End, and its split must hold at Start, at θ, at a fuzzed
// θ′ inside the regime and at its last member End−1. Both ends must be
// tight: the replay at Start−1 ends at Start, and the replay at End starts
// at End, whenever those lie in the timed domain. Every regime is then
// inserted into one RegimeSet — the lazily filled hit curve
// θ → (hits, misses) — which must answer the same points identically; grid
// values that share a regime exercise the set's equal-regime drop. The
// encoding is a geometry byte, a grid width byte, one θ byte per grid point,
// then three bytes per access.
//
//	go test -fuzz FuzzCurveVsScalar ./internal/analysis
func FuzzCurveVsScalar(f *testing.F) {
	f.Add([]byte{0, 3, 5, 0, 200, 17, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 1, 255, 10, 20, 30, 10, 20, 30, 10, 20, 31})
	f.Add([]byte{2, 8, 0, 1, 2, 3, 4, 5, 6, 7, 100, 3, 9, 100, 2, 0, 100, 1, 255})
	f.Add([]byte{0, 2, 9, 9, 64, 0, 0, 64, 1, 0, 64, 0, 0})
	f.Add([]byte{2, 4, 254, 253, 7, 255, 1, 1, 200, 1, 0, 3, 65, 1, 90, 1, 0, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		geom := testGeoms[int(data[0])%len(testGeoms)]
		width := int(data[1])%8 + 1
		if len(data) < 2+width {
			return
		}
		thetas := make([]config.Timer, width)
		for i := 0; i < width; i++ {
			// Map a byte across the timed domain, its two edges included.
			switch v := data[2+i]; v {
			case 0:
				thetas[i] = 1
			case 255:
				thetas[i] = config.TimerMax
			default:
				thetas[i] = config.Timer(v)
			}
		}
		s := fuzzStream(data[2+width:])
		lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
		wcl := lat.SlotWidth()
		plan := NewPlan(s, geom)
		var rs RegimeSet
		var probes []config.Timer
		for i, th := range thetas {
			r := plan.Replay(lat, th, wcl)
			if r.Start < 1 || r.Start > th || r.End <= th || r.End > config.TimerMax+1 {
				t.Fatalf("θ=%v: malformed regime [%v, %v)", th, r.Start, r.End)
			}
			// θ′ drawn from the next grid byte, inside [Start, End).
			mid := r.Start + config.Timer(data[2+(i+1)%width])%(r.End-r.Start)
			for _, p := range []config.Timer{r.Start, th, mid, r.End - 1} {
				wantH, wantM := GuaranteedHits(s, geom, lat, p, wcl)
				if r.Hits != wantH || r.Misses != wantM {
					t.Fatalf("θ=%v regime [%v, %v) at θ′=%v: replay (%d,%d) != scalar (%d,%d)",
						th, r.Start, r.End, p, r.Hits, r.Misses, wantH, wantM)
				}
				probes = append(probes, p)
			}
			if r.Start > 1 {
				if below := plan.Replay(lat, r.Start-1, wcl); below.End != r.Start {
					t.Fatalf("θ=%v regime [%v, %v): the replay at Start−1 ends at %v, not Start", th, r.Start, r.End, below.End)
				}
			}
			if r.End <= config.TimerMax {
				if above := plan.Replay(lat, r.End, wcl); above.Start != r.End {
					t.Fatalf("θ=%v regime [%v, %v): the replay at End starts at %v, not End", th, r.Start, r.End, above.Start)
				}
			}
			rs.Insert(r)
		}
		for _, p := range probes {
			gotH, gotM, ok := rs.Lookup(p)
			wantH, wantM := GuaranteedHits(s, geom, lat, p, wcl)
			if !ok || gotH != wantH || gotM != wantM {
				t.Fatalf("θ=%v: set (%d,%d,%v) != scalar (%d,%d)", p, gotH, gotM, ok, wantH, wantM)
			}
		}
	})
}

// FuzzBatchVsScalar fills a RegimeSet the way the optimizer resolves a batch
// of queries: the timed columns of a fuzzer-chosen θ batch are replayed
// concurrently, then inserted in submission order. Every column — timed or
// not — must then answer IsolationHits exactly like the scalar kernel, and
// answering the batch a second time must replay nothing: the regimes one
// batch records cover all of its own columns. Untimed columns are answered
// all-miss without a replay, as the evaluator does. θ bytes map across every
// timer class (MSI, no-cache, small, the maximum); the rest of the encoding
// is FuzzCurveVsScalar's.
//
//	go test -fuzz FuzzBatchVsScalar ./internal/analysis
func FuzzBatchVsScalar(f *testing.F) {
	f.Add([]byte{0, 3, 5, 0, 200, 17, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 1, 255, 10, 20, 30, 10, 20, 30, 10, 20, 31})
	f.Add([]byte{2, 8, 0, 1, 2, 3, 4, 5, 6, 7, 100, 3, 9, 100, 2, 0, 100, 1, 255})
	f.Add([]byte{0, 2, 9, 9, 64, 0, 0, 64, 1, 0, 64, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		geom := testGeoms[int(data[0])%len(testGeoms)]
		width := int(data[1])%8 + 1
		if len(data) < 2+width {
			return
		}
		thetas := make([]config.Timer, width)
		for i := 0; i < width; i++ {
			switch v := data[2+i]; v {
			case 255:
				thetas[i] = config.TimerMax
			case 254:
				thetas[i] = config.TimerMSI
			case 253:
				thetas[i] = config.TimerNoCache
			default:
				thetas[i] = config.Timer(v)
			}
		}
		s := fuzzStream(data[2+width:])
		lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
		var timed []config.Timer
		for _, th := range thetas {
			if th.Timed() {
				timed = append(timed, th)
			}
		}
		var rs RegimeSet
		plan := NewPlan(s, geom) // compiled by the first job to replay it
		regimes := parallel.Map(4, len(timed), func(k int) Regime {
			return plan.Replay(lat, timed[k], lat.SlotWidth())
		})
		for _, r := range regimes {
			rs.Insert(r)
		}
		answer := func(th config.Timer) (int64, int64) {
			if !th.Timed() {
				// An untimed core is never replayed: every access misses.
				return 0, int64(len(s))
			}
			h, m, ok := rs.Lookup(th)
			if !ok {
				t.Fatalf("θ=%v: batch left its own column uncovered", th)
			}
			return h, m
		}
		for c, th := range thetas {
			gotH, gotM := answer(th)
			wantH, wantM := IsolationHits(s, geom, lat, th)
			if gotH != wantH || gotM != wantM {
				t.Fatalf("col %d θ=%v: batch (%d,%d) != scalar (%d,%d)", c, th, gotH, gotM, wantH, wantM)
			}
		}
		// Answer the same batch again through the set: every column is
		// served from the recorded regimes, so nothing is replayed.
		n := len(rs.regimes)
		for c, th := range thetas {
			if !th.Timed() {
				continue
			}
			gotH, gotM := rs.IsolationHits(plan, lat, th)
			wantH, wantM := answer(th)
			if gotH != wantH || gotM != wantM {
				t.Fatalf("col %d θ=%v: re-answer (%d,%d) != first answer (%d,%d)", c, th, gotH, gotM, wantH, wantM)
			}
		}
		if len(rs.regimes) != n {
			t.Fatalf("re-answering the batch recorded %d new regimes", len(rs.regimes)-n)
		}
	})
}
