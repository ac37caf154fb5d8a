package analysis

import (
	"reflect"
	"sync"
	"testing"

	"cohort/internal/config"
	"cohort/internal/trace"
)

// testGeoms spans the geometries the replay must reproduce exactly: the
// paper's direct-mapped L1, a set-associative variant (exercising LRU victim
// selection and way-order tie-breaks), and a tiny cache that forces heavy
// eviction traffic.
var testGeoms = []config.CacheGeometry{
	{SizeBytes: 16 * 1024, LineBytes: 64, Ways: 1},
	{SizeBytes: 8 * 1024, LineBytes: 64, Ways: 4},
	{SizeBytes: 512, LineBytes: 64, Ways: 2},
}

func testStream(name string, seed uint64, t testing.TB) trace.Stream {
	p, err := trace.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p.Scaled(0.01).Generate(2, 64, seed).Streams[0]
}

// TestHitCurveDifferential is regime constancy at unit level: across
// geometries × streams × per-miss costs, walk the whole hit curve
// θ → (hits, misses) regime by regime (each replay runs at the previous
// regime's end and, the ends being tight, must start there) and check the
// split against the scalar GuaranteedHits at every regime's first and last
// member and at a spread of interior points.
func TestHitCurveDifferential(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50, DRAM: 100}
	for _, geom := range testGeoms {
		for _, name := range []string{"fft", "water"} {
			for _, seed := range []uint64{1, 42, 7777} {
				s := testStream(name, seed, t)
				plan := NewPlan(s, geom)
				for _, wcl := range []int64{lat.SlotWidth(), 1, 977} {
					check := func(r Regime, th config.Timer) {
						t.Helper()
						wantH, wantM := GuaranteedHits(s, geom, lat, th, wcl)
						if r.Hits != wantH || r.Misses != wantM {
							t.Fatalf("geom %+v %s/%d wcl %d: regime [%v, %v) (%d,%d) != scalar (%d,%d) at θ=%v",
								geom, name, seed, wcl, r.Start, r.End, r.Hits, r.Misses, wantH, wantM, th)
						}
					}
					regimes := 0
					for th := config.Timer(1); th <= config.TimerMax; regimes++ {
						r := plan.Replay(lat, th, wcl)
						if r.Start != th || r.End <= th {
							t.Fatalf("θ=%v: malformed regime [%v, %v)", th, r.Start, r.End)
						}
						check(r, th)
						check(r, r.End-1)
						if span := r.End - th; span > 2 {
							check(r, th+span/2)
						}
						th = r.End
					}
					if regimes < 2 {
						t.Fatalf("geom %+v %s/%d wcl %d: only %d regime(s); the walk proves nothing", geom, name, seed, wcl, regimes)
					}
				}
			}
		}
	}
}

// TestHitCurveSaturationTimer proves θ_is answered through a RegimeSet is
// bit-identical to the scalar sweep — the probe sequence is shared — and
// that the sweep leaves its regimes behind for later queries.
func TestHitCurveSaturationTimer(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50, DRAM: 100}
	for _, geom := range testGeoms {
		for _, name := range []string{"fft", "water"} {
			for _, seed := range []uint64{1, 42, 7777} {
				s := testStream(name, seed, t)
				var rs RegimeSet
				gotTh, gotHits := rs.SaturationTimer(NewPlan(s, geom), lat)
				wantTh, wantHits := SaturationTimer(s, geom, lat)
				if gotTh != wantTh || gotHits != wantHits {
					t.Fatalf("geom %+v %s/%d: set sweep (θ=%v, hits=%d) != scalar (θ=%v, hits=%d)",
						geom, name, seed, gotTh, gotHits, wantTh, wantHits)
				}
				if _, _, ok := rs.Lookup(gotTh); !ok {
					t.Fatalf("geom %+v %s/%d: sweep did not record θ_is=%v", geom, name, seed, gotTh)
				}
			}
		}
	}
}

// TestRegimeSetInsert pins the interval bookkeeping on exact regimes:
// gaps miss, an equal regime is dropped, a disjoint one is inserted in
// order, and a regime may reach the domain end. Under a seeded end skew the
// widened regimes overlap their neighbours; inserts must keep the set
// disjoint and every replayed θ covered.
func TestRegimeSetInsert(t *testing.T) {
	var rs RegimeSet
	rs.Insert(Regime{Start: 10, End: 20, Hits: 1, Misses: 9})
	rs.Insert(Regime{Start: 40, End: 50, Hits: 3, Misses: 7})
	rs.Insert(Regime{Start: 1, End: 5, Hits: 0, Misses: 10})
	rs.Insert(Regime{Start: 10, End: 20, Hits: 1, Misses: 9}) // equal: dropped
	rs.Insert(Regime{Start: 20, End: 40, Hits: 2, Misses: 8}) // fills the gap between two regimes
	rs.Insert(Regime{Start: 60, End: config.TimerMax + 1, Hits: 5, Misses: 5})
	want := []Regime{
		{Start: 1, End: 5, Hits: 0, Misses: 10},
		{Start: 10, End: 20, Hits: 1, Misses: 9},
		{Start: 20, End: 40, Hits: 2, Misses: 8},
		{Start: 40, End: 50, Hits: 3, Misses: 7},
		{Start: 60, End: config.TimerMax + 1, Hits: 5, Misses: 5},
	}
	if !reflect.DeepEqual(rs.regimes, want) {
		t.Fatalf("regimes %+v, want %+v", rs.regimes, want)
	}
	for _, c := range []struct {
		theta config.Timer
		hits  int64
		ok    bool
	}{
		{1, 0, true}, {4, 0, true}, {5, 0, false}, {9, 0, false}, {10, 1, true}, {19, 1, true},
		{20, 2, true}, {39, 2, true}, {45, 3, true}, {50, 0, false}, {59, 0, false}, {config.TimerMax, 5, true},
	} {
		if h, _, ok := rs.Lookup(c.theta); ok != c.ok || h != c.hits {
			t.Errorf("Lookup(%v) = (%d, %v), want (%d, %v)", c.theta, h, ok, c.hits, c.ok)
		}
	}

	// Skewed: true regimes [1, 10), [10, 20), [20, 30), each replayed at the
	// θ listed, in an order that makes widened ends overlap both ways.
	TestHooks.RegimeEndSkew = 5
	defer func() { TestHooks.RegimeEndSkew = 0 }()
	var skewed RegimeSet
	for _, c := range []struct {
		r     Regime
		theta config.Timer
	}{
		{Regime{Start: 20, End: 30, Hits: 3}, 21},
		{Regime{Start: 1, End: 10, Hits: 1}, 1},
		{Regime{Start: 10, End: 20, Hits: 2}, 18},
		{Regime{Start: 10, End: 20, Hits: 2}, 12},
	} {
		skewed.Insert(c.r)
		if _, _, ok := skewed.Lookup(c.theta); !ok {
			t.Fatalf("skewed insert of %+v left its replayed θ=%v uncovered: %+v", c.r, c.theta, skewed.regimes)
		}
	}
	for i := 1; i < len(skewed.regimes); i++ {
		if prev, r := skewed.regimes[i-1], skewed.regimes[i]; r.Start < prev.End || r.Start >= r.End {
			t.Fatalf("skewed regimes overlap or are empty: %+v", skewed.regimes)
		}
	}
}

// TestRegimeSetConcurrent drives one set from several goroutines, as suite
// cells sharing stream content do; every answer must equal the scalar one.
// Run under -race in CI.
func TestRegimeSetConcurrent(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
	geom := testGeoms[2]
	s := testStream("fft", 42, t)
	var rs RegimeSet
	plan := NewPlan(s, geom) // compiled by whichever goroutine replays first
	var wg sync.WaitGroup
	errs := make([]string, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for th := config.Timer(1 + g); th < 3000; th += 97 {
				gotH, gotM := rs.IsolationHits(plan, lat, th)
				if wantH, wantM := IsolationHits(s, geom, lat, th); gotH != wantH || gotM != wantM {
					errs[g] = "set diverged from scalar"
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Fatalf("goroutine %d: %s", g, e)
		}
	}
}

// TestHitCurveBreakpointSkewHook proves the seeded fault works as the
// fail-closed probe: with every recorded regime end (the curve's next
// breakpoint) widened, a set answers a query just past a true boundary with
// the previous regime's split.
func TestHitCurveBreakpointSkewHook(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
	geom := testGeoms[2]
	s := testStream("fft", 42, t)
	TestHooks.RegimeEndSkew = 1
	defer func() { TestHooks.RegimeEndSkew = 0 }()
	plan := NewPlan(s, geom)
	for th := config.Timer(1); th < config.TimerMax; {
		var rs RegimeSet
		r := plan.Replay(lat, th, lat.SlotWidth())
		if r.End > config.TimerMax {
			break
		}
		rs.Insert(r)
		gotH, gotM, ok := rs.Lookup(r.End)
		wantH, wantM := IsolationHits(s, geom, lat, r.End)
		if ok && (gotH != wantH || gotM != wantM) {
			return // the fault is observable
		}
		th = r.End
	}
	t.Fatal("regime-end skew produced no observable divergence")
}

// TestReplayPanics pins the input guards: the timed domain, a positive WCL
// (same message as the scalar kernel) and a valid geometry (checked by
// NewPlan).
func TestReplayPanics(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
	s := testStream("fft", 1, t)
	for _, c := range []struct {
		name  string
		geom  config.CacheGeometry
		theta config.Timer
		wcl   int64
	}{
		{"msi", testGeoms[0], config.TimerMSI, 10},
		{"nocache", testGeoms[0], config.TimerNoCache, 10},
		{"beyond max", testGeoms[0], config.TimerMax + 1, 10},
		{"zero wcl", testGeoms[0], 5, 0},
		{"zero geometry", config.CacheGeometry{}, 5, 10},
		{"odd line", config.CacheGeometry{SizeBytes: 1024, LineBytes: 48, Ways: 1}, 5, 10},
		{"odd sets", config.CacheGeometry{SizeBytes: 192 * 64, LineBytes: 64, Ways: 1}, 5, 10},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Replay did not panic", c.name)
				}
			}()
			NewPlan(s, c.geom).Replay(lat, c.theta, c.wcl)
		}()
	}
}

// TestHitCurveEmptyStream pins the degenerate case: an empty stream is one
// all-zero regime spanning the whole timed domain, so a single replay
// leaves a set that answers every timed θ.
func TestHitCurveEmptyStream(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
	r := NewPlan(trace.Stream{}, testGeoms[0]).Replay(lat, 1, lat.SlotWidth())
	if r != (Regime{Start: 1, End: config.TimerMax + 1}) {
		t.Fatalf("empty stream: %+v", r)
	}
	var rs RegimeSet
	rs.Insert(r)
	for _, th := range []config.Timer{1, 2, 1000, config.TimerMax} {
		if h, m, ok := rs.Lookup(th); !ok || h != 0 || m != 0 {
			t.Fatalf("empty stream θ=%v: set (%d,%d,%v), want (0,0,true)", th, h, m, ok)
		}
	}
}

// TestHitCurveLookupAllocFree pins the query path's cost: every optimizer
// evaluation looks up one regime per timed core, so a lookup — hit or miss —
// must not allocate.
func TestHitCurveLookupAllocFree(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
	s := testStream("fft", 42, t)
	var rs RegimeSet
	rs.SaturationTimer(NewPlan(s, testGeoms[0]), lat)
	th := config.Timer(1)
	allocs := testing.AllocsPerRun(200, func() {
		rs.Lookup(th)
		th = th*7%config.TimerMax + 1
	})
	if allocs != 0 {
		t.Fatalf("RegimeSet.Lookup allocates %.1f times per call", allocs)
	}
}

// TestPlanMatchesScalar is the compiled plan against the scalar kernel on
// eight-line caches of 1, 2, 4 and 8 ways (the last fully associative), so
// capacity evictions are common and every LRU victim the compile pass picks
// is exercised: each replay's split must equal GuaranteedHits at its θ and
// at both ends of its regime.
func TestPlanMatchesScalar(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
	for _, geom := range []config.CacheGeometry{
		{SizeBytes: 512, LineBytes: 64, Ways: 1},
		{SizeBytes: 512, LineBytes: 64, Ways: 2},
		{SizeBytes: 512, LineBytes: 64, Ways: 4},
		{SizeBytes: 512, LineBytes: 64, Ways: 8},
	} {
		for _, name := range []string{"fft", "radix"} {
			s := testStream(name, 42, t)
			plan := NewPlan(s, geom)
			for _, th := range []config.Timer{1, 20, 300, 4000, config.TimerMax} {
				for _, wcl := range []int64{1, lat.SlotWidth(), 977} {
					r := plan.Replay(lat, th, wcl)
					for _, at := range []config.Timer{r.Start, th, r.End - 1} {
						if h, m := GuaranteedHits(s, geom, lat, at, wcl); r.Hits != h || r.Misses != m {
							t.Fatalf("%d-way %s θ=%v wcl %d: plan regime [%v, %v) (%d,%d) != scalar (%d,%d) at θ′=%v",
								geom.Ways, name, th, wcl, r.Start, r.End, r.Hits, r.Misses, h, m, at)
						}
					}
				}
			}
			// Count the refetches of lines that were evicted: the table
			// proves nothing about victim choice without them.
			seen := make(map[uint64]bool)
			evicted := 0
			for i, st := range plan.steps {
				line := s[i].Addr / uint64(geom.LineBytes)
				if st.op&stepResident == 0 && seen[line] {
					evicted++
				}
				seen[line] = true
			}
			if evicted == 0 {
				t.Fatalf("%d-way %s: no capacity evictions", geom.Ways, name)
			}
		}
	}
}

// sinkHits keeps the benchmarked calls' results live.
var sinkHits int64

// BenchmarkReplay reports ns per access of one replay through the compiled
// plan and of one scalar GuaranteedHits walk, on core 0 of each paper-length
// Fig. 5a profile (scale 1) on the paper's L1. The plan is compiled before
// the timer starts, as the optimizer compiles it once per run.
//
//	go test -run '^$' -bench BenchmarkReplay ./internal/analysis
func BenchmarkReplay(b *testing.B) {
	base := config.PaperDefaults(4, 1)
	lat, geom := base.Lat, base.L1
	thetas := []config.Timer{1, 20, 300, 4000}
	for _, name := range []string{"fft", "lu", "radix", "barnes", "water", "cholesky", "raytrace"} {
		p, err := trace.ProfileByName(name)
		if err != nil {
			b.Fatal(err)
		}
		s := p.Generate(4, 64, 42).Streams[0]
		perAccess := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(s)), "ns/access")
		}
		b.Run(name+"/plan", func(b *testing.B) {
			plan := NewPlan(s, geom)
			plan.Replay(lat, 1, lat.SlotWidth())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkHits = plan.Replay(lat, thetas[i%len(thetas)], lat.SlotWidth()).Hits
			}
			perAccess(b)
		})
		b.Run(name+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkHits, _ = GuaranteedHits(s, geom, lat, thetas[i%len(thetas)], lat.SlotWidth())
			}
			perAccess(b)
		})
	}
}
