package opt

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cohort/internal/analysis"
	"cohort/internal/config"
	"cohort/internal/obs"
)

// The deterministic-parallelism contract: Optimize and HillClimb return a
// byte-identical Result for every Workers value. The tests compare the full
// Result structs (timers, evaluations, histories, engine counters) between
// the forced-serial path (Workers=1) and an oversubscribed pool (Workers=8),
// table-driven over seeds. CI runs this package under -race, so scheduling
// interleavings are exercised, not just the final values.

var equivalenceSeeds = []uint64{1, 42, 7777}

func TestOptimizeSerialParallelEquivalence(t *testing.T) {
	for _, cfg := range []struct {
		name  string
		timed []bool
	}{
		{"all-timed", []bool{true, true, true, true}},
		{"half-timed", []bool{true, true, false, false}},
	} {
		p := problemFor("fft", 0.01, cfg.timed)
		for _, seed := range equivalenceSeeds {
			gc := DefaultGA(seed)
			gc.Pop, gc.Generations = 10, 6

			gc.Workers = 1
			serial, err := Optimize(p, gc)
			if err != nil {
				t.Fatalf("%s seed %d serial: %v", cfg.name, seed, err)
			}
			gc.Workers = 8
			par, err := Optimize(p, gc)
			if err != nil {
				t.Fatalf("%s seed %d parallel: %v", cfg.name, seed, err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("%s seed %d: -j 1 and -j 8 GA results differ\nserial: %+v\nparallel: %+v",
					cfg.name, seed, serial, par)
			}
		}
	}
}

func TestHillClimbSerialParallelEquivalence(t *testing.T) {
	p := problemFor("water", 0.01, []bool{true, true, true, false})
	for _, seed := range equivalenceSeeds {
		hc := DefaultHC(seed)
		hc.Restarts, hc.MaxSteps = 3, 20

		hc.Workers = 1
		serial, err := HillClimb(p, hc)
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		hc.Workers = 8
		par, err := HillClimb(p, hc)
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("seed %d: -j 1 and -j 8 hill-climb results differ\nserial: %+v\nparallel: %+v",
				seed, serial, par)
		}
	}
}

// The exact-oracle contract: every evaluation a run computes through the
// regime sets equals a memo-free evaluation through the scalar
// analysis.IsolationHits, and θ_is equals the scalar sweep — for both
// engines, every seed, every worker count and a cold or warm shared curve
// cache. The fail-closed tests prove a seeded oracle fault (widened regime
// ends) makes exactly this audit trip and never leaks into the cache.

// scalarEvaluate is the memo-free reference: Eq. 1 through
// analysis.WCLCoHoRT, the split through analysis.IsolationHits, and the
// objective and violation summed in core order like the evaluator.
func scalarEvaluate(p *Problem, timers []config.Timer) Evaluation {
	ev := Evaluation{Timers: timers, PerCore: make([]analysis.CoreBound, len(timers))}
	msiW := p.msiWeight()
	for i, th := range timers {
		b := analysis.CoreBound{Core: i, Theta: th, WCL: analysis.WCLCoHoRT(p.Lat, timers, i)}
		lambda := int64(len(p.Streams[i]))
		if th.Timed() {
			b.MHit, b.MMiss = analysis.IsolationHits(p.Streams[i], p.L1, p.Lat, th)
			b.WCMLBound = analysis.WCML(b.MHit, b.MMiss, p.Lat.Hit, b.WCL)
		} else {
			b.MMiss = lambda
			b.WCMLBound = analysis.WCMLAllMiss(lambda, b.WCL)
		}
		ev.PerCore[i] = b
		if lambda > 0 {
			term := float64(b.WCMLBound) / float64(lambda)
			if p.Timed[i] {
				ev.Objective += term
			} else {
				ev.Objective += msiW * term
			}
		}
		if th.Timed() && p.Gamma != nil && p.Gamma[i] > 0 && b.WCMLBound > p.Gamma[i] {
			ev.Violation += float64(b.WCMLBound-p.Gamma[i]) / float64(p.Gamma[i])
		}
	}
	return ev
}

// auditRun compares everything one run computed — θ_is, every evaluation in
// the genome cache, and the reported optimum — against the scalar reference,
// and returns the first divergence ("" when none).
func auditRun(p *Problem, res *Result, e *evaluator) string {
	g := 0
	for i, timed := range p.Timed {
		if !timed {
			continue
		}
		if want, _ := analysis.SaturationTimer(p.Streams[i], p.L1, p.Lat); res.ThetaIS[g] != want {
			return fmt.Sprintf("core %d: θ_is %v, scalar sweep %v", i, res.ThetaIS[g], want)
		}
		g++
	}
	keys := make([]string, 0, len(e.evalCache))
	for k := range e.evalCache {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		got := e.evalCache[k]
		if want := scalarEvaluate(p, got.Timers); !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("timers %v: evaluation %+v, scalar %+v", got.Timers, got, want)
		}
	}
	if want := scalarEvaluate(p, res.Timers); !reflect.DeepEqual(res.Eval, want) {
		return fmt.Sprintf("reported optimum %v does not re-derive through the scalar analysis", res.Timers)
	}
	return ""
}

var oracleWorkers = []int{1, 4, 8}

// regimeSkew is the seeded fault's width: wide enough that some query of
// every seed's run lands past a widened regime end.
const regimeSkew = 1

// TestOptimizeBatchedOracleEquivalence audits GA runs whose queries are
// resolved in batches of regime replays: every cached evaluation, θ_is and
// the optimum equal the scalar reference, and the Result is identical for
// every worker count, each run from a cold curve cache.
func TestOptimizeBatchedOracleEquivalence(t *testing.T) {
	for _, cfg := range []struct {
		name  string
		timed []bool
	}{
		{"all-timed", []bool{true, true, true, true}},
		{"half-timed", []bool{true, true, false, false}},
	} {
		p := problemFor("fft", 0.01, cfg.timed)
		for _, seed := range equivalenceSeeds {
			var ref *Result
			for _, w := range oracleWorkers {
				ResetCurveCache()
				gc := DefaultGA(seed)
				gc.Pop, gc.Generations, gc.Workers = 10, 6, w
				res, e, err := optimize(p, gc)
				if err != nil {
					t.Fatalf("%s seed %d workers %d: %v", cfg.name, seed, w, err)
				}
				if d := auditRun(p, res, e); d != "" {
					t.Errorf("%s seed %d workers %d: %s", cfg.name, seed, w, d)
				}
				if ref == nil {
					ref = res
				} else if !reflect.DeepEqual(ref, res) {
					t.Errorf("%s seed %d: workers %d Result differs from workers 1", cfg.name, seed, w)
				}
			}
		}
	}
}

// TestHillClimbBatchedOracleEquivalence is the same audit for the
// hill-climbing engine.
func TestHillClimbBatchedOracleEquivalence(t *testing.T) {
	p := problemFor("water", 0.01, []bool{true, true, true, false})
	for _, seed := range equivalenceSeeds {
		for _, w := range oracleWorkers {
			ResetCurveCache()
			hc := DefaultHC(seed)
			hc.Restarts, hc.MaxSteps, hc.Workers = 3, 20, w
			res, e, err := hillClimb(p, hc)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
			if d := auditRun(p, res, e); d != "" {
				t.Errorf("seed %d workers %d: %s", seed, w, d)
			}
		}
	}
}

// TestBatchedOracleWorkersCross pins resolve, the batch step itself, across
// worker counts: on fresh private sets it runs the same number of replays
// for every worker count, leaves every timed (core, θ) pair of the batch
// covered with the scalar split, skips untimed cores, and a second resolve
// of the same batch replays nothing.
func TestBatchedOracleWorkersCross(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, false, true})
	msi := config.TimerMSI
	vectors := [][]config.Timer{
		{1, 5, msi, 5},
		{5, 5, msi, 9},
		{1, 5, msi, 5},
		{300, 2, msi, 4000},
		{301, 3, msi, 4001},
	}
	want := -1
	for _, w := range oracleWorkers {
		sets := make([]*analysis.RegimeSet, len(p.Streams))
		for i, timed := range p.Timed {
			if timed {
				sets[i] = &analysis.RegimeSet{}
			}
		}
		pl := newPlans(p)
		n := resolve(p, sets, pl, vectors, w)
		if want < 0 {
			want = n
		}
		if n == 0 || n != want {
			t.Fatalf("workers %d: %d replays, want %d (> 0)", w, n, want)
		}
		for _, v := range vectors {
			for i, th := range v {
				if !th.Timed() {
					continue
				}
				h, m, ok := sets[i].Lookup(th)
				wantH, wantM := analysis.IsolationHits(p.Streams[i], p.L1, p.Lat, th)
				if !ok || h != wantH || m != wantM {
					t.Fatalf("workers %d core %d θ=%v: set (%d,%d,%v), scalar (%d,%d)", w, i, th, h, m, ok, wantH, wantM)
				}
			}
		}
		if again := resolve(p, sets, pl, vectors, w); again != 0 {
			t.Fatalf("workers %d: re-resolving a covered batch ran %d replays", w, again)
		}
	}
}

// TestBatchedOracleFailsClosed proves the audit cannot pass vacuously: with
// every recorded regime end widened, each seed's run must report a
// divergence from the scalar reference. If this test fails, the equivalence
// tests above are comparing something that cannot detect an oracle fault.
func TestBatchedOracleFailsClosed(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, true, true})
	analysis.TestHooks.RegimeEndSkew = regimeSkew
	defer func() { analysis.TestHooks.RegimeEndSkew = 0 }()
	for _, seed := range equivalenceSeeds {
		for _, w := range oracleWorkers {
			gc := DefaultGA(seed)
			gc.Pop, gc.Generations, gc.Workers = 10, 6, w
			res, e, err := optimize(p, gc)
			if err != nil {
				t.Fatal(err)
			}
			if auditRun(p, res, e) == "" {
				t.Errorf("seed %d workers %d: seeded regime-end skew not detected", seed, w)
			}
		}
	}
}

// TestOptimizeCurveOracleEquivalence pins the shared curve cache for the GA:
// a cold run replays fewer regimes than it has (evaluation, core) queries, a
// repeated run over the same streams is served entirely from the regimes
// the first run recorded, and both return the same audited Result.
func TestOptimizeCurveOracleEquivalence(t *testing.T) {
	for _, cfg := range []struct {
		name  string
		timed []bool
	}{
		{"all-timed", []bool{true, true, true, true}},
		{"half-timed", []bool{true, true, false, false}},
	} {
		p := problemFor("fft", 0.01, cfg.timed)
		for _, seed := range equivalenceSeeds {
			gc := DefaultGA(seed)
			gc.Pop, gc.Generations = 10, 6
			ResetCurveCache()
			cold, ce, err := optimize(p, gc)
			if err != nil {
				t.Fatalf("%s seed %d cold: %v", cfg.name, seed, err)
			}
			warm, we, err := optimize(p, gc)
			if err != nil {
				t.Fatalf("%s seed %d warm: %v", cfg.name, seed, err)
			}
			if ce.replays == 0 || ce.replays >= ce.computed*len(p.Streams) {
				t.Errorf("%s seed %d cold: %d replays for %d evaluations of %d cores",
					cfg.name, seed, ce.replays, ce.computed, len(p.Streams))
			}
			if we.replays != 0 {
				t.Errorf("%s seed %d: warm run replayed %d regimes; the shared cache should answer every query",
					cfg.name, seed, we.replays)
			}
			if !reflect.DeepEqual(cold, warm) {
				t.Errorf("%s seed %d: warm-cache Result differs from cold-cache Result", cfg.name, seed)
			}
			if d := auditRun(p, warm, we); d != "" {
				t.Errorf("%s seed %d warm: %s", cfg.name, seed, d)
			}
		}
	}
}

// TestHillClimbCurveOracleEquivalence is the shared-cache contract for the
// hill-climbing engine: a warm re-run replays nothing and returns the cold
// run's audited Result.
func TestHillClimbCurveOracleEquivalence(t *testing.T) {
	p := problemFor("water", 0.01, []bool{true, true, true, false})
	for _, seed := range equivalenceSeeds {
		hc := DefaultHC(seed)
		hc.Restarts, hc.MaxSteps = 3, 20
		ResetCurveCache()
		cold, _, err := hillClimb(p, hc)
		if err != nil {
			t.Fatalf("seed %d cold: %v", seed, err)
		}
		warm, we, err := hillClimb(p, hc)
		if err != nil {
			t.Fatalf("seed %d warm: %v", seed, err)
		}
		if we.replays != 0 {
			t.Errorf("seed %d: warm run replayed %d regimes", seed, we.replays)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Errorf("seed %d: warm-cache hill-climb Result differs from cold-cache Result", seed)
		}
		if d := auditRun(p, warm, we); d != "" {
			t.Errorf("seed %d warm: %s", seed, d)
		}
	}
}

// TestCurveOracleWorkersCross is the acceptance grid: curve cache
// {cold, warm} × Workers {1, 4, 8}, every cell against the serial cold
// reference.
func TestCurveOracleWorkersCross(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, true, true})
	gc := DefaultGA(42)
	gc.Pop, gc.Generations = 10, 6
	ResetCurveCache()
	ref, err := Optimize(p, gc)
	if err != nil {
		t.Fatal(err)
	}
	for _, cold := range []bool{true, false} {
		for _, w := range oracleWorkers {
			if cold {
				ResetCurveCache()
			}
			gc.Workers = w
			got, e, err := optimize(p, gc)
			if err != nil {
				t.Fatalf("cold %v workers %d: %v", cold, w, err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("cold %v workers %d: Result differs from the serial cold reference", cold, w)
			}
			if !cold && e.replays != 0 {
				t.Errorf("warm workers %d: %d replays", w, e.replays)
			}
		}
	}
}

// TestCurveOracleFailsClosed proves a seeded fault stays confined: under a
// widened regime end every hill-climbing run is caught by the audit, no
// skewed set enters the shared curve cache, and a clean run right after is
// exact again.
func TestCurveOracleFailsClosed(t *testing.T) {
	p := problemFor("water", 0.01, []bool{true, true, true, false})
	ResetCurveCache()
	analysis.TestHooks.RegimeEndSkew = regimeSkew
	defer func() { analysis.TestHooks.RegimeEndSkew = 0 }()
	for _, seed := range equivalenceSeeds {
		hc := DefaultHC(seed)
		hc.Restarts, hc.MaxSteps = 3, 20
		res, e, err := hillClimb(p, hc)
		if err != nil {
			t.Fatal(err)
		}
		if auditRun(p, res, e) == "" {
			t.Errorf("seed %d: seeded regime-end skew not detected", seed)
		}
	}
	analysis.TestHooks.RegimeEndSkew = 0
	if n := curveMemo.Len(); n != 0 {
		t.Fatalf("skewed runs left %d regime sets in the shared cache", n)
	}
	hc := DefaultHC(42)
	hc.Restarts, hc.MaxSteps = 3, 20
	res, e, err := hillClimb(p, hc)
	if err != nil {
		t.Fatal(err)
	}
	if d := auditRun(p, res, e); d != "" {
		t.Errorf("clean run after skewed runs: %s", d)
	}
}

// TestOptimizeMemoCountersDeterministic pins the engine counters themselves:
// the coordinator probes the cache serially, so hits/misses must not depend
// on the worker count or the run.
func TestOptimizeMemoCountersDeterministic(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, true, true})
	gc := DefaultGA(42)
	gc.Pop, gc.Generations = 10, 6
	var engines []struct {
		jobs, hits, misses int64
		evals              int
	}
	for _, w := range []int{1, 4, 8} {
		gc.Workers = w
		res, err := Optimize(p, gc)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, struct {
			jobs, hits, misses int64
			evals              int
		}{res.Engine.Jobs, res.Engine.CacheHits, res.Engine.CacheMisses, res.Evaluations})
	}
	for i := 1; i < len(engines); i++ {
		if engines[i] != engines[0] {
			t.Fatalf("engine counters vary with worker count: %+v vs %+v", engines[0], engines[i])
		}
	}
	if engines[0].jobs == 0 || engines[0].evals == 0 {
		t.Fatalf("counters not populated: %+v", engines[0])
	}
	// Pop×(Generations+1) genomes were requested; dedup must make the
	// computed count strictly smaller once elites repeat across generations.
	if engines[0].evals > 10*7 {
		t.Fatalf("computed %d evaluations for at most %d genomes", engines[0].evals, 10*7)
	}
	if engines[0].hits == 0 {
		t.Fatalf("memo-cache never hit across %d requests — elites alone must repeat", engines[0].jobs)
	}
}

// TestOptimizeMetricsSnapshotEquivalence pins the observability side of the
// contract: with a Registry and Recorder attached, the metrics snapshot and
// the Chrome trace export must be byte-identical for every worker count.
func TestOptimizeMetricsSnapshotEquivalence(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, false, false})
	for _, seed := range equivalenceSeeds {
		observe := func(workers int) (string, string) {
			gc := DefaultGA(seed)
			gc.Pop, gc.Generations = 10, 6
			gc.Workers = workers
			gc.Metrics = obs.NewRegistry()
			gc.Recorder = obs.NewRecorder()
			if _, err := Optimize(p, gc); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			var sb strings.Builder
			if err := gc.Recorder.WriteChrome(&sb); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			return string(gc.Metrics.Snapshot().JSON()), sb.String()
		}
		serialM, serialT := observe(1)
		parM, parT := observe(8)
		if serialM != parM {
			t.Errorf("seed %d: metrics snapshots differ across worker counts\n--- j1 ---\n%s\n--- j8 ---\n%s",
				seed, serialM, parM)
		}
		if serialT != parT {
			t.Errorf("seed %d: GA chrome traces differ across worker counts", seed)
		}
		if !strings.Contains(serialT, "generation 0") {
			t.Errorf("seed %d: recorder captured no generation spans:\n%s", seed, serialT)
		}
	}
}

// TestEvaluateHoistWCL cross-checks the hoisted O(n) WCL computation against
// analysis.WCLCoHoRT per core on a spread of timer vectors, including
// MSI-only cores (the satellite fix: the invariant part is computed once per
// vector, not once per core).
func TestEvaluateHoistWCL(t *testing.T) {
	p := problemFor("lu", 0.01, []bool{true, false, true, false})
	c := p.compile()
	for _, genes := range [][]config.Timer{
		{1, 1},
		{50, 500},
		{1139, 1},
	} {
		tv := p.Timers(genes)
		ev := c.evaluate(tv)
		for i := range tv {
			want := analysis.WCLCoHoRT(p.Lat, tv, i)
			if ev.PerCore[i].WCL != want {
				t.Fatalf("genes %v core %d: hoisted WCL %d, analysis %d", genes, i, ev.PerCore[i].WCL, want)
			}
		}
	}
}
