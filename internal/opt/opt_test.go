package opt

import (
	"reflect"
	"testing"

	"cohort/internal/analysis"
	"cohort/internal/config"
	"cohort/internal/obs"
	"cohort/internal/parallel"
	"cohort/internal/trace"
)

func paperLat() config.Latencies { return config.Latencies{Hit: 1, Req: 4, Data: 50, DRAM: 100} }

func geomL1() config.CacheGeometry {
	return config.CacheGeometry{SizeBytes: 16 * 1024, LineBytes: 64, Ways: 1}
}

func problemFor(name string, scale float64, timed []bool) *Problem {
	p, err := trace.ProfileByName(name)
	if err != nil {
		panic(err)
	}
	tr := p.Scaled(scale).Generate(len(timed), 64, 21)
	return &Problem{
		Lat:     paperLat(),
		L1:      geomL1(),
		Streams: tr.Streams,
		Timed:   timed,
	}
}

func TestProblemValidate(t *testing.T) {
	p := problemFor("fft", 0.005, []bool{true, true, true, true})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *p
	bad.Timed = []bool{true}
	if err := bad.Validate(); err == nil {
		t.Fatal("mismatched Timed accepted")
	}
	bad2 := *p
	bad2.Gamma = []int64{1}
	if err := bad2.Validate(); err == nil {
		t.Fatal("mismatched Gamma accepted")
	}
	bad3 := *p
	bad3.Streams = nil
	if err := bad3.Validate(); err == nil {
		t.Fatal("empty streams accepted")
	}
}

func TestTimersExpansion(t *testing.T) {
	p := problemFor("fft", 0.005, []bool{true, false, true, false})
	got := p.Timers([]config.Timer{7, 9})
	want := []config.Timer{7, config.TimerMSI, 9, config.TimerMSI}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Timers = %v, want %v", got, want)
		}
	}
}

func TestEvaluateMatchesAnalysis(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, false, false})
	timers := p.Timers([]config.Timer{100, 50})
	ev := p.Evaluate(timers)
	for i := range p.Streams {
		wantWCL := analysis.WCLCoHoRT(p.Lat, timers, i)
		if ev.PerCore[i].WCL != wantWCL {
			t.Fatalf("core %d WCL %d != %d", i, ev.PerCore[i].WCL, wantWCL)
		}
	}
	if ev.Objective <= 0 {
		t.Fatal("objective not positive")
	}
	if !ev.Feasible() {
		t.Fatal("unconstrained evaluation must be feasible")
	}
}

func TestEvaluateConstraintViolation(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, true, true})
	p.Gamma = []int64{1, 0, 0, 0} // impossible requirement on core 0
	ev := p.Evaluate(p.Timers([]config.Timer{100, 100, 100, 100}))
	if ev.Feasible() {
		t.Fatal("impossible Γ reported feasible")
	}
	if fitness(&ev) < 1e18 {
		t.Fatal("infeasible fitness must dominate any feasible objective")
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	p := problemFor("water", 0.01, []bool{true, true, false, false})
	gc := DefaultGA(5)
	gc.Pop, gc.Generations = 12, 8
	a, err := Optimize(p, gc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(p, gc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Timers {
		if a.Timers[i] != b.Timers[i] {
			t.Fatalf("nondeterministic GA: %v vs %v", a.Timers, b.Timers)
		}
	}
	if a.Evaluations == 0 || len(a.BestHistory) != gc.Generations {
		t.Fatalf("bookkeeping: evals=%d history=%d", a.Evaluations, len(a.BestHistory))
	}
}

func TestOptimizeImprovesOverExtremes(t *testing.T) {
	// The GA's best must be at least as good as both seeded extremes
	// (θ=1 everywhere and θ=θ_is everywhere), which are in the initial
	// population by construction.
	p := problemFor("fft", 0.02, []bool{true, true, true, true})
	gc := DefaultGA(7)
	gc.Pop, gc.Generations = 16, 12
	res, err := Optimize(p, gc)
	if err != nil {
		t.Fatal(err)
	}
	ones := p.Evaluate(p.Timers([]config.Timer{1, 1, 1, 1}))
	sat := p.Evaluate(p.Timers(res.ThetaIS))
	if res.Eval.Objective > ones.Objective || res.Eval.Objective > sat.Objective {
		t.Fatalf("GA best %.1f worse than extremes (%.1f, %.1f)",
			res.Eval.Objective, ones.Objective, sat.Objective)
	}
	// Monotone best-so-far history.
	for i := 1; i < len(res.BestHistory); i++ {
		if res.BestHistory[i] > res.BestHistory[i-1] {
			t.Fatal("best-so-far history regressed")
		}
	}
	// Genes respect the θ_is bounds.
	g := 0
	for i, timed := range p.Timed {
		if !timed {
			continue
		}
		if res.Timers[i] < 1 || res.Timers[i] > res.ThetaIS[g] {
			t.Fatalf("gene %d = %v outside [1, %v]", g, res.Timers[i], res.ThetaIS[g])
		}
		g++
	}
}

func TestOptimizeRespectsFeasibleConstraint(t *testing.T) {
	p := problemFor("fft", 0.02, []bool{true, true, true, true})
	// A requirement satisfiable with θ=1 everywhere: use that evaluation
	// plus slack as Γ for core 0.
	ones := p.Evaluate(p.Timers([]config.Timer{1, 1, 1, 1}))
	p.Gamma = []int64{ones.PerCore[0].WCMLBound + 1000, 0, 0, 0}
	gc := DefaultGA(11)
	gc.Pop, gc.Generations = 16, 12
	res, err := Optimize(p, gc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Eval.Feasible() {
		t.Fatalf("feasible point exists (θ=1…) but GA returned violation %.3f", res.Eval.Violation)
	}
	if res.Eval.PerCore[0].WCMLBound > p.Gamma[0] {
		t.Fatalf("returned point violates Γ: %d > %d", res.Eval.PerCore[0].WCMLBound, p.Gamma[0])
	}
}

func TestOptimizeNoTimedCores(t *testing.T) {
	p := problemFor("fft", 0.005, []bool{false, false, false, false})
	res, err := Optimize(p, DefaultGA(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range res.Timers {
		if th != config.TimerMSI {
			t.Fatalf("no-timed result: %v", res.Timers)
		}
	}
	if res.Evaluations != 1 {
		t.Fatalf("evaluations = %d, want 1", res.Evaluations)
	}
}

func TestOptimizeConfigValidation(t *testing.T) {
	p := problemFor("fft", 0.005, []bool{true, true, true, true})
	if _, err := Optimize(p, GAConfig{Pop: 1, Generations: 5}); err == nil {
		t.Fatal("degenerate population accepted")
	}
	if _, err := Optimize(p, GAConfig{Pop: 4, Generations: 0}); err == nil {
		t.Fatal("zero generations accepted")
	}
	gc := DefaultGA(1)
	gc.Elite = gc.Pop
	if _, err := Optimize(p, gc); err == nil {
		t.Fatal("elite ≥ pop accepted")
	}
}

// TestGAConfigAppendKey pins what a GA result key covers: each of the seven
// result-determining fields moves it, the observation-only fields leave it,
// every GAConfig field is one or the other, and the bytes are those of the
// field order existing manifests were keyed with.
func TestGAConfigAppendKey(t *testing.T) {
	key := func(gc GAConfig) string {
		k := parallel.NewKey("test")
		gc.AppendKey(k)
		return k.Sum()
	}
	base := DefaultGA(7)
	want := parallel.NewKey("test")
	want.Int(32).Int(40).Int(2).Int(3).Float64(0.9).Float64(0.25).Uint64(7)
	if key(base) != want.Sum() {
		t.Fatal("GA key bytes differ from Pop, Generations, Elite, TournamentK, CrossoverProb, MutationProb, Seed")
	}
	type edit struct {
		field string
		apply func(*GAConfig)
	}
	moves := []edit{
		{"Pop", func(g *GAConfig) { g.Pop++ }},
		{"Generations", func(g *GAConfig) { g.Generations++ }},
		{"Elite", func(g *GAConfig) { g.Elite++ }},
		{"TournamentK", func(g *GAConfig) { g.TournamentK++ }},
		{"CrossoverProb", func(g *GAConfig) { g.CrossoverProb = 0.5 }},
		{"MutationProb", func(g *GAConfig) { g.MutationProb = 0.5 }},
		{"Seed", func(g *GAConfig) { g.Seed++ }},
	}
	keeps := []edit{
		{"Workers", func(g *GAConfig) { g.Workers = 8 }},
		{"Metrics", func(g *GAConfig) { g.Metrics = obs.NewRegistry() }},
		{"Recorder", func(g *GAConfig) { g.Recorder = obs.NewRecorder() }},
	}
	if n := reflect.TypeOf(GAConfig{}).NumField(); n != len(moves)+len(keeps) {
		t.Fatalf("GAConfig has %d fields, the test classifies %d", n, len(moves)+len(keeps))
	}
	check := func(edits []edit, wantMoved bool) {
		for _, e := range edits {
			if _, ok := reflect.TypeOf(GAConfig{}).FieldByName(e.field); !ok {
				t.Fatalf("GAConfig has no field %s", e.field)
			}
			gc := base
			e.apply(&gc)
			if moved := key(gc) != key(base); moved != wantMoved {
				t.Errorf("changing %s: key moved = %v, want %v", e.field, moved, wantMoved)
			}
		}
	}
	check(moves, true)
	check(keeps, false)
}

func BenchmarkEvaluate(b *testing.B) {
	p := problemFor("fft", 0.05, []bool{true, true, true, true})
	timers := p.Timers([]config.Timer{100, 50, 20, 10})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Evaluate(timers)
	}
}

func TestHillClimbDeterministic(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, false, false})
	hc := DefaultHC(3)
	hc.Restarts, hc.MaxSteps = 3, 20
	a, err := HillClimb(p, hc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := HillClimb(p, hc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Timers {
		if a.Timers[i] != b.Timers[i] {
			t.Fatalf("nondeterministic HC: %v vs %v", a.Timers, b.Timers)
		}
	}
	if a.Evaluations == 0 {
		t.Fatal("no oracle calls recorded")
	}
}

func TestHillClimbComparableToGA(t *testing.T) {
	p := problemFor("water", 0.02, []bool{true, true, true, true})
	gaRes, err := Optimize(p, DefaultGA(1))
	if err != nil {
		t.Fatal(err)
	}
	hcRes, err := HillClimb(p, DefaultHC(1))
	if err != nil {
		t.Fatal(err)
	}
	// Both engines drive the same oracle; neither should be wildly worse.
	if hcRes.Eval.Objective > 1.5*gaRes.Eval.Objective {
		t.Fatalf("HC objective %.1f far above GA %.1f", hcRes.Eval.Objective, gaRes.Eval.Objective)
	}
	if gaRes.Eval.Objective > 1.5*hcRes.Eval.Objective {
		t.Fatalf("GA objective %.1f far above HC %.1f", gaRes.Eval.Objective, hcRes.Eval.Objective)
	}
	// Both respect the gene bounds.
	for _, r := range []*Result{gaRes, hcRes} {
		g := 0
		for i, timed := range p.Timed {
			if !timed {
				continue
			}
			if r.Timers[i] < 1 || r.Timers[i] > r.ThetaIS[g] {
				t.Fatalf("timer %v outside [1, %v]", r.Timers[i], r.ThetaIS[g])
			}
			g++
		}
	}
}

func TestHillClimbRespectsConstraint(t *testing.T) {
	p := problemFor("fft", 0.02, []bool{true, true, true, true})
	ones := p.Evaluate(p.Timers([]config.Timer{1, 1, 1, 1}))
	p.Gamma = []int64{ones.PerCore[0].WCMLBound + 1000, 0, 0, 0}
	res, err := HillClimb(p, DefaultHC(5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Eval.Feasible() {
		t.Fatalf("feasible point exists but HC returned violation %.3f", res.Eval.Violation)
	}
}

func TestHillClimbValidation(t *testing.T) {
	p := problemFor("fft", 0.005, []bool{true, true, true, true})
	if _, err := HillClimb(p, HCConfig{Restarts: 0, MaxSteps: 5}); err == nil {
		t.Fatal("zero restarts accepted")
	}
	if _, err := HillClimb(p, HCConfig{Restarts: 1, MaxSteps: 0}); err == nil {
		t.Fatal("zero steps accepted")
	}
	none := problemFor("fft", 0.005, []bool{false, false, false, false})
	res, err := HillClimb(none, DefaultHC(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Timers[0] != config.TimerMSI {
		t.Fatal("no-timed HC result wrong")
	}
}
