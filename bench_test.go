// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VIII). Each benchmark runs the corresponding experiment end to end —
// trace generation, GA timer optimization where the paper uses it, the
// cycle-accurate simulations of CoHoRT and its baselines, and the analytical
// bounds — and reports the headline figure-of-merit as a custom metric so
// `go test -bench . -benchmem` reproduces the paper's numbers in one run.
//
// Workloads are scaled (see DESIGN.md §1); the shapes, not the absolute
// cycle counts, are the reproduction target. EXPERIMENTS.md records the
// paper-vs-measured comparison.
package cohort_test

import (
	"testing"

	"cohort"
	"cohort/internal/experiments"
)

// benchOptions sizes the experiments for benchmarking: large enough to be
// representative, small enough to iterate.
func benchOptions() cohort.ExperimentOptions {
	o := experiments.DefaultOptions()
	o.Scale = 0.05
	o.MaxAccessesPerCore = 2000
	o.Benchmarks = []string{"fft", "lu", "radix", "water"}
	o.GA.Pop, o.GA.Generations = 16, 12
	return o
}

func benchmarkFig5(b *testing.B, scenario string) {
	o := benchOptions()
	var last *cohort.Fig5Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := cohort.Fig5(o, scenario)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.PCCRatio, "pcc-ratio")
	b.ReportMetric(last.PendulumRatio, "pendulum-ratio")
}

// BenchmarkFig5a reproduces Fig. 5a: per-core WCML with all four cores
// critical. Paper: CoHoRT ≈ 2.15× tighter than PCC, ≈ 16× than PENDULUM.
func BenchmarkFig5a(b *testing.B) { benchmarkFig5(b, "all-cr") }

// BenchmarkFig5b reproduces Fig. 5b (2 Cr + 2 nCr). Paper: PENDULUM ≈ 6×
// worse than CoHoRT.
func BenchmarkFig5b(b *testing.B) { benchmarkFig5(b, "2cr-2ncr") }

// BenchmarkFig5c reproduces Fig. 5c (1 Cr + 3 nCr). Paper: CoHoRT ≈ 18×
// tighter; the lone critical core's WCL reduces to pure arbitration latency.
func BenchmarkFig5c(b *testing.B) { benchmarkFig5(b, "1cr-3ncr") }

func benchmarkFig6(b *testing.B, scenario string) {
	o := benchOptions()
	var last *cohort.Fig6Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := cohort.Fig6(o, scenario)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.AvgCoHoRT, "cohort-slowdown")
	b.ReportMetric(last.AvgPCC, "pcc-slowdown")
	b.ReportMetric(last.AvgPendulum, "pendulum-slowdown")
}

// BenchmarkFig6a reproduces Fig. 6a: execution time normalized to MSI+FCFS,
// all cores critical. Paper: 1.03× (CoHoRT), 1.13× (PCC), 1.50× (PENDULUM).
func BenchmarkFig6a(b *testing.B) { benchmarkFig6(b, "all-cr") }

// BenchmarkFig6b reproduces Fig. 6b (2 Cr + 2 nCr).
func BenchmarkFig6b(b *testing.B) { benchmarkFig6(b, "2cr-2ncr") }

// BenchmarkFig6c reproduces Fig. 6c (1 Cr + 3 nCr).
func BenchmarkFig6c(b *testing.B) { benchmarkFig6(b, "1cr-3ncr") }

// BenchmarkFig7 reproduces the mode-switch experiment (Fig. 7 + Table II):
// c0's requirement tightens over three stages; without switching the system
// becomes unschedulable, with switching it degrades lower-criticality cores
// to MSI and stays schedulable.
func BenchmarkFig7(b *testing.B) {
	o := benchOptions()
	var last *cohort.Fig7Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := cohort.Fig7(o, "fft", 1.5, 1.8)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	violations := 0
	for _, st := range last.Stages {
		if !st.MeetsWithSwitch() {
			violations++
		}
	}
	b.ReportMetric(float64(last.SimFinalMode), "final-mode")
	b.ReportMetric(float64(violations), "violations-with-switch")
}

// BenchmarkTable2 regenerates Table II: the optimization engine runs once
// per mode over the tasks with criticality ≥ that mode (the offline flow of
// Fig. 2a).
func BenchmarkTable2(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cohort.Table2(o, "fft"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationArbiter quantifies the arbitration design choice
// (RROF vs RR vs FCFS vs TDM) under identical timers.
func BenchmarkAblationArbiter(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"fft"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationArbiter(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTransfer quantifies direct vs via-memory handovers (the
// structural difference between CoHoRT and PCC).
func BenchmarkAblationTransfer(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"radix"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationTransfer(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTimer sweeps a uniform timer to chart the Fig. 1
// trade-off curve.
func BenchmarkAblationTimer(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"fft"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationTimer(o, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// cycles per wall-clock second on the paper platform.
func BenchmarkSimulatorThroughput(b *testing.B) {
	p, err := cohort.ProfileByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	tr := p.Scaled(0.1).Generate(4, 64, 42)
	cfg, err := cohort.NewCoHoRT(4, 1, []cohort.Timer{300, 100, 50, cohort.TimerMSI})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		sys, err := cohort.NewSystem(cfg, tr)
		if err != nil {
			b.Fatal(err)
		}
		run, err := sys.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += run.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkSimulatorThroughputObserved is the same run with a metrics
// registry and span recorder attached; the delta against
// BenchmarkSimulatorThroughput is the full observability overhead. The
// unobserved benchmark's allocs/op must not move when internal/obs changes —
// that is the zero-overhead-when-detached guard.
func BenchmarkSimulatorThroughputObserved(b *testing.B) {
	p, err := cohort.ProfileByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	tr := p.Scaled(0.1).Generate(4, 64, 42)
	cfg, err := cohort.NewCoHoRT(4, 1, []cohort.Timer{300, 100, 50, cohort.TimerMSI})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		sys, err := cohort.NewSystem(cfg, tr)
		if err != nil {
			b.Fatal(err)
		}
		reg, rec := cohort.NewMetricsRegistry(), cohort.NewSpanRecorder()
		if err := sys.SetMetrics(reg); err != nil {
			b.Fatal(err)
		}
		if err := sys.SetRecorder(rec); err != nil {
			b.Fatal(err)
		}
		run, err := sys.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += run.Cycles
		if snap := reg.Snapshot(); len(snap) == 0 {
			b.Fatal("empty snapshot")
		}
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkGAGeneration measures the optimizer's oracle-evaluation cost.
func BenchmarkGAGeneration(b *testing.B) {
	p, err := cohort.ProfileByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	tr := p.Scaled(0.05).Generate(4, 64, 42)
	base := cohort.PaperDefaults(4, 1)
	prob := &cohort.Problem{
		Lat:     base.Lat,
		L1:      base.L1,
		Streams: tr.Streams,
		Timed:   []bool{true, true, true, true},
	}
	gc := cohort.DefaultGA(1)
	gc.Pop, gc.Generations = 16, 4
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cohort.Optimize(prob, gc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStaticAnalysis measures the in-isolation hit analysis throughput
// (accesses per second), the optimizer's inner loop.
func BenchmarkStaticAnalysis(b *testing.B) {
	p, err := cohort.ProfileByName("ocean")
	if err != nil {
		b.Fatal(err)
	}
	p = p.Scaled(0.01)
	tr := p.Generate(1, 64, 42)
	base := cohort.PaperDefaults(4, 1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cohort.GuaranteedHits(tr.Streams[0], base.L1, base.Lat, 300, base.Lat.SlotWidth())
	}
	b.ReportMetric(float64(len(tr.Streams[0]))*float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkNonPerfect reproduces the paper's footnote-1 experiment: the
// Fig. 5/Fig. 6 headline orderings under a non-perfect LLC with a
// fixed-latency DRAM ("same observations").
func BenchmarkNonPerfect(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"fft", "water"}
	var last *experiments.NonPerfectResult
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.NonPerfect(o)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	same := 0.0
	if last.SameObservations() {
		same = 1.0
	}
	b.ReportMetric(same, "same-observations")
	b.ReportMetric(last.AvgBoundRatio, "bound-ratio-vs-pcc")
}

// BenchmarkAblationSnoop quantifies the MESI extension (silent E→M
// upgrades) against the paper's MSI base.
func BenchmarkAblationSnoop(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"lu"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSnoop(o); err != nil {
			b.Fatal(err)
		}
	}
}
