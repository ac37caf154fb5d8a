package core

import (
	"bytes"
	"strings"
	"testing"

	"cohort/internal/config"
	"cohort/internal/obs"
	"cohort/internal/trace"
)

// observedRun builds a contended two-core timed system with a registry and
// recorder attached and runs it to completion.
func observedRun(t *testing.T) (*System, *obs.Registry, *obs.Recorder) {
	t.Helper()
	cfg := cfgN(2, 300, 300)
	// core 0 takes a timer-protected Shared copy of lineA; core 1's store
	// (issued after a 300-cycle gap) must wait out the timer and then
	// invalidate the sharer — covering the timer-window and invalidation
	// paths deterministically.
	tr := mkTrace(
		trace.Stream{{Addr: lineA, Kind: trace.Read}, {Addr: lineB, Kind: trace.Write}},
		trace.Stream{{Addr: lineA, Kind: trace.Write, Gap: 300}, {Addr: lineA, Kind: trace.Write}},
	)
	sys, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rec := obs.NewRecorder()
	if err := sys.SetMetrics(reg); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetRecorder(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys, reg, rec
}

func TestSetMetricsSnapshotMatchesRun(t *testing.T) {
	sys, reg, _ := observedRun(t)
	snap := reg.Snapshot()

	if m, ok := snap.Get("sim_cycles"); !ok || m.Value != sys.run.Cycles || m.Value == 0 {
		t.Fatalf("sim_cycles = %+v (run %d)", m, sys.run.Cycles)
	}
	if m, ok := snap.Get("sim_bus_transactions"); !ok || m.Value != sys.run.Transactions {
		t.Fatalf("sim_bus_transactions = %+v", m)
	}
	for i := 0; i < 2; i++ {
		lbl := obs.L("core", string(rune('0'+i)))
		m, ok := snap.Get("sim_core_accesses", lbl)
		if !ok || m.Value != sys.run.Cores[i].Accesses {
			t.Fatalf("sim_core_accesses{core=%d} = %+v, want %d", i, m, sys.run.Cores[i].Accesses)
		}
		h, ok := snap.Get("sim_core_latency", lbl)
		if !ok || h.Kind != obs.KindHistogram || h.Value != sys.run.Cores[i].Latency.Total() {
			t.Fatalf("sim_core_latency{core=%d} = %+v", i, h)
		}
	}
	// Both cores are timed and contend on lineA: timer windows must have
	// been recorded, and the window counters must agree with each other.
	tw, _ := snap.Get("sim_timer_windows")
	twc, _ := snap.Get("sim_timer_window_cycles")
	if tw.Value == 0 || twc.Value == 0 {
		t.Fatalf("no timer windows recorded: %+v / %+v", tw, twc)
	}
	if m, ok := snap.Get("llc_hits"); !ok || m.Value == 0 {
		t.Fatalf("llc_hits = %+v (perfect LLC counts every fetch as a hit)", m)
	}
	// Fused data phases ride the broadcaster's tenure without a fresh
	// arbiter grant, so grants is positive but bounded by transactions.
	if m, ok := snap.Get("bus_arbiter_grants", obs.L("arbiter", "rrof")); !ok || m.Value == 0 || m.Value > sys.run.Transactions {
		t.Fatalf("bus_arbiter_grants = %+v (transactions %d)", m, sys.run.Transactions)
	}
	if m, ok := snap.Get("sim_line_requests_total"); !ok || m.Value == 0 {
		t.Fatalf("sim_line_requests_total = %+v", m)
	}
}

func TestSetRecorderProducesSpans(t *testing.T) {
	_, _, rec := observedRun(t)
	var names []string
	for _, ev := range rec.Events() {
		names = append(names, ev.Ph+":"+ev.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"X:broadcast", "X:data", "X:miss", "X:timer window", "i:invalidate", "M:process_name", "M:thread_name"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("recorder missing %q in:\n%s", want, joined)
		}
	}
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"traceEvents"`)) {
		t.Fatal("chrome export missing traceEvents")
	}
}

func TestObservabilityDoesNotChangeResults(t *testing.T) {
	build := func() *System {
		cfg := cfgN(2, 300, config.TimerMSI)
		tr := mkTrace(
			trace.Stream{{Addr: lineA, Kind: trace.Write}, {Addr: lineA, Kind: trace.Read}},
			trace.Stream{{Addr: lineA, Kind: trace.Write}, {Addr: lineB, Kind: trace.Read}},
		)
		sys, err := New(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	plain := build()
	bare, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	observed := build()
	if err := observed.SetMetrics(obs.NewRegistry()); err != nil {
		t.Fatal(err)
	}
	if err := observed.SetRecorder(obs.NewRecorder()); err != nil {
		t.Fatal(err)
	}
	withObs, err := observed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if bare.Cycles != withObs.Cycles || bare.BusBusy != withObs.BusBusy || bare.Transactions != withObs.Transactions {
		t.Fatalf("observability changed results: %+v vs %+v", bare, withObs)
	}
	for i := range bare.Cores {
		if bare.Cores[i] != withObs.Cores[i] {
			t.Fatalf("core %d stats diverged: %+v vs %+v", i, bare.Cores[i], withObs.Cores[i])
		}
	}
}

func TestObserveAfterRunRejected(t *testing.T) {
	sys, _, _ := observedRun(t)
	if err := sys.SetMetrics(obs.NewRegistry()); err == nil {
		t.Fatal("SetMetrics after Run accepted")
	}
	if err := sys.SetRecorder(obs.NewRecorder()); err == nil {
		t.Fatal("SetRecorder after Run accepted")
	}
}
