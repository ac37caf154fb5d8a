package cohort_test

import (
	"runtime"
	"testing"

	"cohort"
)

// TestAllocationCeiling pins the simulation kernel's allocation count and
// volume: one full system construction plus run must stay under ceilings
// set just above the measured values (~178 allocs and ~114 KB for this
// workload, dominated by one-time setup — trace copies, L1 arrays,
// event-queue backing). The pre-overhaul kernel took ~38,000 allocs on the
// same workload, so the count guard trips long before boxing or per-event
// closures creep back into the hot path. The byte guard trips if the
// perfect LLC — the platform here — allocates its 1.3 MB array again.
func TestAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	p, err := cohort.ProfileByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	tr := p.Scaled(0.1).Generate(4, 64, 42)
	cfg, err := cohort.NewCoHoRT(4, 1, []cohort.Timer{300, 100, 50, cohort.TimerMSI})
	if err != nil {
		t.Fatal(err)
	}
	const (
		ceiling     = 250
		byteCeiling = 256 << 10
		runs        = 10
	)
	constructRun := func() {
		sys, err := cohort.NewSystem(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(runs, constructRun)
	if allocs > ceiling {
		t.Fatalf("simulation allocated %.0f times per run, ceiling %d — a hot path regressed to per-event allocation", allocs, ceiling)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		constructRun()
	}
	runtime.ReadMemStats(&m1)
	bytes := (m1.TotalAlloc - m0.TotalAlloc) / runs
	if bytes > byteCeiling {
		t.Fatalf("simulation allocated %d bytes per run, ceiling %d", bytes, byteCeiling)
	}
	t.Logf("per construct+run: %.0f allocs (ceiling %d), %d bytes (ceiling %d)", allocs, ceiling, bytes, byteCeiling)
}
