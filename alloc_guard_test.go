package cohort_test

import (
	"testing"

	"cohort"
)

// TestAllocationCeiling pins the simulation kernel's allocation count: one
// full system construction plus run must stay under a ceiling set just above
// the measured count (~184 allocs for this workload, dominated by
// one-time setup — trace copies, cache arrays, event-queue backing). The
// pre-overhaul kernel took ~38,000 allocs on the same workload, so the guard
// trips long before boxing or per-event closures creep back into the hot
// path.
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
	const ceiling = 250
	allocs := testing.AllocsPerRun(10, func() {
		sys, err := cohort.NewSystem(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("simulation allocated %.0f times per run, ceiling %d — a hot path regressed to per-event allocation", allocs, ceiling)
	}
	t.Logf("allocs per construct+run: %.0f (ceiling %d)", allocs, ceiling)
}
