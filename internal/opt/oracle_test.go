package opt

import (
	"reflect"
	"testing"

	"cohort/internal/analysis"
	"cohort/internal/config"
)

// planWorkSince returns the plans compiled, replays run and accesses
// replayed since a PlanWork snapshot.
func planWorkSince(compiles, replays, accesses int64) (int64, int64, int64) {
	c, r, a := analysis.PlanWork()
	return c - compiles, r - replays, a - accesses
}

// TestOracleWorkPinned pins the oracle's work on one fixed cold run (fft at
// scale 0.05, four timed cores, DefaultGA(1), one worker): the replays it
// runs and the accesses they walk. A change that makes the oracle replay
// more fails here even when every answer stays exact. A warm rerun is
// served by the shared regime sets: it compiles no plan and replays
// nothing.
func TestOracleWorkPinned(t *testing.T) {
	p := problemFor("fft", 0.05, []bool{true, true, true, true})
	gc := DefaultGA(1)
	gc.Workers = 1
	ResetCurveCache()
	c0, r0, a0 := analysis.PlanWork()
	cold, err := Optimize(p, gc)
	if err != nil {
		t.Fatal(err)
	}
	compiles, replays, accesses := planWorkSince(c0, r0, a0)
	if compiles != 4 || replays != 586 || accesses != 351_600 {
		t.Errorf("cold run: %d plans compiled, %d replays over %d accesses; want 4, 586 and 351,600",
			compiles, replays, accesses)
	}
	c0, r0, a0 = analysis.PlanWork()
	warm, err := Optimize(p, gc)
	if err != nil {
		t.Fatal(err)
	}
	if compiles, replays, _ := planWorkSince(c0, r0, a0); compiles != 0 || replays != 0 {
		t.Errorf("warm run: %d plans compiled and %d replays, want none", compiles, replays)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm-cache Result differs from cold-cache Result")
	}
}

// TestEvaluateCompilesPerTimedCore pins Problem.Evaluate's cost: private
// plans and sets, so one compile and one replay per timed core and none for
// an MSI core, whatever the shared cache holds.
func TestEvaluateCompilesPerTimedCore(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, false, true, true})
	for range 2 {
		c0, r0, a0 := analysis.PlanWork()
		p.Evaluate(p.Timers([]config.Timer{30, 300, 3000}))
		compiles, replays, accesses := planWorkSince(c0, r0, a0)
		if want := int64(len(p.Streams[0]) + len(p.Streams[2]) + len(p.Streams[3])); compiles != 3 || replays != 3 || accesses != want {
			t.Fatalf("Evaluate: %d plans compiled, %d replays over %d accesses; want 3, 3 and %d",
				compiles, replays, accesses, want)
		}
	}
}
