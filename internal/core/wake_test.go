package core

import (
	"reflect"
	"testing"

	"cohort/internal/config"
	"cohort/internal/stats"
	"cohort/internal/trace"
)

// TestInPlaceWakeYieldsToSameCycleEvent pins the tie rule of in-place core
// wakes. An event queued, before the wake would be, for exactly the cycle a
// core's next access becomes eligible fires before that access issues: a
// queued wake would carry a higher seq. The first access misses and
// completes at cycle 54; the second issues at 0+1+1000 = 1001 and hits,
// leaving the third eligible at 1001+1+100 = 1102 with nothing else queued,
// which is when a wake runs in place.
func TestInPlaceWakeYieldsToSameCycleEvent(t *testing.T) {
	const eligible = 1102
	tr := mkTrace(trace.Stream{
		{Addr: lineA, Kind: trace.Read},
		{Addr: lineA, Kind: trace.Read, Gap: 1000},
		{Addr: lineA, Kind: trace.Read, Gap: 100},
	})
	run := func(probe bool) (r *stats.Run, issued int, hits int64) {
		sys, err := New(cfgN(1, config.TimerMSI), tr)
		if err != nil {
			t.Fatal(err)
		}
		issued, hits = -1, -1
		if probe {
			sys.at(eligible, func(int64) { issued, hits = sys.cores[0].pos, sys.run.Cores[0].Hits })
		}
		if r, err = sys.Run(); err != nil {
			t.Fatal(err)
		}
		return r, issued, hits
	}
	probed, issued, hits := run(true)
	if issued != 2 || hits != 1 {
		t.Fatalf("event at cycle %d saw %d accesses issued and %d hits, want the state before the third access: 2 issued, 1 hit",
			eligible, issued, hits)
	}
	plain, _, _ := run(false)
	if plain.Cores[0].Hits != 2 {
		t.Fatalf("hits = %d, want 2", plain.Cores[0].Hits)
	}
	if !reflect.DeepEqual(probed, plain) {
		t.Fatalf("an observing event changed the run:\n with    %+v\n without %+v", probed, plain)
	}
}
