package core

import (
	"reflect"
	"testing"

	"cohort/internal/config"
	"cohort/internal/stats"
	"cohort/internal/trace"
)

// TestReleaseRoundScheduledEvents pins how many events a few fixed runs
// queue. A bus release queues no arbitration event: the finish event of the
// tenure runs the release round. When every release queued a kick, the
// same runs queued 12,225 and 12,156 events, one more per tenure with no
// kick already pending at its release cycle (4,412 and 3,772). The runs
// cover both bus phases, fused data grants, LLC evictions (4 KiB L1s under
// a 16 KiB LLC), run-time mode switches and TDM slot wakes. Every
// pending-kick entry, release or queued, must be cleared by the end.
func TestReleaseRoundScheduledEvents(t *testing.T) {
	radix, err := trace.ProfileByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	tr := radix.Scaled(0.1).Generate(4, 64, 42)
	cases := []struct {
		name     string
		cfg      func() *config.System
		switches []scheduledSwitch
		want     uint64
	}{
		{
			name: "cohort-llc-switches",
			cfg: func() *config.System {
				cfg, err := config.CoHoRT(4, 4, []config.Timer{300, 20, 20, 20})
				if err != nil {
					t.Fatal(err)
				}
				cfg.PerfectLLC = false
				cfg.L1.SizeBytes, cfg.LLC.SizeBytes = 4<<10, 16<<10
				return cfg
			},
			switches: []scheduledSwitch{{20_000, 2}, {40_000, 3}, {60_000, 4}},
			want:     7_813,
		},
		{
			name: "pendulum",
			cfg:  func() *config.System { return config.PENDULUM([]bool{true, true, false, false}) },
			want: 8_384,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := New(tc.cfg(), tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, sw := range tc.switches {
				if err := sys.ScheduleModeSwitch(sw.at, sw.mode); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if got := sys.eng.Scheduled(); got != tc.want {
				t.Errorf("scheduled %d events, want %d", got, tc.want)
			}
			if n := len(sys.kickPending); n != 0 {
				t.Errorf("%d pending kicks left after the run, first %v", n, sys.kickPending[:min(n, 4)])
			}
		})
	}
}

// TestReleaseRoundTies pins the two same-cycle rules the in-place release
// round relies on. One core misses on a free line at cycle 0: its broadcast
// holds the bus over [0, 4) and its fused data phase over [4, 54).
//   - An event queued before the grant for the release cycle 4 fires before
//     the finish handler, and sees the bus still held, so a kick it runs
//     does nothing.
//   - A kick requested for cycle 4 during the tenure finds the release
//     cycle pending and queues no event.
//
// Neither observer changes the run.
func TestReleaseRoundTies(t *testing.T) {
	const release = 4
	tr := mkTrace(trace.Stream{{Addr: lineA, Kind: trace.Read}})
	run := func(probe bool) *stats.Run {
		sys, err := New(cfgN(1, config.TimerMSI), tr)
		if err != nil {
			t.Fatal(err)
		}
		if probe {
			sys.at(release, func(now int64) {
				m := sys.cores[0].miss
				if !sys.busHeld || m == nil || m.broadcasted {
					t.Errorf("cycle %d: event queued before the grant ran after the finish handler (bus held %v)", now, sys.busHeld)
				}
				sys.kickArbiter(now)
			})
			sys.at(2, func(now int64) {
				if !sys.busHeld {
					t.Fatalf("cycle %d: bus not held during the broadcast tenure", now)
				}
				before := sys.eng.Scheduled()
				sys.scheduleKick(release)
				if got := sys.eng.Scheduled(); got != before {
					t.Errorf("kick for release cycle %d during the tenure queued %d events, want 0", release, got-before)
				}
			})
		}
		r, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if n := len(sys.kickPending); n != 0 {
			t.Errorf("%d pending kicks left after the run, first %v", n, sys.kickPending[:min(n, 4)])
		}
		return r
	}
	probed, plain := run(true), run(false)
	if plain.Cycles != 54 || plain.Cores[0].Misses != 1 {
		t.Fatalf("run took %d cycles with %d misses, want 54 and 1", plain.Cycles, plain.Cores[0].Misses)
	}
	if !reflect.DeepEqual(probed, plain) {
		t.Fatalf("observing events changed the run:\n with    %+v\n without %+v", probed, plain)
	}
}
