package core

import (
	"testing"

	"cohort/internal/config"
	"cohort/internal/trace"
)

// governedConfig builds a 2-level platform where core 1's timer interferes
// heavily with core 0 at mode 1 and degrades to MSI at mode 2.
func governedConfig() *config.System {
	cfg := config.PaperDefaults(2, 2)
	cfg.Cores[0].Criticality = 2
	cfg.Cores[1].Criticality = 1
	cfg.Cores[0].TimerLUT = []config.Timer{50, 50}
	cfg.Cores[1].TimerLUT = []config.Timer{2000, config.TimerMSI}
	return cfg
}

// contendedTrace makes both cores fight over a small shared set so core 0
// keeps paying core 1's timer at mode 1.
func contendedTrace() *trace.Trace {
	p := trace.Profile{
		Name: "contended", AccessesPerCore: 400, SharedLines: 4, PrivateLines: 8,
		PShared: 0.9, ZipfS: 0.3, PWrite: 0.6, PRepeat: 0.2, RepeatWindow: 2, MeanGap: 1,
	}
	return p.Generate(2, 64, 3)
}

func TestGovernorEscalates(t *testing.T) {
	cfg := governedConfig()
	tr := contendedTrace()
	sys, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetGovernor(Governor{Core: 0, Window: 5000, Budget: 2000}); err != nil {
		t.Fatal(err)
	}
	run, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sys.Mode() != 2 {
		t.Fatalf("governor did not escalate: mode %d", sys.Mode())
	}
	if run.ModeSwitches != 1 {
		t.Fatalf("mode switches = %d, want 1", run.ModeSwitches)
	}
	hist := sys.GovernorHistory()
	if len(hist) == 0 {
		t.Fatal("no governor decisions recorded")
	}
	escalations := 0
	for i, d := range hist {
		if d.At != int64(i+1)*5000 {
			t.Fatalf("decision %d at %d, want %d", i, d.At, (i+1)*5000)
		}
		if d.Escalated {
			escalations++
			if d.WindowLatency <= 2000 {
				t.Fatalf("escalated with window latency %d ≤ budget", d.WindowLatency)
			}
		}
	}
	if escalations != 1 {
		t.Fatalf("escalations = %d, want 1", escalations)
	}
	if err := sys.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestGovernorStaysPutUnderBudget(t *testing.T) {
	cfg := governedConfig()
	tr := contendedTrace()
	sys, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Budget far above anything a 5000-cycle window can accumulate.
	if err := sys.SetGovernor(Governor{Core: 0, Window: 5000, Budget: 1 << 40}); err != nil {
		t.Fatal(err)
	}
	run, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sys.Mode() != 1 || run.ModeSwitches != 0 {
		t.Fatalf("governor escalated spuriously: mode %d, switches %d", sys.Mode(), run.ModeSwitches)
	}
	for _, d := range sys.GovernorHistory() {
		if d.Escalated {
			t.Fatal("spurious escalation recorded")
		}
	}
}

func TestGovernorMaxModeCap(t *testing.T) {
	cfg := config.PaperDefaults(2, 3)
	cfg.Cores[0].Criticality = 3
	cfg.Cores[1].Criticality = 1
	cfg.Cores[0].TimerLUT = []config.Timer{50, 50, 50}
	cfg.Cores[1].TimerLUT = []config.Timer{2000, 2000, config.TimerMSI}
	sys, err := New(cfg, contendedTrace())
	if err != nil {
		t.Fatal(err)
	}
	// Tiny budget forces escalation every window, but the cap holds it at 2.
	if err := sys.SetGovernor(Governor{Core: 0, Window: 2000, Budget: 1, MaxMode: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.Mode() != 2 {
		t.Fatalf("mode %d, want cap 2", sys.Mode())
	}
}

func TestGovernorValidation(t *testing.T) {
	cfg := governedConfig()
	sys, err := New(cfg, contendedTrace())
	if err != nil {
		t.Fatal(err)
	}
	cases := []Governor{
		{Core: -1, Window: 10, Budget: 10},
		{Core: 5, Window: 10, Budget: 10},
		{Core: 0, Window: 0, Budget: 10},
		{Core: 0, Window: 10, Budget: 0},
		{Core: 0, Window: 10, Budget: 10, MaxMode: 9},
	}
	for i, g := range cases {
		if err := sys.SetGovernor(g); err == nil {
			t.Errorf("case %d: invalid governor accepted", i)
		}
	}
	if err := sys.SetGovernor(Governor{Core: 0, Window: 10, Budget: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetGovernor(Governor{Core: 0, Window: 10, Budget: 10}); err == nil {
		t.Fatal("SetGovernor after Run accepted")
	}
}
