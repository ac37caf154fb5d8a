package vcd

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"cohort/internal/config"
	"cohort/internal/core"
	"cohort/internal/trace"
)

func TestWriterBasics(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	a, err := w.AddSignal("clk", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.AddSignal("state", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Change(0, a, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Change(0, b, 5); err != nil {
		t.Fatal(err)
	}
	if err := w.Change(10, a, 0); err != nil {
		t.Fatal(err)
	}
	// Redundant change: suppressed.
	if err := w.Change(11, a, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"$timescale 1ns $end",
		"$var wire 1 ! clk $end",
		`$var wire 4 " state $end`,
		"$enddefinitions $end",
		"#0", "1!", `b101 "`, "#10", "0!",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "#11") {
		t.Fatalf("redundant change emitted:\n%s", out)
	}
}

func TestWriterRejectsBackwardsTime(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	s, _ := w.AddSignal("x", 1)
	if err := w.Change(10, s, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Change(5, s, 0); err == nil {
		t.Fatal("backwards time accepted")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close must surface the sticky error")
	}
}

// TestWriterRejectsTooWideValue: a value one bit wider than its signal is
// an error, not a truncated or malformed dump line, and it sticks until
// Close. The recorder's mode signal holds every mode up to MaxLevels and
// nothing wider.
func TestWriterRejectsTooWideValue(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	s, _ := w.AddSignal("state", 4)
	if err := w.Change(0, s, 15); err != nil {
		t.Fatal(err)
	}
	err := w.Change(1, s, 16)
	if err == nil || !strings.Contains(err.Error(), `wider than the 4-bit signal "state"`) {
		t.Fatalf("Change(16) on a 4-bit signal: err = %v", err)
	}
	if err := w.Change(2, s, 1); err == nil {
		t.Fatal("Change after a rejected value must return the sticky error")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close must surface the sticky error")
	}
	if strings.Contains(buf.String(), "b10000") {
		t.Fatalf("the too-wide value reached the dump:\n%s", buf.String())
	}

	buf.Reset()
	rec, err := NewRecorder(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec.Trace(core.TraceEvent{Cycle: 10, Kind: core.EvModeSwitch, Line: config.MaxLevels})
	if err := rec.Close(); err != nil {
		t.Fatalf("mode %d: %v", config.MaxLevels, err)
	}
	rec, _ = NewRecorder(&buf, 1)
	rec.Trace(core.TraceEvent{Cycle: 10, Kind: core.EvModeSwitch, Line: config.MaxLevels + 1})
	if err := rec.Close(); err == nil {
		t.Fatalf("mode %d fit the recorder's mode signal", config.MaxLevels+1)
	}
}

func TestWriterRejectsLateSignals(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	s, _ := w.AddSignal("x", 1)
	w.Change(0, s, 1)
	if _, err := w.AddSignal("late", 1); err == nil {
		t.Fatal("AddSignal after first change accepted")
	}
	if _, err := w.AddSignal("wide", 65); err == nil {
		t.Fatal("width 65 accepted")
	}
}

func TestWriterManySignalsUniqueIDs(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		s, err := w.AddSignal("s", 1)
		if err != nil {
			t.Fatal(err)
		}
		if seen[s.id] {
			t.Fatalf("duplicate VCD id %q", s.id)
		}
		seen[s.id] = true
	}
}

func TestRecorderEndToEnd(t *testing.T) {
	// Run a small contended simulation with the recorder attached and check
	// the dump structure.
	cfg := config.PaperDefaults(2, 2)
	cfg.Cores[0].TimerLUT = []config.Timer{100, 100}
	cfg.Cores[1].TimerLUT = []config.Timer{100, config.TimerMSI}
	tr := &trace.Trace{Name: "t", Streams: []trace.Stream{
		{{Addr: 0x1000, Kind: trace.Write}, {Addr: 0x1000, Kind: trace.Read, Gap: 30}},
		{{Addr: 0x1000, Kind: trace.Write, Gap: 5}},
	}}
	sys, err := core.New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetTracer(rec); err != nil {
		t.Fatal(err)
	}
	if err := sys.ScheduleModeSwitch(500, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"core0_miss", "core1_miss", "core0_inv", "bus", "mode",
		"$enddefinitions $end",
		"b1 ", // bus broadcast
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	// The mode switch appears (mode signal takes value 2 = b10 at t=500).
	if !strings.Contains(out, "#500") {
		t.Fatalf("mode switch timestamp missing:\n%s", out)
	}
	// Bus returns to idle at the end.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	busID := ""
	for _, l := range lines {
		if strings.Contains(l, " bus $end") {
			fields := strings.Fields(l) // $var wire 2 <id> bus $end
			busID = fields[3]
		}
	}
	if busID == "" {
		t.Fatal("bus declaration missing")
	}
	lastBus := ""
	for _, l := range lines {
		if strings.HasSuffix(l, " "+busID) {
			lastBus = l
		}
	}
	if !strings.HasPrefix(lastBus, "b0 ") {
		t.Fatalf("final bus value = %q, want idle", lastBus)
	}
}

func TestRecorderEventOrderWithDeferred(t *testing.T) {
	// A deferred bus release followed by a later grant must not move time
	// backwards.
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec.Trace(core.TraceEvent{Cycle: 0, Kind: core.EvBroadcast, Core: 0, Until: 4})
	rec.Trace(core.TraceEvent{Cycle: 4, Kind: core.EvData, Core: 0, Until: 54})
	rec.Trace(core.TraceEvent{Cycle: 100, Kind: core.EvBroadcast, Core: 0, Until: 104})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Timestamps must appear in increasing order.
	last := int64(-1)
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "#") {
			ts, err := strconv.ParseInt(l[1:], 10, 64)
			if err != nil {
				t.Fatalf("bad timestamp %q", l)
			}
			if ts < last {
				t.Fatalf("timestamps regressed: %d after %d\n%s", ts, last, out)
			}
			last = ts
		}
	}
}
