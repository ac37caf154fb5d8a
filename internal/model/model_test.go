package model

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cohort/internal/config"
)

// TestSmokeExhaustiveClean is the headline property: every quiescent state
// of the smoke configuration reachable within four windows satisfies every
// protocol invariant, and the reachable space closes there at exactly 39
// states in 19,696 replays. The pinned counts make any drift in the
// exploration (the menu, the BFS order, the canonical encoding, or the
// determinism of a replay) fail this test.
func TestSmokeExhaustiveClean(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration in -short mode")
	}
	res := explore(t, Smoke(4))
	if res.Violation != nil {
		t.Fatalf("violation in unmutated protocol: %s\n  script: %s", res.Violation.Err, Describe(res.Violation.Script))
	}
	if res.States != 39 || res.Runs != 19696 || res.Depth != 4 {
		t.Fatalf("smoke closed at %d states, %d runs, depth %d; want 39, 19696, 4", res.States, res.Runs, res.Depth)
	}
}

// TestSmoke3Closure pins the three-core preset, whose only definition is
// testdata/smoke3.json: core 0 at criticality 2 with LUT {2, MSI}, cores 1
// and 2 at criticality 1 with LUT {0, 5}, one line. check.sh and CI explore
// it one window deeper, to 179 states in 101,466 replays.
func TestSmoke3Closure(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration in -short mode")
	}
	res := explore(t, smoke3(t, 2))
	if res.Violation != nil {
		t.Fatalf("violation in unmutated protocol: %s\n  script: %s", res.Violation.Err, Describe(res.Violation.Script))
	}
	if res.States != 91 || res.Runs != 20071 || res.Depth != 2 {
		t.Fatalf("smoke3 closed at %d states, %d runs, depth %d; want 91, 20071, 2", res.States, res.Runs, res.Depth)
	}
}

// smoke3 loads the three-core preset at the given depth, with the
// exploration settings cohort-model -config uses.
func smoke3(t *testing.T, depth int) Config {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "smoke3.json"))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := config.ParseJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Sys: sys, Lines: []uint64{0x1000}, Depth: depth, Pairs: true, Symmetry: true}
}

// explore runs one exploration and fails the test on a checker error.
func explore(t testing.TB, cfg Config) *Result {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Explore()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mutationCase pins each seeded fault to the invariant that must catch it.
var mutationCases = []struct {
	name string
	kind string
}{
	{"timer-release-skew", "timer-protection"},
	{"stale-sharer-bitmask", "swmr"},
	{"skip-msi-downgrade", "swmr"},
	{"lut-off-by-one", "mode-switch"},
}

// TestMutationsProduceCounterexamples proves the checker fails closed: on
// both presets, each seeded protocol fault yields a violation whose
// minimized counterexample replays — through a checker rebuilt from the
// serialized script alone — to the same violation kind, and replays clean
// without the fault.
func TestMutationsProduceCounterexamples(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration in -short mode")
	}
	presets := []struct {
		name string
		cfg  Config
	}{
		{"smoke", Smoke(2)},
		{"smoke3", smoke3(t, 2)},
	}
	for _, tc := range mutationCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range presets {
				t.Run(p.name, func(t *testing.T) {
					cfg := p.cfg
					cfg.Mutation = tc.name
					checkMutation(t, cfg, tc.kind)
				})
			}
		})
	}
}

// checkMutation explores cfg, whose Mutation is armed, and checks the
// counterexample it must find.
func checkMutation(t *testing.T, cfg Config, kind string) {
	t.Helper()
	res := explore(t, cfg)
	if res.Violation == nil {
		t.Fatalf("mutation %s not caught in %d runs", cfg.Mutation, res.Runs)
	}
	v := res.Violation
	if v.Kind != kind {
		t.Fatalf("mutation %s caught as %q (%s), want kind %q", cfg.Mutation, v.Kind, v.Err, kind)
	}
	if v.Minimized == nil {
		t.Fatal("violation has no minimized counterexample")
	}
	if len(v.Minimized.Windows) > 2 {
		t.Fatalf("minimized counterexample still has %d windows: %s", len(v.Minimized.Windows), Describe(v.Minimized))
	}
	t.Logf("%s: %s → %s", cfg.Mutation, v.Kind, Describe(v.Minimized))

	// The serialized script alone must reproduce in the simulator.
	var buf bytes.Buffer
	if err := WriteScript(&buf, cfg.Sys, cfg.Lines, v.Minimized); err != nil {
		t.Fatal(err)
	}
	sys, lines, script, err := ParseScript(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := New(Config{Sys: sys, Lines: lines, Pairs: true, Mutation: cfg.Mutation})
	if err != nil {
		t.Fatal(err)
	}
	out, err := rc.Replay(script)
	if err != nil {
		t.Fatal(err)
	}
	if out.Violation == nil || out.Violation.Kind != kind {
		t.Fatalf("round-tripped counterexample does not reproduce %s: %+v", kind, out.Violation)
	}

	// And it must render as a Perfetto trace.
	var chrome bytes.Buffer
	if _, err := rc.ReplayChrome(script, &chrome); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), "traceEvents") {
		t.Fatalf("chrome render missing traceEvents: %.100s", chrome.String())
	}

	// The fault, not the script, is the bug: the shipped protocol replays
	// the same script clean, so the mutation was armed only for its replays.
	clean, err := New(Config{Sys: sys, Lines: lines, Pairs: true})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := clean.Replay(script); err != nil || out.Violation != nil {
		t.Fatalf("counterexample without the fault: %+v, %v", out, err)
	}
}

// TestCleanProtocolHasNoShallowViolation guards the mutation tests'
// significance: with no mutation armed, the same exploration finds nothing,
// so the counterexamples above are attributable to the seeded faults.
func TestCleanProtocolHasNoShallowViolation(t *testing.T) {
	c, err := New(Smoke(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("clean protocol violated: %s", res.Violation.Err)
	}
}

// TestSymmetryReduction checks that folding identically-configured cores
// shrinks the state count without changing the verdict, and that it leaves
// heterogeneous cores alone.
func TestSymmetryReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration in -short mode")
	}
	base := config.PaperDefaults(2, 1) // identical MSI cores: full swap symmetry
	mk := func(sym bool) *Result {
		c, err := New(Config{Sys: base, Lines: []uint64{0x1000}, Depth: 1, Pairs: true, Symmetry: sym})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Explore()
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("violation: %s", res.Violation.Err)
		}
		return res
	}
	on, off := mk(true), mk(false)
	if on.States >= off.States {
		t.Fatalf("symmetry did not reduce states: %d (on) vs %d (off)", on.States, off.States)
	}
	// Heterogeneous cores form singleton classes: symmetry must be a no-op.
	hc, err := New(Smoke(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(hc.perms) != 1 {
		t.Fatalf("heterogeneous smoke config got %d symmetry perms, want identity only", len(hc.perms))
	}
}

func TestScriptCodecRoundTrip(t *testing.T) {
	c, err := New(Smoke(2))
	if err != nil {
		t.Fatal(err)
	}
	s := c.EmptyScript()
	s.Windows = []Window{
		{Gap: 3, Cmds: []Command{{Core: 0, Line: 0, Write: true}}},
		{Gap: 0, Cmds: []Command{{Switch: true, Mode: 2}, {Core: 1, Line: 0, Offset: 5}}},
	}
	var buf bytes.Buffer
	if err := WriteScript(&buf, c.Sys(), c.Lines(), s); err != nil {
		t.Fatal(err)
	}
	sys, lines, got, err := ParseScript(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	if sys.N() != 2 || len(lines) != 1 || lines[0] != 0x1000 {
		t.Fatalf("config/lines mangled: n=%d lines=%v", sys.N(), lines)
	}
	if got.Stride != s.Stride || len(got.Windows) != 2 {
		t.Fatalf("script mangled: %+v", got)
	}
	w := got.Windows[1]
	if !w.Cmds[0].Switch || w.Cmds[0].Mode != 2 || w.Cmds[1].Core != 1 || w.Cmds[1].Offset != 5 {
		t.Fatalf("window 1 mangled: %+v", w)
	}
	if got.Windows[0].Cmds[0].Write != true || got.Windows[0].Gap != 3 {
		t.Fatalf("window 0 mangled: %+v", got.Windows[0])
	}
}

// TestScheduleRejectsSameCoreRace checks the scripts computeSchedule must
// refuse: a same-core race would slide off the static schedule, and a gap,
// stride or offset that runs the schedule past core.Run's cycle budget
// would report a livelock the protocol does not have. Each case holds the
// error's wording.
func TestScheduleRejectsSameCoreRace(t *testing.T) {
	access := []Command{{Core: 0}}
	tests := []struct {
		name    string
		script  *Script
		wantErr string
	}{
		{"same-core race", &Script{Stride: 1000, Windows: []Window{
			{Cmds: []Command{{Core: 0}, {Core: 0, Write: true, Offset: 1}}},
		}}, "issues core 0 twice"},
		{"zero stride", &Script{Stride: 0}, "stride 0 outside"},
		{"stride past the budget", &Script{Stride: 20_000_000}, "stride 20000000 outside"},
		{"gap at the stride", &Script{Stride: 1000, Windows: []Window{{Gap: 1000, Cmds: access}}}, "gap 1000 outside [0, 1000)"},
		{"negative gap", &Script{Stride: 1000, Windows: []Window{{Gap: -1, Cmds: access}}}, "gap -1 outside"},
		{"offset overflow", &Script{Stride: 1000, Windows: []Window{
			{Gap: 5, Cmds: []Command{{Core: 0}, {Core: 1, Offset: 1<<63 - 1}}},
		}}, "offset 9223372036854775807 outside [0, 1000)"},
		{"offsets past the stride", &Script{Stride: 1000, Windows: []Window{
			{Cmds: []Command{{Core: 0, Offset: 600}, {Core: 1, Offset: 600}}},
		}}, "offsets exceed the stride"},
		{"schedule past the budget", &Script{Stride: 9_000_000, Windows: []Window{
			{Gap: 3_000_000, Cmds: access},
		}}, "past the run's cycle budget 11000000"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := computeSchedule(tt.script)
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("computeSchedule = %v, want an error containing %q", err, tt.wantErr)
			}
		})
	}
}

// TestNewRejectsBadMenus checks that New refuses a menu entry a script
// could not use soundly, naming the menu, before any replay.
func TestNewRejectsBadMenus(t *testing.T) {
	tests := []struct {
		name    string
		edit    func(*Config)
		wantErr string
	}{
		{"negative gap", func(c *Config) { c.PostGaps = []int64{-1} }, "gap menu entry -1"},
		{"gap at the stride", func(c *Config) { c.PostGaps = []int64{0, 20_000_000} }, "gap menu entry 20000000"},
		{"negative offset", func(c *Config) { c.RaceOffsets = []int64{-4} }, "race-offset menu entry -4"},
		{"offset past TimerMax", func(c *Config) { c.RaceOffsets = []int64{9223372036854775000} }, "race-offset menu entry 9223372036854775000 outside [0, 65535]"},
		{"unknown mutation", func(c *Config) { c.Mutation = "flip-bits" }, `unknown mutation "flip-bits"`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := Smoke(1)
			tt.edit(&cfg)
			if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("New = %v, want an error containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestReplayDetectsQuiescentCleanRun(t *testing.T) {
	c, err := New(Smoke(1))
	if err != nil {
		t.Fatal(err)
	}
	s := c.EmptyScript()
	s.Windows = []Window{{Gap: 1, Cmds: []Command{{Core: 0, Line: 0, Write: true}}}}
	out, err := c.Replay(s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Violation != nil {
		t.Fatalf("clean single-write script flagged: %+v", out.Violation)
	}
	if out.Run == nil || out.Run.Cycles == 0 {
		t.Fatal("replay returned no measurements")
	}
}

// FuzzParseScript feeds arbitrary text down the -replay path: ParseScript,
// New on the script's own platform and lines, then Replay. Each stage may
// reject the input with an error, and Replay may report a violation; none
// may panic. The seeds are the four seeded faults' minimized
// counterexamples on the smoke preset.
func FuzzParseScript(f *testing.F) {
	for _, tc := range mutationCases {
		cfg := Smoke(2)
		cfg.Mutation = tc.name
		res := explore(f, cfg)
		if res.Violation == nil {
			f.Fatalf("mutation %s not caught", tc.name)
		}
		var buf bytes.Buffer
		if err := WriteScript(&buf, cfg.Sys, cfg.Lines, res.Violation.Minimized); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Fuzz(func(t *testing.T, text string) {
		sys, lines, script, err := ParseScript(strings.NewReader(text))
		if err != nil {
			return
		}
		c, err := New(Config{Sys: sys, Lines: lines, Pairs: true})
		if err != nil {
			return
		}
		if out, err := c.Replay(script); err == nil && out == nil {
			t.Fatal("Replay returned neither an outcome nor an error")
		}
	})
}
