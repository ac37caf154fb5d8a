package config

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimerClasses(t *testing.T) {
	cases := []struct {
		th    Timer
		timed bool
		valid bool
	}{
		{TimerMSI, false, true},
		{TimerNoCache, false, true},
		{1, true, true},
		{500, true, true},
		{TimerMax, true, true},
		{-2, false, false},
		{TimerMax + 1, true, false},
	}
	for _, c := range cases {
		if got := c.th.Timed(); got != c.timed {
			t.Errorf("Timer(%d).Timed() = %v, want %v", c.th, got, c.timed)
		}
		if got := c.th.Valid(); got != c.valid {
			t.Errorf("Timer(%d).Valid() = %v, want %v", c.th, got, c.valid)
		}
	}
	if TimerMSI.String() != "MSI(-1)" {
		t.Errorf("TimerMSI.String() = %q", TimerMSI.String())
	}
	if Timer(300).String() != "300" {
		t.Errorf("Timer(300).String() = %q", Timer(300).String())
	}
}

func TestSlotWidth(t *testing.T) {
	l := Latencies{Hit: 1, Req: 4, Data: 50}
	if sw := l.SlotWidth(); sw != 54 {
		t.Fatalf("SlotWidth = %d, want 54", sw)
	}
}

func TestCacheGeometry(t *testing.T) {
	g := CacheGeometry{SizeBytes: 16 * 1024, LineBytes: 64, Ways: 1}
	if g.Sets() != 256 {
		t.Fatalf("Sets = %d, want 256", g.Sets())
	}
	if g.Lines() != 256 {
		t.Fatalf("Lines = %d, want 256", g.Lines())
	}
	llc := CacheGeometry{SizeBytes: 2 * 1024 * 1024, LineBytes: 64, Ways: 8}
	if llc.Sets() != 4096 {
		t.Fatalf("LLC Sets = %d, want 4096", llc.Sets())
	}
}

func TestPaperDefaultsValid(t *testing.T) {
	s := PaperDefaults(4, 5)
	if err := s.Validate(); err != nil {
		t.Fatalf("PaperDefaults invalid: %v", err)
	}
	if s.N() != 4 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Lat.SlotWidth() != 54 {
		t.Fatalf("SW = %d, want 54", s.Lat.SlotWidth())
	}
	for i := 0; i < 4; i++ {
		if !s.Critical(i) {
			t.Fatalf("core %d should be critical at mode 1", i)
		}
		if s.TimerOf(i) != TimerMSI {
			t.Fatalf("default timer = %v, want MSI", s.TimerOf(i))
		}
	}
}

func TestValidationFailures(t *testing.T) {
	mk := func(mutate func(*System)) error {
		s := PaperDefaults(4, 3)
		mutate(s)
		return s.Validate()
	}
	cases := []struct {
		name   string
		mutate func(*System)
		substr string
	}{
		{"no cores", func(s *System) { s.Cores = nil }, "no cores"},
		{"bad mode", func(s *System) { s.Mode = 4 }, "mode"},
		{"bad levels", func(s *System) { s.Levels = 0 }, "levels"},
		{"too many levels", func(s *System) { s.Levels = MaxLevels + 1 }, "levels 16 out of range [1,15]"},
		{"bad criticality", func(s *System) { s.Cores[0].Criticality = 9 }, "criticality"},
		{"short lut", func(s *System) { s.Cores[1].TimerLUT = s.Cores[1].TimerLUT[:1] }, "LUT"},
		{"bad timer", func(s *System) { s.Cores[2].TimerLUT[0] = -7 }, "timer"},
		{"bad requirement", func(s *System) { s.Cores[0].Requirement = []int64{1, -2, 3} }, "requirement"},
		{"bad line", func(s *System) { s.L1.LineBytes = 48 }, "line"},
		{"line mismatch", func(s *System) { s.LLC.LineBytes = 128; s.LLC.SizeBytes = 4 * 1024 * 1024 }, "line"},
		{"not inclusive", func(s *System) { s.LLC.SizeBytes = 32 * 1024 }, "inclusive"},
		{"bad latency", func(s *System) { s.Lat.Data = 0 }, "latencies"},
		{"dram", func(s *System) { s.PerfectLLC = false; s.Lat.DRAM = 0 }, "DRAM"},
		{"sets not pow2", func(s *System) { s.LLC.Ways = 8; s.LLC.SizeBytes = 8 * 64 * 3000 }, "power of two"},
	}
	for _, c := range cases {
		err := mk(c.mutate)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: error %v does not wrap ErrInvalid", c.name, err)
		}
		if !strings.Contains(err.Error(), c.substr) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.substr)
		}
	}
}

// TestMaxLevels pins the level bound: MaxLevels levels validate, and every
// mode up to MaxLevels fits the waveform dump's 4-bit mode signal.
func TestMaxLevels(t *testing.T) {
	if err := PaperDefaults(2, MaxLevels).Validate(); err != nil {
		t.Fatalf("%d levels: %v", MaxLevels, err)
	}
	err := PaperDefaults(2, MaxLevels+1).Validate()
	if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "out of range [1,15]") {
		t.Fatalf("%d levels: err = %v, want ErrInvalid naming the bound", MaxLevels+1, err)
	}
}

// TestMaxCores pins the core-count bound: the sharer and requester bitmasks
// hold MaxCores bits, so one core more must fail validation, not lose its
// sharer bit mid-run.
func TestMaxCores(t *testing.T) {
	if err := PaperDefaults(MaxCores, 1).Validate(); err != nil {
		t.Fatalf("%d cores: %v", MaxCores, err)
	}
	err := PaperDefaults(MaxCores+1, 1).Validate()
	if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "at most 64") {
		t.Fatalf("%d cores: err = %v, want ErrInvalid naming the bound", MaxCores+1, err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := PaperDefaults(4, 2)
	s.Cores[0].Requirement = []int64{100, 200}
	c := s.Clone()
	c.Cores[0].TimerLUT[0] = 42
	c.Cores[0].Requirement[1] = 7
	if s.Cores[0].TimerLUT[0] == 42 {
		t.Fatal("Clone shares TimerLUT")
	}
	if s.Cores[0].Requirement[1] == 7 {
		t.Fatal("Clone shares Requirement")
	}
}

func TestSetTimers(t *testing.T) {
	s := PaperDefaults(4, 3)
	if err := s.SetTimers(2, []Timer{10, 20, 30, TimerMSI}); err != nil {
		t.Fatal(err)
	}
	s.Mode = 2
	got := s.Timers()
	want := []Timer{10, 20, 30, TimerMSI}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Timers() = %v, want %v", got, want)
		}
	}
	if err := s.SetTimers(9, nil); err == nil {
		t.Fatal("SetTimers with bad mode should fail")
	}
	if err := s.SetTimers(1, []Timer{1}); err == nil {
		t.Fatal("SetTimers with bad length should fail")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := PaperDefaults(4, 5)
	s.Arbiter = ArbiterTDM
	s.Transfer = TransferViaMemory
	s.Cores[2].TimerLUT[3] = 300
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"tdm"`) {
		t.Fatalf("arbiter not serialized as name: %s", data)
	}
	if !strings.Contains(string(data), `"via-memory"`) {
		t.Fatalf("transfer not serialized as name: %s", data)
	}
	got, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Arbiter != ArbiterTDM || got.Transfer != TransferViaMemory {
		t.Fatalf("round trip lost enums: %+v", got)
	}
	if got.Cores[2].TimerLUT[3] != 300 {
		t.Fatalf("round trip lost timer: %v", got.Cores[2].TimerLUT)
	}
}

func TestParseJSONRejectsInvalid(t *testing.T) {
	if _, err := ParseJSON([]byte(`{"cores":[]}`)); err == nil {
		t.Fatal("expected validation failure")
	}
	if _, err := ParseJSON([]byte(`{not json`)); err == nil {
		t.Fatal("expected decode failure")
	}
}

func TestUnmarshalUnknownEnums(t *testing.T) {
	var a Arbiter
	if err := a.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("expected unknown arbiter error")
	}
	var tr Transfer
	if err := tr.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("expected unknown transfer error")
	}
	for _, name := range []string{"rrof", "rr", "fcfs", "tdm"} {
		if err := a.UnmarshalText([]byte(name)); err != nil {
			t.Fatalf("arbiter %q: %v", name, err)
		}
		if a.String() != name {
			t.Fatalf("arbiter round trip: %q != %q", a.String(), name)
		}
	}
}

func TestPresets(t *testing.T) {
	pcc := PCC(4)
	if err := pcc.Validate(); err != nil {
		t.Fatalf("PCC invalid: %v", err)
	}
	if pcc.Transfer != TransferViaMemory {
		t.Fatal("PCC must route data via memory")
	}
	pend := PENDULUM([]bool{true, true, false, false})
	if err := pend.Validate(); err != nil {
		t.Fatalf("PENDULUM invalid: %v", err)
	}
	if pend.Arbiter != ArbiterTDM || !pend.PendulumCritOnly {
		t.Fatal("PENDULUM must use TDM with crit-only service")
	}
	if !pend.Critical(0) || pend.Critical(2) {
		t.Fatal("PENDULUM criticality mapping wrong")
	}
	if pend.TimerOf(0) != PENDULUMDefaultTimer || pend.TimerOf(2) != TimerMSI {
		t.Fatalf("PENDULUM timers wrong: %v", pend.Timers())
	}
	msi := MSIFCFS(4)
	if err := msi.Validate(); err != nil {
		t.Fatalf("MSIFCFS invalid: %v", err)
	}
	if msi.Arbiter != ArbiterFCFS {
		t.Fatal("MSIFCFS arbiter wrong")
	}
	ch, err := CoHoRT(4, 1, []Timer{100, 50, TimerMSI, TimerMSI})
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Validate(); err != nil {
		t.Fatalf("CoHoRT invalid: %v", err)
	}
	if ch.TimerOf(0) != 100 || ch.TimerOf(2) != TimerMSI {
		t.Fatalf("CoHoRT timers wrong: %v", ch.Timers())
	}
	if _, err := CoHoRT(4, 1, []Timer{1}); err == nil {
		t.Fatal("CoHoRT with wrong timer count should fail")
	}
}

// Property: any syntactically valid geometry with power-of-two parameters
// validates, and Sets*Ways*LineBytes == SizeBytes.
func TestPropertyGeometry(t *testing.T) {
	f := func(setsLog, lineLog, waysLog uint8) bool {
		sets := 1 << (setsLog%10 + 1)
		line := 1 << (lineLog%6 + 4)
		ways := 1 << (waysLog % 4)
		g := CacheGeometry{SizeBytes: sets * line * ways, LineBytes: line, Ways: ways}
		if err := g.validate("x"); err != nil {
			return false
		}
		return g.Sets() == sets && g.Lines() == sets*ways
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPENDULUMStar(t *testing.T) {
	s, err := PENDULUMStar([]Timer{100, 200, 300, 400})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Arbiter != ArbiterRROF || s.Transfer != TransferDirect {
		t.Fatal("PENDULUM* must use RROF with direct transfers")
	}
	for i := 0; i < 4; i++ {
		if !s.TimerOf(i).Timed() {
			t.Fatalf("core %d not timed", i)
		}
	}
	if _, err := PENDULUMStar([]Timer{100, TimerMSI}); err == nil {
		t.Fatal("MSI core accepted by PENDULUM*")
	}
}

func TestEnumStringsAndMarshal(t *testing.T) {
	if SnoopMSI.String() != "msi" || SnoopMESI.String() != "mesi" {
		t.Fatal("snoop names wrong")
	}
	if Snoop(9).String() != "snoop(9)" || Arbiter(9).String() != "arbiter(9)" || Transfer(9).String() != "transfer(9)" {
		t.Fatal("unknown enum rendering wrong")
	}
	b, err := SnoopMESI.MarshalText()
	if err != nil || string(b) != "mesi" {
		t.Fatalf("snoop MarshalText = %q, %v", b, err)
	}
	var sp Snoop
	if err := sp.UnmarshalText([]byte("mesi")); err != nil || sp != SnoopMESI {
		t.Fatalf("snoop UnmarshalText: %v %v", sp, err)
	}
	ab, _ := ArbiterTDM.MarshalText()
	tb, _ := TransferViaMemory.MarshalText()
	if string(ab) != "tdm" || string(tb) != "via-memory" {
		t.Fatal("enum MarshalText wrong")
	}
}

func TestGeometryValidateDirect(t *testing.T) {
	bad := []CacheGeometry{
		{SizeBytes: 0, LineBytes: 64, Ways: 1},
		{SizeBytes: 1024, LineBytes: 0, Ways: 1},
		{SizeBytes: 1024, LineBytes: 64, Ways: 0},
		{SizeBytes: 1000, LineBytes: 64, Ways: 1},
	}
	for i, g := range bad {
		if err := g.validate("x"); err == nil {
			t.Errorf("case %d accepted: %+v", i, g)
		}
	}
}
