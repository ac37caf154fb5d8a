// Package config defines the system configuration model for the CoHoRT
// simulator: cache geometry, bus latencies, arbitration policy, per-core
// coherence timers and criticality levels, and the per-mode timer LUT used
// for mode switching. It mirrors the system model in §II and the evaluation
// setup in §VIII of the paper.
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
)

// Timer is a per-core coherence timer register value θ (paper §III-B).
//
//   - Timer ≥ 1: time-based coherence; a fetched line is protected for θ
//     cycles and the counter replenishes while no remote requester waits.
//   - TimerNoCache (0): the core does not retain lines; it serves pending
//     requesters and invalidates immediately.
//   - TimerMSI (−1): the countdown counter is disabled and the core runs the
//     standard snooping MSI protocol.
type Timer int32

const (
	// TimerMSI selects the standard MSI snooping protocol (θ = −1).
	TimerMSI Timer = -1
	// TimerNoCache makes the core serve and invalidate immediately (θ = 0).
	TimerNoCache Timer = 0
	// TimerMax is the largest representable timer (16-bit register, §III-B).
	TimerMax Timer = 1<<16 - 1
)

// Timed reports whether the timer selects time-based coherence.
func (t Timer) Timed() bool { return t >= 1 }

// Valid reports whether the timer is within the architectural range.
func (t Timer) Valid() bool { return t >= TimerMSI && t <= TimerMax }

// String renders the timer the way the paper writes it.
func (t Timer) String() string {
	switch {
	case t == TimerMSI:
		return "MSI(-1)"
	case t == TimerNoCache:
		return "0"
	default:
		return fmt.Sprintf("%d", int32(t))
	}
}

// Arbiter identifies the shared-bus arbitration mechanism.
type Arbiter int

const (
	// ArbiterRROF is Round-Robin Oldest-First (paper §III-B): a core keeps
	// its position in the cyclic order until its oldest request is served.
	ArbiterRROF Arbiter = iota
	// ArbiterRR is plain round-robin over pending requests.
	ArbiterRR
	// ArbiterFCFS is first-come first-served (the COTS baseline of Fig. 6).
	ArbiterFCFS
	// ArbiterTDM is time-division multiplexing over critical cores with
	// non-critical cores served only in idle slots (the PENDULUM baseline).
	ArbiterTDM
)

var arbiterNames = map[Arbiter]string{
	ArbiterRROF: "rrof",
	ArbiterRR:   "rr",
	ArbiterFCFS: "fcfs",
	ArbiterTDM:  "tdm",
}

// String returns the lowercase name of the arbiter.
func (a Arbiter) String() string {
	if s, ok := arbiterNames[a]; ok {
		return s
	}
	return fmt.Sprintf("arbiter(%d)", int(a))
}

// MarshalText implements encoding.TextMarshaler.
func (a Arbiter) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (a *Arbiter) UnmarshalText(b []byte) error {
	for k, v := range arbiterNames {
		if v == string(b) {
			*a = k
			return nil
		}
	}
	return fmt.Errorf("config: unknown arbiter %q", b)
}

// Snoop selects the snooping protocol family the MSI-mode cores (θ = −1)
// and the fill policy of all cores follow.
type Snoop int

const (
	// SnoopMSI is the paper's baseline three-state protocol.
	SnoopMSI Snoop = iota
	// SnoopMESI adds the Exclusive state: a load that finds no other cached
	// copy fills in E and a later store upgrades silently, avoiding the
	// upgrade bus transaction.
	SnoopMESI
)

var snoopNames = map[Snoop]string{
	SnoopMSI:  "msi",
	SnoopMESI: "mesi",
}

// String returns the lowercase protocol name.
func (s Snoop) String() string {
	if n, ok := snoopNames[s]; ok {
		return n
	}
	return fmt.Sprintf("snoop(%d)", int(s))
}

// MarshalText implements encoding.TextMarshaler.
func (s Snoop) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *Snoop) UnmarshalText(b []byte) error {
	for k, v := range snoopNames {
		if v == string(b) {
			*s = k
			return nil
		}
	}
	return fmt.Errorf("config: unknown snoop protocol %q", b)
}

// Transfer identifies how ownership handovers move data between caches.
type Transfer int

const (
	// TransferDirect moves data cache-to-cache in one bus data slot
	// (CoHoRT, PENDULUM, COTS MSI).
	TransferDirect Transfer = iota
	// TransferViaMemory forces the owner to write back to the shared memory
	// and the requester to re-fetch from it (the PCC/PMSI-family baseline):
	// two data slots per intervening owner.
	TransferViaMemory
)

var transferNames = map[Transfer]string{
	TransferDirect:    "direct",
	TransferViaMemory: "via-memory",
}

// String returns the lowercase name of the transfer policy.
func (t Transfer) String() string {
	if s, ok := transferNames[t]; ok {
		return s
	}
	return fmt.Sprintf("transfer(%d)", int(t))
}

// MarshalText implements encoding.TextMarshaler.
func (t Transfer) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (t *Transfer) UnmarshalText(b []byte) error {
	for k, v := range transferNames {
		if v == string(b) {
			*t = k
			return nil
		}
	}
	return fmt.Errorf("config: unknown transfer policy %q", b)
}

// Latencies holds the fixed access latencies of the memory hierarchy in
// cycles (paper §VIII: hit 1, request 4, data 50).
type Latencies struct {
	Hit  int64 `json:"hit"`  // private-cache hit
	Req  int64 `json:"req"`  // bus request broadcast
	Data int64 `json:"data"` // bus data transfer (includes LLC access)
	DRAM int64 `json:"dram"` // off-chip access added on an LLC miss (non-perfect LLC)
}

// SlotWidth returns SW, the worst-case width of one bus slot: a request
// broadcast followed by a data transfer.
func (l Latencies) SlotWidth() int64 { return l.Req + l.Data }

// CacheGeometry describes one cache level.
type CacheGeometry struct {
	SizeBytes int `json:"size_bytes"`
	LineBytes int `json:"line_bytes"`
	Ways      int `json:"ways"` // 1 = direct-mapped
}

// Sets returns the number of sets implied by the geometry.
func (g CacheGeometry) Sets() int { return g.SizeBytes / (g.LineBytes * g.Ways) }

// Lines returns the total number of lines the cache holds.
func (g CacheGeometry) Lines() int { return g.SizeBytes / g.LineBytes }

func (g CacheGeometry) validate(name string) error {
	switch {
	case g.SizeBytes <= 0:
		return fmt.Errorf("config: %s size must be positive, got %d", name, g.SizeBytes)
	case g.LineBytes <= 0 || bits.OnesCount(uint(g.LineBytes)) != 1:
		return fmt.Errorf("config: %s line size must be a positive power of two, got %d", name, g.LineBytes)
	case g.Ways <= 0:
		return fmt.Errorf("config: %s ways must be positive, got %d", name, g.Ways)
	case g.SizeBytes%(g.LineBytes*g.Ways) != 0:
		return fmt.Errorf("config: %s size %d not divisible by line*ways %d", name, g.SizeBytes, g.LineBytes*g.Ways)
	case bits.OnesCount(uint(g.Sets())) != 1:
		return fmt.Errorf("config: %s set count %d must be a power of two", name, g.Sets())
	}
	return nil
}

// Core configures one core of the MCS (paper §II): its criticality level,
// its per-mode timer LUT, and its per-mode WCML requirement Γ (0 = none).
type Core struct {
	// Criticality is the core's criticality level l_i in [1, Levels];
	// higher is more critical.
	Criticality int `json:"criticality"`
	// TimerLUT maps operating mode m (1-based index m-1) to the timer θ_i^m
	// loaded into the timer register at that mode. This is the Mode-Switch
	// LUT of Fig. 2b. Length must equal SystemConfig.Levels.
	TimerLUT []Timer `json:"timer_lut"`
	// Requirement is Γ_i^m, the WCML requirement per mode in cycles
	// (0 means unconstrained). Optional; length 0 or Levels.
	Requirement []int64 `json:"requirement,omitempty"`
}

// TimerAt returns the timer register value for 1-based mode m.
func (c Core) TimerAt(mode int) Timer { return c.TimerLUT[mode-1] }

// System is the complete configuration of a simulated platform.
type System struct {
	// Cores lists per-core configuration; len(Cores) is N.
	Cores []Core `json:"cores"`
	// Levels is the number of criticality levels L (and operating modes).
	Levels int `json:"levels"`
	// Mode is the initial operating mode m ∈ [1, Levels].
	Mode int `json:"mode"`
	// L1 and LLC describe the cache hierarchy; the LLC is inclusive.
	L1  CacheGeometry `json:"l1"`
	LLC CacheGeometry `json:"llc"`
	// Lat holds the fixed latencies.
	Lat Latencies `json:"latencies"`
	// Arbiter selects the bus arbitration mechanism.
	Arbiter Arbiter `json:"arbiter"`
	// Transfer selects direct cache-to-cache or via-memory handovers.
	Transfer Transfer `json:"transfer"`
	// Snoop selects the snooping protocol family (MSI by default, MESI as
	// the extension); timers compose with either.
	Snoop Snoop `json:"snoop,omitempty"`
	// PerfectLLC, when true, makes every LLC access hit (the paper's
	// headline setting, eliminating off-chip interference).
	PerfectLLC bool `json:"perfect_llc"`
	// PendulumCritOnly, when true, applies the PENDULUM service rule:
	// non-critical cores (criticality below Mode) are served only when no
	// critical core has a pending request. Meaningful with ArbiterTDM.
	PendulumCritOnly bool `json:"pendulum_crit_only,omitempty"`
	// BlockingCaches, when true, disables hits-over-misses: a core stalls
	// on any outstanding miss (a blocking L1 instead of the paper's
	// non-blocking one). Ablation knob; default false.
	BlockingCaches bool `json:"blocking_caches,omitempty"`
	// CheckInvariants, when true, attaches the protocol invariant checker
	// (internal/invariant) to the built system: after every bus transaction
	// it validates SWMR, value consistency, LLC inclusion, and the timer
	// protection bounds, and Run fails with a structured violation at the
	// first breach. Costs a sweep proportional to cache capacity per
	// transaction; meant for tests and debugging, off by default.
	CheckInvariants bool `json:"check_invariants,omitempty"`
}

// MaxCores is the most cores a system may have: the width of the
// directory's per-line sharer and requester bitmasks.
const MaxCores = 64

// MaxLevels is the most criticality levels (and so operating modes) a
// system may have. The paper sizes the Mode-Switch LUT for five levels;
// fifteen keeps every mode a 4-bit value, the width of the waveform dump's
// mode signal.
const MaxLevels = 15

// N returns the number of cores.
func (s *System) N() int { return len(s.Cores) }

// TimerOf returns the timer of core i at the system's current mode.
func (s *System) TimerOf(i int) Timer { return s.Cores[i].TimerAt(s.Mode) }

// Timers returns the timer vector Θ at the system's current mode.
func (s *System) Timers() []Timer {
	ts := make([]Timer, s.N())
	for i := range s.Cores {
		ts[i] = s.TimerOf(i)
	}
	return ts
}

// Critical reports whether core i is critical at the current mode
// (criticality level ≥ mode, paper §VI).
func (s *System) Critical(i int) bool { return s.Cores[i].Criticality >= s.Mode }

// ErrInvalid wraps all validation failures.
var ErrInvalid = errors.New("config: invalid system")

// Validate checks structural consistency. It must pass before the
// configuration is handed to the simulator or the analysis.
func (s *System) Validate() error {
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
	}
	if len(s.Cores) == 0 {
		return fail("no cores")
	}
	if len(s.Cores) > MaxCores {
		return fail("%d cores, at most %d", len(s.Cores), MaxCores)
	}
	if s.Levels < 1 || s.Levels > MaxLevels {
		return fail("levels %d out of range [1,%d]", s.Levels, MaxLevels)
	}
	if s.Mode < 1 || s.Mode > s.Levels {
		return fail("mode %d out of range [1,%d]", s.Mode, s.Levels)
	}
	for i, c := range s.Cores {
		if c.Criticality < 1 || c.Criticality > s.Levels {
			return fail("core %d criticality %d out of range [1,%d]", i, c.Criticality, s.Levels)
		}
		if len(c.TimerLUT) != s.Levels {
			return fail("core %d timer LUT has %d entries, want %d", i, len(c.TimerLUT), s.Levels)
		}
		for m, th := range c.TimerLUT {
			if !th.Valid() {
				return fail("core %d mode %d timer %d out of range", i, m+1, th)
			}
		}
		if len(c.Requirement) != 0 && len(c.Requirement) != s.Levels {
			return fail("core %d requirement has %d entries, want 0 or %d", i, len(c.Requirement), s.Levels)
		}
		for m, g := range c.Requirement {
			if g < 0 {
				return fail("core %d mode %d requirement %d negative", i, m+1, g)
			}
		}
	}
	if err := s.L1.validate("L1"); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if err := s.LLC.validate("LLC"); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if s.L1.LineBytes != s.LLC.LineBytes {
		return fail("L1 line %d != LLC line %d", s.L1.LineBytes, s.LLC.LineBytes)
	}
	if s.LLC.Lines() < s.L1.Lines()*s.N() {
		return fail("LLC (%d lines) cannot be inclusive of %d L1s of %d lines",
			s.LLC.Lines(), s.N(), s.L1.Lines())
	}
	if s.Lat.Hit < 1 || s.Lat.Req < 1 || s.Lat.Data < 1 {
		return fail("latencies must be ≥ 1: %+v", s.Lat)
	}
	if !s.PerfectLLC && s.Lat.DRAM < 1 {
		return fail("non-perfect LLC requires DRAM latency ≥ 1")
	}
	return nil
}

// Clone returns a deep copy of the configuration.
func (s *System) Clone() *System {
	out := *s
	out.Cores = make([]Core, len(s.Cores))
	for i, c := range s.Cores {
		cc := c
		cc.TimerLUT = append([]Timer(nil), c.TimerLUT...)
		cc.Requirement = append([]int64(nil), c.Requirement...)
		out.Cores[i] = cc
	}
	return &out
}

// SetTimers overwrites the timer of every core at the given mode.
func (s *System) SetTimers(mode int, timers []Timer) error {
	if mode < 1 || mode > s.Levels {
		return fmt.Errorf("%w: mode %d out of range", ErrInvalid, mode)
	}
	if len(timers) != s.N() {
		return fmt.Errorf("%w: %d timers for %d cores", ErrInvalid, len(timers), s.N())
	}
	for i := range s.Cores {
		s.Cores[i].TimerLUT[mode-1] = timers[i]
	}
	return nil
}

// MarshalJSON ensures the configuration always serializes validated fields.
func (s *System) MarshalJSON() ([]byte, error) {
	type alias System
	return json.Marshal((*alias)(s))
}

// ParseJSON decodes and validates a configuration.
func ParseJSON(data []byte) (*System, error) {
	var s System
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("config: decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
