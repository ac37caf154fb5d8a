// Package invariant is the dynamic half of the CoHoRT correctness tooling
// (the static half is internal/lint): a protocol invariant checker that a
// core.System consults after every bus transaction when
// config.System.CheckInvariants is set. It validates the textbook properties
// every coherence variant in this repo must preserve —
//
//   - SWMR: at most one core holds a line in Modified/Exclusive, and an
//     owned copy excludes every other copy;
//   - value consistency: every cached copy carries the line's committed
//     write version (the simulator's stand-in for data values);
//   - LLC inclusion: an inclusive LLC contains every line cached in any L1,
//     except lines it deliberately bypassed around a fully timer-pinned set;
//   - timer protection: a countdown timer never protects a line past one
//     full θ epoch beyond the later of the fetch and the pending request,
//     and scheduled releases fire exactly at the Fig. 3 expiry — never
//     early, never late.
//
// Violations are reported as a structured *Error naming the line, the cycle,
// and the per-core states, so a protocol regression fails with a coherent
// snapshot instead of a corrupted latency number thousands of cycles later.
package invariant

import (
	"fmt"
	"sort"
	"strings"

	"cohort/internal/cache"
	"cohort/internal/coherence"
	"cohort/internal/config"
	"cohort/internal/memctrl"
)

// SystemView is the read-only window the checker needs into a running
// system. core.System implements it; the indirection keeps this package free
// of an import cycle with internal/core.
type SystemView interface {
	NumCores() int
	CoreTheta(core int) config.Timer
	CoreL1(core int) *cache.Cache
	Directory() *coherence.Directory
	LLC() *memctrl.LLC
	// HeadDataReady returns the cycle the line's head waiter may be granted
	// its data transfer (every blocking release/invalidation has been
	// scheduled at or before it), or -1 when unknown.
	HeadDataReady(line uint64) int64
}

// Kind classifies a violated invariant.
type Kind uint8

const (
	// KindSWMR: the single-writer/multiple-reader property broke.
	KindSWMR Kind = iota
	// KindValueConsistency: a cached copy disagrees with the committed
	// version of the line.
	KindValueConsistency
	// KindInclusion: a line cached in an L1 is neither in the inclusive LLC
	// nor recorded as an LLC bypass.
	KindInclusion
	// KindTimerProtection: a countdown timer protected a line beyond its θ
	// bound, or a release fired at a cycle other than the computed expiry.
	KindTimerProtection
	// KindModeSwitch: a mode switch programmed a timer register that
	// disagrees with the core's configured Mode-Switch LUT entry.
	KindModeSwitch
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSWMR:
		return "swmr"
	case KindValueConsistency:
		return "value-consistency"
	case KindInclusion:
		return "inclusion"
	case KindTimerProtection:
		return "timer-protection"
	case KindModeSwitch:
		return "mode-switch"
	default:
		return "invariant"
	}
}

// CoreLineState is one core's view of the offending line at the violation.
type CoreLineState struct {
	Core      int
	State     cache.State
	Version   uint64
	FetchedAt int64
}

// Error is a structured invariant violation.
type Error struct {
	// Kind is the violated invariant.
	Kind Kind
	// Cycle is the simulation cycle the violation was detected.
	Cycle int64
	// Line is the line-granularity address involved.
	Line uint64
	// Core is the primary offending core, or -1 when none applies.
	Core int
	// States lists every core's cached state of the line (cores holding the
	// line Invalid are omitted).
	States []CoreLineState
	// Detail is the human-readable specifics.
	Detail string
}

// Error renders the violation with its full per-core context.
func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "invariant %s violated at cycle %d, line %#x", e.Kind, e.Cycle, e.Line)
	if e.Core >= 0 {
		fmt.Fprintf(&b, ", core %d", e.Core)
	}
	fmt.Fprintf(&b, ": %s", e.Detail)
	if len(e.States) > 0 {
		b.WriteString(" [")
		for i, st := range e.States {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "core%d=%s v%d@%d", st.Core, st.State, st.Version, st.FetchedAt)
		}
		b.WriteString("]")
	}
	return b.String()
}

// Checker validates the protocol invariants of one system. It is stateless
// between calls apart from a check counter; create one per System.
type Checker struct {
	sys    SystemView
	checks int64
}

// NewChecker builds a checker over the given system view.
func NewChecker(sys SystemView) *Checker { return &Checker{sys: sys} }

// Checks reports how many transaction sweeps ran — tests assert it is
// non-zero so "enabled" cannot silently mean "never invoked".
func (c *Checker) Checks() int64 { return c.checks }

// CheckTransaction sweeps every tracked line after a bus transaction
// completed at cycle now and returns the first violation in ascending line
// order, or nil. Cost is proportional to cache capacity, matching the
// documented cost of enabling the checker.
func (c *Checker) CheckTransaction(now int64) *Error {
	c.checks++
	copies := c.copies()
	var first *Error
	c.sys.Directory().ForEach(func(line uint64, li *coherence.LineInfo) {
		cs := copies[line]
		delete(copies, line)
		if first != nil {
			return
		}
		first = c.checkLine(now, line, li, cs)
	})
	if first != nil {
		return first
	}
	// What is left are copies the directory never heard of.
	return c.checkCopies(now, copies)
}

// CheckCached applies the per-line rule to every line an L1 holds, in
// ascending line order, and returns the first violation at cycle now, or
// nil. It is the end-of-run check: with nothing in flight only cached
// lines carry obligations, so it never walks the directory, whose lines
// can outnumber the cached ones by orders of magnitude.
func (c *Checker) CheckCached(now int64) *Error {
	return c.checkCopies(now, c.copies())
}

// copies snapshots every valid L1 copy, grouped by line.
func (c *Checker) copies() map[uint64][]CoreLineState {
	copies := make(map[uint64][]CoreLineState)
	for i := 0; i < c.sys.NumCores(); i++ {
		core := i
		c.sys.CoreL1(i).ForEach(func(e *cache.Entry) {
			copies[e.LineAddr] = append(copies[e.LineAddr], CoreLineState{
				Core: core, State: e.State, Version: e.Version, FetchedAt: e.FetchedAt,
			})
		})
	}
	return copies
}

// checkCopies checks each line of a snapshot, in ascending line order. A
// cached line the directory does not track is a protocol bug by itself.
func (c *Checker) checkCopies(now int64, copies map[uint64][]CoreLineState) *Error {
	lines := make([]uint64, 0, len(copies))
	for line := range copies {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	dir := c.sys.Directory()
	for _, line := range lines {
		cs := copies[line]
		li := dir.Peek(line)
		if li == nil {
			return &Error{
				Kind: KindSWMR, Cycle: now, Line: line, Core: cs[0].Core, States: cs,
				Detail: "line cached in an L1 but not tracked in the directory",
			}
		}
		if err := c.checkLine(now, line, li, cs); err != nil {
			return err
		}
	}
	return nil
}

// checkLine validates one line's global state.
func (c *Checker) checkLine(now int64, line uint64, li *coherence.LineInfo, cs []CoreLineState) *Error {
	fail := func(kind Kind, core int, format string, args ...any) *Error {
		return &Error{Kind: kind, Cycle: now, Line: line, Core: core, States: cs,
			Detail: fmt.Sprintf(format, args...)}
	}

	// --- SWMR ---------------------------------------------------------
	owned := 0
	for _, st := range cs {
		switch st.State {
		case cache.Modified, cache.Exclusive:
			owned++
			if li.Owner != st.Core {
				return fail(KindSWMR, st.Core, "core holds %s but directory owner is %d", st.State, li.Owner)
			}
			if li.OwnerReleased {
				return fail(KindSWMR, st.Core, "core still holds %s after the owner released the line", st.State)
			}
		case cache.Shared:
			if !li.IsSharer(st.Core) {
				return fail(KindSWMR, st.Core, "core holds S but is not registered as a sharer")
			}
		case cache.Invalid:
			// Snapshots carry valid copies only; listed to keep the switch
			// exhaustive over cache.State.
		}
	}
	if owned > 1 {
		return fail(KindSWMR, li.Owner, "%d owned (M/E) copies coexist", owned)
	}
	if owned == 1 && len(cs) > 1 {
		return fail(KindSWMR, li.Owner, "owned copy coexists with %d other copies", len(cs)-1)
	}

	// --- Value consistency -------------------------------------------
	// li.Version counts committed writes; every live copy must carry it
	// (the LLC/memory image is the committed version by construction).
	for _, st := range cs {
		if st.Version != li.Version {
			return fail(KindValueConsistency, st.Core,
				"core holds version %d, committed version is %d", st.Version, li.Version)
		}
	}

	// --- LLC inclusion ------------------------------------------------
	llc := c.sys.LLC()
	if len(cs) > 0 && !llc.Contains(line) && !llc.Bypassed(line) {
		return fail(KindInclusion, cs[0].Core,
			"line cached in %d L1(s) but absent from the inclusive LLC (and not bypassed)", len(cs))
	}

	// --- Timer protection (bound side) -------------------------------
	// An unreleased owner facing a waiter may not outlive one θ epoch past
	// the later of its fetch and the request's broadcast (MSI and θ = 0
	// owners must yield at the broadcast itself). Sharers blocking a write
	// serialize behind the FIFO — their release clocks start only when the
	// write reaches the head — so the sound sweep bound for them is the
	// head's computed data-ready cycle: no blocking copy may outlive it.
	head := c.sys.Directory().HeadWaiter(li)
	if head == nil {
		return nil
	}
	b := head.Broadcast
	if li.Owner != coherence.MemOwner && !li.OwnerReleased {
		if err := c.protectionBound(now, line, li.Owner, li.OwnerFetch, b, cs); err != nil {
			return err
		}
	}
	if head.Write {
		if ready := c.sys.HeadDataReady(line); ready >= 0 && now > ready {
			for _, st := range cs {
				if st.State != cache.Shared || st.Core == head.Core {
					continue
				}
				return fail(KindTimerProtection, st.Core,
					"sharer copy fetched at %d still alive %d cycles after the pending write's data-ready cycle %d (request visible at %d)",
					st.FetchedAt, now-ready, ready, b)
			}
		}
	}
	return nil
}

// protectionBound checks a single copy against the late side of the timer
// guarantee: hold ≤ max(fetched, request) + θ for timed cores, and ≤ request
// for MSI/no-cache cores. Equality is allowed — the release event may be
// queued behind the sweeping transaction within the same cycle.
func (c *Checker) protectionBound(now int64, line uint64, core int, fetched, req int64, cs []CoreLineState) *Error {
	theta := c.sys.CoreTheta(core)
	bound := req
	if theta.Timed() {
		bound = fetched
		if req > bound {
			bound = req
		}
		bound += int64(theta)
	}
	if now <= bound {
		return nil
	}
	return &Error{
		Kind: KindTimerProtection, Cycle: now, Line: line, Core: core, States: cs,
		Detail: fmt.Sprintf("copy fetched at %d with θ=%s still protected %d cycles past its bound %d (request visible at %d)",
			fetched, theta, now-bound, bound, req),
	}
}

// CheckModeSwitch validates one Mode-Switch LUT reprogramming event: at a
// switch to mode, the core's timer register (got) must hold exactly the
// configured LUT entry for that mode (want, read through the raw per-mode
// config slice — deliberately not through the coherence.ModeLUT hardware
// model, whose lookup path is what this predicate audits). The simulator
// applies it at every executed switch; the exhaustive model checker replays
// the same predicate at every reachable state, so the dynamic and static
// checks cannot drift apart.
func CheckModeSwitch(now int64, mode, core int, want, got config.Timer) *Error {
	if got == want {
		return nil
	}
	return &Error{
		Kind: KindModeSwitch, Cycle: now, Core: core,
		Detail: fmt.Sprintf("switch to mode %d programmed θ=%s, LUT entry specifies θ=%s", mode, got, want),
	}
}

// CheckTimerRelease validates one timer release/invalidation event: a core's
// copy of line, (re)fetched at fetchedAt under timer theta, is being handed
// over for a request that became visible at reqVisible. The release must
// fire exactly at coherence.ReleaseTime — earlier breaks the WCET guarantee
// the timer sells to its own core, later breaks the WCML bound it sells to
// everyone else.
func (c *Checker) CheckTimerRelease(now int64, line uint64, core int, fetchedAt int64, theta config.Timer, reqVisible int64) *Error {
	want := coherence.ReleaseTime(fetchedAt, reqVisible, theta)
	if now == want {
		return nil
	}
	side := "late"
	if now < want {
		side = "early"
	}
	return &Error{
		Kind: KindTimerProtection, Cycle: now, Line: line, Core: core,
		Detail: fmt.Sprintf("release fired %s: at cycle %d, want exactly %d (fetched %d, request visible %d, θ=%s)",
			side, now, want, fetchedAt, reqVisible, theta),
	}
}
