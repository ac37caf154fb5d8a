// Package analysis implements the paper's timing analysis (§IV): the
// per-request worst-case latency of Equation 1, the task-level worst-case
// memory latency (WCML) of Equations 2 and 3, the corresponding bounds for
// the PCC and PENDULUM baselines, and the in-isolation static cache analysis
// that yields the guaranteed hit count M_hit(θ) the optimizer consumes
// (§V, after [17]).
package analysis

import (
	"fmt"

	"cohort/internal/cache"
	"cohort/internal/config"
	"cohort/internal/trace"
)

// Unbounded marks a latency with no analytical bound (e.g. PENDULUM's
// non-critical cores, or any core under a FCFS arbiter).
const Unbounded int64 = -1

// WCLCoHoRT computes the worst-case per-request latency of core i under
// RROF arbitration with the given timer vector. The first three terms are
// Equation 1 of the paper:
//
//	WCL_i = SW + (N−1)·SW + Σ_{j≠i} (θ_j + SW  if θ_j ≥ 0; 0 if θ_j = −1)
//
// plus one additional (N−1)·SW correction term required by our
// work-conserving split-transaction bus: before the request's broadcast is
// granted, each other core may complete one transaction for a *different*
// line (RROF admits exactly one such service per co-runner, since a core
// keeps its sequence position until its oldest request is served), on top of
// the same core's timer hold on the requested line that Eq. 1 charges. The
// paper's proof scenario has all cores contending for one line, where this
// term is zero; the soundness tests exercise mixed-line schedules where it
// is not.
func WCLCoHoRT(lat config.Latencies, timers []config.Timer, i int) int64 {
	sw := lat.SlotWidth()
	n := int64(len(timers))
	wcl := sw + (n-1)*sw + (n-1)*sw
	for j, th := range timers {
		if j == i {
			continue
		}
		if th >= 0 {
			wcl += int64(th) + sw
		}
	}
	return wcl
}

// WCLViaMemory bounds the per-request latency when ownership handovers
// route data through the shared memory (write-back + re-fetch): every
// transaction a co-runner charges against the request — its different-line
// service before the broadcast and its hold on the requested line — grows by
// one data latency over the direct-transfer bound:
//
//	WCL_via_i = WCL_CoHoRT_i + 2·(N−1)·L_data
func WCLViaMemory(lat config.Latencies, timers []config.Timer, i int) int64 {
	return WCLCoHoRT(lat, timers, i) + 2*int64(len(timers)-1)*lat.Data
}

// WCLPCC bounds the per-request latency under the PCC baseline — the
// via-memory bound with every core on MSI:
//
//	WCL_PCC = SW + 2·(N−1)·(SW + L_data)
func WCLPCC(lat config.Latencies, n int) int64 {
	timers := make([]config.Timer, n)
	for i := range timers {
		timers[i] = config.TimerMSI
	}
	return WCLViaMemory(lat, timers, 0)
}

// WCLPendulum bounds the per-request latency of a critical core under the
// PENDULUM baseline: TDM arbitration over the N_cr critical cores (period
// P = N_cr·SW, each handover may additionally wait a full period for its
// slot) plus the fixed, non-optimized timer of every critical core —
// including the requester's own, which PENDULUM's self-invalidation-style
// analysis charges (the paper contrasts: "In CoHoRT, cores do not suffer
// from the latency of its own timer", §VIII). Non-critical cores have no
// bound (Unbounded) — the limitation the paper calls out in §VII.
func WCLPendulum(lat config.Latencies, timers []config.Timer, critical []bool, i int) int64 {
	if !critical[i] {
		return Unbounded
	}
	sw := lat.SlotWidth()
	nCr := int64(0)
	for _, cr := range critical {
		if cr {
			nCr++
		}
	}
	period := nCr * sw
	wcl := 2*period + sw
	for j, cr := range critical {
		if !cr {
			continue
		}
		th := int64(timers[j])
		if th < 0 {
			th = 0
		}
		wcl += th + 2*period
	}
	return wcl
}

// WCML computes Equation 2: the task-level worst-case memory latency from
// the guaranteed hit/miss split.
func WCML(mHit, mMiss, lHit, wcl int64) int64 {
	return mHit*lHit + mMiss*wcl
}

// WCMLAllMiss computes Equation 3: the bound for cores whose hit counts
// cannot be guaranteed (MSI cores) — every access is assumed a miss.
func WCMLAllMiss(lambda, wcl int64) int64 {
	return lambda * wcl
}

// GuaranteedHits runs the conservative in-isolation cache analysis for one
// core: a line filled at analysis time t is guaranteed present only until
// t + θ (replenishment cannot be credited under interference), misses are
// charged the full WCL, hits the hit latency, and a store to a Shared copy
// is an upgrade (counted as a miss). It returns the guaranteed hit/miss
// split (M_hit, M_miss) of Equation 2.
//
// The analysis is sound against the simulator: every access it counts as a
// hit is a hit in any co-running schedule, because remote requests cannot
// invalidate a copy before the first timer expiry at or after the fill
// (coherence.ReleaseTime ≥ fill + θ) and the self-replacement pattern in
// isolation is identical.
func GuaranteedHits(s trace.Stream, geom config.CacheGeometry, lat config.Latencies, theta config.Timer, wcl int64) (hits, misses int64) {
	if !theta.Timed() {
		return 0, int64(len(s))
	}
	if wcl <= 0 {
		panic(fmt.Sprintf("analysis: non-positive WCL %d", wcl))
	}
	arr := cache.New(geom.SizeBytes, geom.LineBytes, geom.Ways)
	window := int64(theta)
	now := int64(0)
	for _, a := range s {
		now += a.Gap
		line := arr.LineAddr(a.Addr)
		e := arr.Lookup(line)
		guaranteed := e != nil && now <= e.FetchedAt+window &&
			(a.Kind == trace.Read || e.State == cache.Modified)
		if guaranteed {
			hits++
			now += lat.Hit
			arr.Touch(e)
			continue
		}
		misses++
		now += wcl
		st := cache.Shared
		if a.Kind == trace.Write {
			st = cache.Modified
		}
		if e != nil {
			// Present but outside the window (or an upgrade): re-fill in
			// place with a fresh window.
			arr.Fill(e, line, st, now)
			continue
		}
		victim := arr.VictimFor(line, nil)
		if victim.Valid() {
			arr.Invalidate(victim)
		}
		arr.Fill(victim, line, st, now)
	}
	return hits, misses
}

// IsolationHits runs the paper's in-isolation cache analysis (§IV: "M_hit
// and M_miss can be obtained from the in-isolation cache analysis by virtue
// of their timers [17]"): the core's stream is replayed on its private cache
// with the *isolation* timing — hits cost the hit latency, misses one
// uncontended slot (SW) — and a line is classified a guaranteed hit while the
// isolation clock is within θ of its fill. The timers are what make the
// in-isolation classification meaningful under co-runners (the argument of
// [17]); the residual optimism relative to a fully adversarial schedule is
// absorbed by the WCL term of Equation 2, which prices every predicted miss
// at the contended bound. GuaranteedHits is the strictly conservative
// alternative that charges WCL inside the window as well.
func IsolationHits(s trace.Stream, geom config.CacheGeometry, lat config.Latencies, theta config.Timer) (hits, misses int64) {
	return GuaranteedHits(s, geom, lat, theta, lat.SlotWidth())
}

// SaturationTimer sweeps θ in isolation and returns θ_is, the smallest
// swept timer for which the guaranteed hits reach their saturation value,
// together with the hit count at saturation (§V: the upper bound of the
// optimizer's search space). The sweep uses a doubling grid refined by
// binary search between the last two grid points; hits are evaluated with a
// fixed nominal per-miss cost of one slot (the sweep is a property of the
// task in isolation, not of a co-runner set).
func SaturationTimer(s trace.Stream, geom config.CacheGeometry, lat config.Latencies) (config.Timer, int64) {
	wcl := lat.SlotWidth()
	return saturationSweep(func(th config.Timer) int64 {
		h, _ := GuaranteedHits(s, geom, lat, th, wcl)
		return h
	})
}

// saturationSweep is the sweep's decision sequence, shared by the scalar
// sweep here and RegimeSet.SaturationTimer: probe TimerMax for the
// saturation reference, early-return at θ = 1, double to bracket, then
// binary-search the smallest saturating θ in (lo, hi]. Sharing the exact
// probe order is what makes θ_is bit-identical across both.
func saturationSweep(eval func(config.Timer) int64) (config.Timer, int64) {
	maxHits := eval(config.TimerMax)
	if maxHits == eval(1) {
		return 1, maxHits
	}
	// Doubling to find the first grid point reaching saturation.
	lo, hi := config.Timer(1), config.TimerMax
	for th := config.Timer(2); th < config.TimerMax; th *= 2 {
		if eval(th) >= maxHits {
			hi = th
			break
		}
		lo = th
	}
	// Binary search the smallest saturating θ in (lo, hi].
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if eval(mid) >= maxHits {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, maxHits
}

// CoreBound is the analytical result for one core.
type CoreBound struct {
	// Core is the core index.
	Core int
	// Theta is the core's timer at the analyzed mode.
	Theta config.Timer
	// WCL is the per-request bound (Unbounded if none exists).
	WCL int64
	// MHit and MMiss are the guaranteed hit/miss split (MHit = 0 for cores
	// analyzed with Equation 3).
	MHit, MMiss int64
	// WCMLBound is the task-level bound (Unbounded if none exists).
	WCMLBound int64
}

// Bounds computes the per-core analytical WCML bounds for a configuration
// and workload, dispatching on the system variant:
//
//   - TDM + PendulumCritOnly  → PENDULUM bounds (critical cores only),
//   - TransferViaMemory       → PCC bounds (all requests misses),
//   - FCFS arbiter            → no bounds (COTS),
//   - otherwise               → CoHoRT bounds (Eq. 1 + Eq. 2/3).
func Bounds(cfg *config.System, tr *trace.Trace) ([]CoreBound, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tr.NumCores() != cfg.N() {
		return nil, fmt.Errorf("analysis: trace has %d streams for %d cores", tr.NumCores(), cfg.N())
	}
	n := cfg.N()
	timers := cfg.Timers()
	// Non-perfect LLC (the paper's footnote-1 configuration): every memory
	// service in the worst-case window may additionally miss the LLC, so
	// each of the up-to-N serialized services carries one DRAM penalty.
	var dramTerm int64
	if !cfg.PerfectLLC {
		dramTerm = int64(n) * cfg.Lat.DRAM
	}
	out := make([]CoreBound, n)
	for i := 0; i < n; i++ {
		b := CoreBound{Core: i, Theta: timers[i]}
		lambda := int64(tr.Lambda(i))
		b.MMiss = lambda
		switch {
		case cfg.Arbiter == config.ArbiterFCFS, cfg.Arbiter == config.ArbiterRR:
			// FCFS has no fairness guarantee; plain RR rotates on every
			// grant (including bare broadcasts), so the one-service-per-
			// co-runner argument behind Eq. 1 does not hold. Neither is
			// part of the paper's analysis.
			b.WCL = Unbounded
		case cfg.Arbiter == config.ArbiterTDM:
			// The TDM bound assumes the PENDULUM baseline's structure:
			// direct transfers and a perfect LLC, so every transaction fits
			// one slot. Hybrids (via-memory or DRAM-backed transactions
			// overrunning slots) are outside the published analysis.
			if cfg.Transfer != config.TransferDirect || !cfg.PerfectLLC || !cfg.PendulumCritOnly {
				b.WCL = Unbounded
				break
			}
			crit := make([]bool, n)
			for j := range crit {
				crit[j] = cfg.Critical(j)
			}
			b.WCL = WCLPendulum(cfg.Lat, timers, crit, i)
		case cfg.Transfer == config.TransferViaMemory:
			b.WCL = WCLViaMemory(cfg.Lat, timers, i)
			if timers[i].Timed() {
				b.MHit, b.MMiss = IsolationHits(tr.Streams[i], cfg.L1, cfg.Lat, timers[i])
			}
		default:
			b.WCL = WCLCoHoRT(cfg.Lat, timers, i)
			if timers[i].Timed() {
				b.MHit, b.MMiss = IsolationHits(tr.Streams[i], cfg.L1, cfg.Lat, timers[i])
			}
		}
		if b.WCL == Unbounded {
			b.WCMLBound = Unbounded
		} else {
			b.WCL += dramTerm
			b.WCMLBound = WCML(b.MHit, b.MMiss, cfg.Lat.Hit, b.WCL)
		}
		out[i] = b
	}
	return out, nil
}
