package core

import (
	"errors"

	"cohort/internal/obs"
)

// LatencySample is one point of a per-core cumulative-latency time series.
type LatencySample struct {
	// At is the sampling cycle.
	At int64
	// Cumulative is the core's total memory latency up to At.
	Cumulative int64
	// Window is the latency accumulated since the previous sample.
	Window int64
	// Mode is the operating mode at the sample.
	Mode int
}

// latencySampler is the schedule and series of one sampled core.
type latencySampler struct {
	core    int
	window  int64
	samples []LatencySample
}

// SampleLatencyCores arranges for each listed core's memory latency to be
// sampled every window cycles during the run — the measured counterpart of
// the WCML-over-time plot in Fig. 7a. Must be called before Run; calling it
// again for an already-sampled core replaces that core's window. Retrieve
// each core's series with LatencySeriesFor.
func (s *System) SampleLatencyCores(window int64, cores ...int) error {
	if s.ran {
		return errors.New("core: SampleLatencyCores after Run")
	}
	if window <= 0 {
		return errors.New("core: sampler window must be positive")
	}
	for _, core := range cores {
		if core < 0 || core >= len(s.cores) {
			return errors.New("core: sampler core out of range")
		}
	}
	for _, core := range cores {
		replaced := false
		for _, sm := range s.samplers {
			if sm.core == core {
				sm.window = window
				replaced = true
				break
			}
		}
		if !replaced {
			// Pre-size the series: runs of a few thousand windows are the
			// common case (Fig. 7 sweeps), and growth from zero would double
			// through the whole run.
			s.samplers = append(s.samplers, &latencySampler{
				core:    core,
				window:  window,
				samples: make([]LatencySample, 0, 256),
			})
		}
	}
	return nil
}

// LatencySeriesFor returns the samples collected for one core (nil when the
// core was not sampled).
func (s *System) LatencySeriesFor(core int) []LatencySample {
	for _, sm := range s.samplers {
		if sm.core == core {
			return append([]LatencySample(nil), sm.samples...)
		}
	}
	return nil
}

// SampledCores lists the cores with samplers attached, in attachment order.
func (s *System) SampledCores() []int {
	out := make([]int, 0, len(s.samplers))
	for _, sm := range s.samplers {
		out = append(out, sm.core)
	}
	return out
}

// startSampler schedules the first sample of every sampler; called from Run.
func (s *System) startSampler() {
	for _, sm := range s.samplers {
		sm := sm
		s.at(sm.window, func(now int64) { s.samplerTick(sm, now) })
	}
}

// samplerTick records one point and reschedules while the core is active.
func (s *System) samplerTick(sm *latencySampler, now int64) {
	cum := s.run.Cores[sm.core].TotalLatency
	prev := int64(0)
	if n := len(sm.samples); n > 0 {
		prev = sm.samples[n-1].Cumulative
	}
	sm.samples = append(sm.samples, LatencySample{
		At:         now,
		Cumulative: cum,
		Window:     cum - prev,
		Mode:       s.mode,
	})
	if s.rec != nil {
		s.rec.Count(obs.PidSim, simTidCore(sm.core), "cum latency", now, cum)
		s.rec.Count(obs.PidSim, simTidCore(sm.core), "window latency", now, cum-prev)
	}
	if !s.cores[sm.core].finished {
		s.at(now+sm.window, func(n int64) { s.samplerTick(sm, n) })
	}
}
