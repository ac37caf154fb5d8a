package main

import (
	"flag"
	"fmt"
	"testing"

	"cohort/internal/analysis"
	"cohort/internal/bus"
	"cohort/internal/cache"
	"cohort/internal/coherence"
	"cohort/internal/config"
	"cohort/internal/memctrl"
	"cohort/internal/sim"
	"cohort/internal/trace"
)

const (
	// kernelBenchTime is how long testing.Benchmark runs each kernel.
	kernelBenchTime = "100ms"
	// kernelAccesses caps the accesses a kernel replays from the workload's
	// trace, so every kernel's set-up stays small on paper-length traces.
	kernelAccesses = 1 << 16
	// kernelQueueDepth is the event-queue depth of the sim kernel: about what
	// the simulator keeps pending (one wake per core plus in-flight bus and
	// timer events).
	kernelQueueDepth = 2 * nCores
)

// kernelInput is the part of a workload's trace the layer kernels replay.
type kernelInput struct {
	plat *config.System

	// The accesses of all cores interleaved round-robin (core 0's first,
	// core 1's first, …), capped at kernelAccesses.
	lines []uint64
	cores []int32
	kinds []trace.Kind
	gaps  []int64

	// writeLines are the lines of lines' stores (LLC write-back input).
	writeLines []uint64
	// fetched/req/thetas feed ReleaseTime: the issue time of each access,
	// the time of the previous access to its line by any core, and the
	// issuing core's θ.
	fetched, req []int64
	thetas       []config.Timer

	// cands holds one arbiter snapshot of nCores candidates per
	// round-robin round: a core is ready when its access misses in its own
	// L1 replayed in isolation.
	cands []bus.Candidate

	// stream is the longest core stream, capped, and theta the first timed θ
	// replayed on the trace: the oracle kernels' input.
	stream trace.Stream
	theta  config.Timer
}

func newKernelInput(tr *trace.Trace, timers []config.Timer) *kernelInput {
	n := tr.NumCores()
	in := &kernelInput{plat: config.PaperDefaults(n, 1), theta: config.PENDULUMDefaultTimer}
	for _, t := range timers {
		if t.Timed() {
			in.theta = t
			break
		}
	}
	l1 := make([]*cache.Cache, n)
	for i := range l1 {
		g := in.plat.L1
		l1[i] = cache.New(g.SizeBytes, g.LineBytes, g.Ways)
	}
	clock := make([]int64, n)
	lastUse := map[uint64]int64{}
	for p := 0; len(in.lines) < kernelAccesses; p++ {
		round := make([]bus.Candidate, n)
		any := false
		for c, s := range tr.Streams {
			round[c] = bus.Candidate{Core: c, Critical: true}
			if p >= len(s) {
				continue
			}
			any = true
			a := s[p]
			clock[c] += a.Gap + in.plat.Lat.Hit
			line := l1[c].LineAddr(a.Addr)
			in.lines = append(in.lines, line)
			in.cores = append(in.cores, int32(c))
			in.kinds = append(in.kinds, a.Kind)
			in.gaps = append(in.gaps, a.Gap)
			if a.Kind == trace.Write {
				in.writeLines = append(in.writeLines, line)
			}
			fetched, ok := lastUse[line]
			if !ok {
				fetched = clock[c]
			}
			lastUse[line] = clock[c]
			theta := config.TimerMSI
			if c < len(timers) {
				theta = timers[c]
			}
			in.fetched = append(in.fetched, fetched)
			in.req = append(in.req, clock[c])
			in.thetas = append(in.thetas, theta)
			miss := l1Access(l1[c], line, a.Kind, clock[c])
			round[c].Ready = miss
			round[c].Pending = miss || a.Kind == trace.Write
			round[c].Enqueued = clock[c]
		}
		if !any {
			break
		}
		in.cands = append(in.cands, round...)
	}
	for _, s := range tr.Streams {
		if len(s) > len(in.stream) {
			in.stream = s
		}
	}
	in.stream = in.stream[:min(len(in.stream), kernelAccesses)]
	return in
}

// l1Access is one private-cache access as the simulator's L1 performs it:
// touch on a hit, otherwise evict the victim and fill. It reports a miss.
func l1Access(c *cache.Cache, line uint64, kind trace.Kind, now int64) bool {
	if e := c.Lookup(line); e != nil {
		c.Touch(e)
		return false
	}
	st := cache.Shared
	if kind == trace.Write {
		st = cache.Modified
	}
	v := c.VictimFor(line, nil)
	if v.Valid() {
		c.Invalidate(v)
	}
	c.Fill(v, line, st, now)
	return true
}

// kernel is one layer loop. The reported time is ns/op times scale, so a
// kernel whose op is a whole stream walk reports per access or in ms.
type kernel struct {
	metric string
	scale  float64
	fn     func(b *testing.B)
}

// Sinks keep the compiler from discarding kernel results.
var (
	sinkInt  int64
	sinkLine *coherence.LineInfo
	sinkTime config.Timer
)

type nopHandler struct{}

func (nopHandler) HandleEvent(sim.Cycle, sim.Kind, int32, uint64, uint64) {}

func (in *kernelInput) kernels() []kernel {
	n := len(in.lines)
	notPinned := func(uint64) bool { return false }
	warmDirectory := func() *coherence.Directory {
		d := coherence.NewDirectory()
		for _, l := range in.lines {
			d.Get(l)
		}
		return d
	}
	arbiter := func(metric string, mk func() bus.Arbiter) kernel {
		return kernel{metric, 1, func(b *testing.B) {
			a := mk()
			rounds := len(in.cands) / nCores
			sw := in.plat.Lat.SlotWidth()
			b.ResetTimer()
			r := 0
			for i := 0; i < b.N; i++ {
				// Every round starts on a TDM slot boundary, the only cycles
				// at which TDM grants.
				if w := a.Pick(int64(r)*sw, in.cands[r*nCores:(r+1)*nCores]); w >= 0 {
					a.Served(w)
				}
				if r++; r == rounds {
					r = 0
				}
			}
		}}
	}
	crit := make([]bool, nCores)
	for i := range crit {
		crit[i] = true
	}
	g := in.plat
	return []kernel{
		{"sim.event_ns", 1, func(b *testing.B) {
			e := sim.New()
			e.SetHandler(nopHandler{})
			e.Reserve(2 * kernelQueueDepth)
			for k := 0; k < kernelQueueDepth; k++ {
				e.ScheduleKind(sim.Cycle(in.gaps[k%n]), 0, in.cores[k%n], 0, 0)
			}
			b.ResetTimer()
			j := 0
			for i := 0; i < b.N; i++ {
				e.ScheduleKind(sim.Cycle(in.gaps[j]), 0, in.cores[j], 0, 0)
				e.Step()
				if j++; j == n {
					j = 0
				}
			}
		}},
		{"coherence.directory_get_ns", 1, func(b *testing.B) {
			d := warmDirectory()
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				sinkLine = d.Get(in.lines[j])
				if j++; j == n {
					j = 0
				}
			}
		}},
		{"coherence.directory_peek_ns", 1, func(b *testing.B) {
			d := warmDirectory()
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				sinkLine = d.Peek(in.lines[j])
				if j++; j == n {
					j = 0
				}
			}
		}},
		{"coherence.release_time_ns", 1, func(b *testing.B) {
			for i, j := 0, 0; i < b.N; i++ {
				sinkInt += coherence.ReleaseTime(in.fetched[j], in.req[j], in.thetas[j])
				if j++; j == n {
					j = 0
				}
			}
		}},
		arbiter("bus.pick_ns.rrof", func() bus.Arbiter { return bus.NewRROF(nCores) }),
		arbiter("bus.pick_ns.rr", func() bus.Arbiter { return bus.NewRR(nCores) }),
		arbiter("bus.pick_ns.fcfs", func() bus.Arbiter { return bus.NewFCFS() }),
		arbiter("bus.pick_ns.tdm", func() bus.Arbiter { return bus.NewTDM(crit, g.Lat.SlotWidth(), true) }),
		{"memctrl.llc_fetch_ns", 1, func(b *testing.B) {
			l := memctrl.New(g.LLC, false, g.Lat.DRAM)
			for k, line := range in.lines {
				l.Fetch(line, int64(k), notPinned)
			}
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				p, _ := l.Fetch(in.lines[j], int64(i), notPinned)
				sinkInt += p
				if j++; j == n {
					j = 0
				}
			}
		}},
		{"memctrl.llc_writeback_ns", 1, func(b *testing.B) {
			l := memctrl.New(g.LLC, false, g.Lat.DRAM)
			w := len(in.writeLines)
			for k, line := range in.writeLines {
				l.WriteBack(line, int64(k), notPinned)
			}
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				sinkInt += int64(len(l.WriteBack(in.writeLines[j], int64(i), notPinned)))
				if j++; j == w {
					j = 0
				}
			}
		}},
		{"cache.l1_access_ns", 1, func(b *testing.B) {
			l1 := make([]*cache.Cache, nCores)
			for i := range l1 {
				l1[i] = cache.New(g.L1.SizeBytes, g.L1.LineBytes, g.L1.Ways)
			}
			for k, line := range in.lines {
				l1Access(l1[in.cores[k]], line, in.kinds[k], int64(k))
			}
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				if l1Access(l1[in.cores[j]], in.lines[j], in.kinds[j], int64(i)) {
					sinkInt++
				}
				if j++; j == n {
					j = 0
				}
			}
		}},
		{"analysis.isolation_hits_ns_per_access", 1 / float64(len(in.stream)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h, _ := analysis.IsolationHits(in.stream, g.L1, g.Lat, in.theta)
				sinkInt += h
			}
		}},
		{"analysis.saturation_timer_ms", 1e-6, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkTime, _ = analysis.SaturationTimer(in.stream, g.L1, g.Lat)
			}
		}},
	}
}

// runKernels times every kernel with testing.Benchmark and returns its time
// metric and its allocations per op (<metric>.allocs).
func runKernels(in *kernelInput, benchTime string) (map[string]float64, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchTime); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, k := range in.kernels() {
		r := testing.Benchmark(k.fn)
		if r.N == 0 {
			return nil, fmt.Errorf("kernel %s did not run", k.metric)
		}
		out[k.metric] = float64(r.T.Nanoseconds()) / float64(r.N) * k.scale
		out[k.metric+".allocs"] = float64(r.AllocsPerOp())
	}
	return out, nil
}
