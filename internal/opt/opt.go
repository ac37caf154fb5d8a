// Package opt implements the paper's requirement-aware optimization engine
// (§V, Fig. 2a): a genetic algorithm explores the space of timer vectors Θ,
// querying the static cache analysis as a black-box oracle for the
// Θ → M_hit relationship, and minimizes the system's average per-request
// worst-case memory latency subject to the per-task WCML requirements (C1).
//
// The paper used Matlab's GA with default parameters; this is a
// from-scratch, deterministic, stdlib-only equivalent with tournament
// selection, uniform crossover, geometric mutation, and elitism.
//
// Oracle evaluations are independent of each other, so both engines batch
// them through internal/parallel: chromosomes are generated on the
// coordinating goroutine (keeping the RNG stream identical to a serial run),
// deduped against a content-addressed memo-cache, and only the distinct
// misses are fanned out across workers. Results land in index-addressed
// slots, so every Result is byte-identical for every worker count.
package opt

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"cohort/internal/analysis"
	"cohort/internal/config"
	"cohort/internal/obs"
	"cohort/internal/parallel"
	"cohort/internal/stats"
	"cohort/internal/trace"
)

// Problem describes one optimization instance: the platform latencies and
// L1 geometry, the per-core workload streams, which cores receive a
// GA-chosen timer (the rest stay at MSI, θ = −1), and the per-core WCML
// requirements Γ (0 = unconstrained).
type Problem struct {
	// Lat holds the platform latencies (SW, L_hit).
	Lat config.Latencies
	// L1 is the private-cache geometry used by the analysis oracle.
	L1 config.CacheGeometry
	// Streams holds the per-core access streams (Λ_i = len(Streams[i])).
	Streams []trace.Stream
	// Timed marks the cores whose timers the GA optimizes; a false entry
	// fixes that core to θ = −1 (MSI).
	Timed []bool
	// Gamma is the per-core WCML requirement in cycles (0 = none). It is
	// enforced only for timed cores — constraint C1.
	Gamma []int64
}

// msiWeight scales the contribution of non-timed (MSI) cores' Eq.-3 bounds
// to the objective. The paper's objective sums over all cores; taken
// literally with all-miss MSI terms it pushes every timer toward its
// minimum, while ignoring MSI cores entirely lets a lone critical core
// starve its co-runners' average case. This weight keeps the timed cores'
// bounds in charge while pricing the latency their timers impose on
// best-effort cores.
const msiWeight = 0.01

// Validate checks the problem dimensions.
func (p *Problem) Validate() error {
	n := len(p.Streams)
	if n == 0 {
		return fmt.Errorf("opt: no streams")
	}
	if len(p.Timed) != n {
		return fmt.Errorf("opt: Timed has %d entries for %d cores", len(p.Timed), n)
	}
	if p.Gamma != nil && len(p.Gamma) != n {
		return fmt.Errorf("opt: Gamma has %d entries for %d cores", len(p.Gamma), n)
	}
	if p.Lat.Hit < 1 || p.Lat.Req < 1 || p.Lat.Data < 1 {
		return fmt.Errorf("opt: invalid latencies %+v", p.Lat)
	}
	return nil
}

// Timers materializes a full timer vector from a chromosome (one gene per
// timed core, in core order).
func (p *Problem) Timers(genes []config.Timer) []config.Timer {
	out := make([]config.Timer, len(p.Streams))
	g := 0
	for i := range p.Streams {
		if p.Timed[i] {
			out[i] = genes[g]
			g++
		} else {
			out[i] = config.TimerMSI
		}
	}
	return out
}

// numGenes returns the chromosome length.
func (p *Problem) numGenes() int {
	n := 0
	for _, t := range p.Timed {
		if t {
			n++
		}
	}
	return n
}

// Evaluation is the oracle's verdict on one timer vector.
type Evaluation struct {
	// Timers is the full evaluated vector.
	Timers []config.Timer
	// PerCore holds the analytical bound per core at these timers.
	PerCore []analysis.CoreBound
	// Objective is the paper's target: Σ_i WCML_i / Λ_i (average worst-case
	// latency per request, summed over cores).
	Objective float64
	// Violation sums the relative WCML overshoot of violated constraints
	// (0 = feasible).
	Violation float64
}

// Feasible reports whether every requirement is met.
func (e *Evaluation) Feasible() bool { return e.Violation == 0 }

// compiled holds the per-problem invariants of the oracle, hoisted out of
// the per-genome loop: the per-core request counts Λ_i, the resolved MSI
// weight, and the timer-independent part of the WCL bound. With the hoist
// one evaluation is O(n) in the core count instead of O(n²) — WCL_i is
// wclBase + Σ_{θ_j≥0}(θ_j+sw) minus core i's own term, all integer
// arithmetic, so the result is bit-identical to analysis.WCLCoHoRT.
//
// A compiled problem is immutable after compile and safe to share across
// evaluation workers.
type compiled struct {
	p       *Problem
	lambdas []int64
	sw      int64
	wclBase int64
}

func (p *Problem) compile() *compiled {
	n := len(p.Streams)
	c := &compiled{
		p:       p,
		lambdas: make([]int64, n),
		sw:      p.Lat.SlotWidth(),
	}
	for i := range p.Streams {
		c.lambdas[i] = int64(len(p.Streams[i]))
	}
	c.wclBase = c.sw + 2*int64(n-1)*c.sw
	return c
}

// evaluate evaluates one timer vector through private regime sets and
// plans — one compile and one replay per timed core — so one-off
// evaluations leave nothing in the shared cache.
func (c *compiled) evaluate(timers []config.Timer) Evaluation {
	timers = append([]config.Timer(nil), timers...)
	sets := make([]*analysis.RegimeSet, len(timers))
	for i := range sets {
		sets[i] = &analysis.RegimeSet{}
	}
	resolve(c.p, sets, newPlans(c.p), [][]config.Timer{timers}, 1)
	return c.evaluateOwned(timers, sets)
}

// evaluateOwned assembles the Evaluation of a timer vector whose timed
// cores' (MHit, MMiss) splits are all recorded in sets (resolve has run).
// It takes ownership of timers: the slice is stored in the returned
// Evaluation without a defensive copy, so callers must never mutate it
// afterwards.
func (c *compiled) evaluateOwned(timers []config.Timer, sets []*analysis.RegimeSet) Evaluation {
	p := c.p
	n := len(p.Streams)
	ev := Evaluation{
		Timers:  timers,
		PerCore: make([]analysis.CoreBound, n),
	}
	// Timer-dependent part of every core's WCL, computed once per vector.
	var timerSum int64
	for _, th := range timers {
		if th >= 0 {
			timerSum += int64(th) + c.sw
		}
	}
	for i := 0; i < n; i++ {
		b := analysis.CoreBound{Core: i, Theta: timers[i]}
		b.WCL = c.wclBase + timerSum
		if timers[i] >= 0 {
			b.WCL -= int64(timers[i]) + c.sw
		}
		lambda := c.lambdas[i]
		if timers[i].Timed() {
			// The paper's oracle: in-isolation hit analysis (Fig. 2a).
			var ok bool
			if b.MHit, b.MMiss, ok = sets[i].Lookup(timers[i]); !ok {
				panic(fmt.Sprintf("opt: oracle missing core %d θ=%d", i, timers[i]))
			}
			b.WCMLBound = analysis.WCML(b.MHit, b.MMiss, p.Lat.Hit, b.WCL)
		} else {
			b.MMiss = lambda
			b.WCMLBound = analysis.WCMLAllMiss(lambda, b.WCL)
		}
		ev.PerCore[i] = b
		// Timed cores contribute their per-request bound fully, MSI cores
		// at msiWeight.
		if lambda > 0 {
			term := float64(b.WCMLBound) / float64(lambda)
			if p.Timed[i] {
				ev.Objective += term
			} else {
				ev.Objective += msiWeight * term
			}
		}
		// C1: enforced for timed cores with a requirement.
		if timers[i].Timed() && p.Gamma != nil && p.Gamma[i] > 0 && b.WCMLBound > p.Gamma[i] {
			ev.Violation += float64(b.WCMLBound-p.Gamma[i]) / float64(p.Gamma[i])
		}
	}
	return ev
}

// Evaluate computes the objective and constraint state of a timer vector.
func (p *Problem) Evaluate(timers []config.Timer) Evaluation {
	return p.compile().evaluate(timers)
}

// fitness folds constraint violations into a single minimized scalar: any
// infeasible point ranks strictly worse than every feasible one.
func fitness(ev *Evaluation) float64 {
	if ev.Violation == 0 {
		return ev.Objective
	}
	return 1e18 * (1 + ev.Violation)
}

// evaluator runs oracle evaluations for one optimization run: a compiled
// problem, a worker count, the per-core regime sets and plans of the exact
// oracle, and a content-addressed memo-cache keyed by the timer vector, so a
// genome that reappears (elites, converged populations, revisited neighbors)
// is never recomputed.
type evaluator struct {
	p       *Problem
	c       *compiled
	workers int
	// sets[i] is timed core i's regime set (nil for untimed cores), shared
	// process-wide through curveMemo.
	sets []*analysis.RegimeSet
	// plans[i] replays timed core i's stream for this run only (nil for
	// untimed cores).
	plans []*analysis.Plan
	// evalCache is the genome-level memo (keyed by the raw genome key of the
	// gene vector). Every probe and store happens on the coordinator
	// goroutine, so a plain map with explicit counters stands in for
	// parallel.Cache with identical counter semantics — and lets the probe
	// reuse keyBuf without materializing a key string per genome.
	evalCache              map[string]Evaluation
	cacheHits, cacheMisses int64
	// keyBuf is the reusable genome-key scratch buffer; only the coordinator
	// touches it.
	keyBuf []byte
	// computed counts oracle evaluations actually performed (cache misses
	// deduped within each batch); replays counts the regime replays the
	// evaluations needed.
	computed, replays int
	// progress, when non-nil, receives live memo-hit/miss and replay counts
	// (obs.RunTracker). Bumped only on the serial coordinator goroutine,
	// after parallel sections merge.
	progress *obs.RunHandle
}

func newEvaluator(p *Problem, workers int, progress *obs.RunHandle) *evaluator {
	return &evaluator{
		p:         p,
		c:         p.compile(),
		workers:   workers,
		sets:      regimeSets(p),
		plans:     newPlans(p),
		evalCache: make(map[string]Evaluation, 256),
		progress:  progress,
	}
}

// engineStats reports the genome-cache probe counters in the same shape as
// parallel.Cache.Stats: every probe is a job, split into hits and misses.
func (e *evaluator) engineStats() stats.EngineStats {
	return stats.EngineStats{
		Jobs:        e.cacheHits + e.cacheMisses,
		CacheHits:   e.cacheHits,
		CacheMisses: e.cacheMisses,
	}
}

// genomeKey builds the memo-cache key of a timer vector (the evaluator keys
// on the gene vector — the untimed cores are fixed for the run, so genes
// alone address the evaluation). The key is a raw injective byte string —
// the domain prefix followed by each timer as a fixed-width little-endian
// word — rather than a digest: the keys live only in the evaluator's private
// cache, so collision resistance buys nothing and hashing is pure overhead
// on the hot path. Fixed-width words keep distinct vectors distinct, and the
// overall length separates a vector from its prefixes.
func genomeKey(timers []config.Timer) string {
	return string(appendGenomeKey(make([]byte, 0, len(genomeKeyDomain)+4*len(timers)), timers))
}

// appendGenomeKey appends the genome key of timers to buf and returns the
// extended buffer — the allocation-free core of genomeKey, fed by the
// evaluator's reusable scratch buffer.
func appendGenomeKey(buf []byte, timers []config.Timer) []byte {
	buf = append(buf, genomeKeyDomain...)
	for _, th := range timers {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(th))
	}
	return buf
}

const genomeKeyDomain = "opt/eval"

// batch evaluates one chromosome batch and returns the evaluations in
// submission order. Every cache probe happens here, on the calling
// goroutine, before anything is dispatched: repeats — within the batch or
// across generations — are deduped up front, so the hit/miss counters and
// the set of computed jobs are a pure function of the genome sequence,
// identical for every worker count.
func (e *evaluator) batch(genomes [][]config.Timer) []Evaluation {
	out := make([]Evaluation, len(genomes))
	// slot[i] is the job index computing out[i], or -1 when cached.
	slot := make([]int, len(genomes))
	var jobs [][]config.Timer
	var jobKeys []string
	var cached int64
	queued := make(map[string]int, len(genomes))
	for i, g := range genomes {
		// Probe with the scratch buffer; map access through string(buf) does
		// not allocate, so only fresh genomes materialize a key string. The
		// timer vector is materialized lazily too — cache hits skip it.
		e.keyBuf = appendGenomeKey(e.keyBuf[:0], g)
		if v, ok := e.evalCache[string(e.keyBuf)]; ok {
			out[i], slot[i] = v, -1
			e.cacheHits++
			cached++
			continue
		}
		e.cacheMisses++
		if j, ok := queued[string(e.keyBuf)]; ok {
			slot[i] = j
			continue
		}
		key := string(e.keyBuf)
		queued[key] = len(jobs)
		slot[i] = len(jobs)
		jobs = append(jobs, e.p.Timers(g))
		jobKeys = append(jobKeys, key)
	}
	// Resolve every (core, θ) pair the fresh genomes need, then assemble the
	// evaluations serially from the regime sets: pure integer/float
	// arithmetic in a fixed per-core order, identical for every worker count.
	replays := resolve(e.p, e.sets, e.plans, jobs, e.workers)
	e.replays += replays
	e.progress.AddReplays(int64(replays))
	results := make([]Evaluation, len(jobs))
	for j := range jobs {
		results[j] = e.c.evaluateOwned(jobs[j], e.sets)
	}
	for j := range jobKeys {
		e.evalCache[jobKeys[j]] = results[j]
	}
	e.computed += len(jobs)
	e.progress.AddMemoHits(cached)
	e.progress.AddMemoMisses(int64(len(jobs)))
	for i := range genomes {
		if slot[i] >= 0 {
			out[i] = results[slot[i]]
		}
	}
	return out
}

// GAConfig tunes the genetic algorithm. DefaultGA mirrors a conventional
// small-population setup.
type GAConfig struct {
	// Pop is the population size.
	Pop int
	// Generations is the number of evolution rounds.
	Generations int
	// Elite is the number of best individuals copied unchanged.
	Elite int
	// TournamentK is the tournament selection size.
	TournamentK int
	// CrossoverProb is the per-offspring probability of uniform crossover.
	CrossoverProb float64
	// MutationProb is the per-gene mutation probability.
	MutationProb float64
	// Seed makes runs deterministic.
	Seed uint64
	// Workers caps the evaluation worker pool: 1 forces the serial path,
	// anything below 1 selects runtime.NumCPU(). The Result is byte-identical
	// for every value.
	Workers int
	// Metrics, when non-nil, receives the optimizer's end-of-run counters
	// (runs, evaluations, memo-engine totals, best fitness). Purely
	// observational: it never affects the Result. The experiment harness
	// strips it before memoized Optimize calls so cached and fresh results
	// publish identically.
	Metrics *obs.Registry
	// Recorder, when non-nil, receives one span per GA generation
	// (timestamped by generation index under obs.PidOpt). Purely
	// observational, like Metrics.
	Recorder *obs.Recorder
	// Progress, when non-nil, receives live pull-sampled progress: the
	// planned and completed generation counts, memo-cache hits/misses, and
	// completed oracle replays (obs.RunTracker). Purely observational,
	// like Metrics: samples are scheduling-dependent and never affect the
	// Result. Unlike Metrics and Recorder it survives the experiment
	// harness's memoization strip — live progress is allowed to depend on
	// memo state, canonical output is not.
	Progress *obs.RunHandle
}

// AppendKey appends the seven fields that determine a Result to k, in a
// fixed order, for the config and memo keys built around an optimization.
// Workers, Metrics, Recorder and Progress are left out: they never change
// the Result, so runs that differ only in them share a key.
func (gc GAConfig) AppendKey(k *parallel.Key) {
	k.Int(gc.Pop).Int(gc.Generations).Int(gc.Elite).Int(gc.TournamentK)
	k.Float64(gc.CrossoverProb).Float64(gc.MutationProb).Uint64(gc.Seed)
}

// DefaultGA returns the parameters used by the experiment harness.
func DefaultGA(seed uint64) GAConfig {
	return GAConfig{
		Pop:           32,
		Generations:   40,
		Elite:         2,
		TournamentK:   3,
		CrossoverProb: 0.9,
		MutationProb:  0.25,
		Seed:          seed,
	}
}

// Result is the optimizer's output.
type Result struct {
	// Timers is the best full timer vector found.
	Timers []config.Timer
	// Eval is the evaluation of Timers.
	Eval Evaluation
	// ThetaIS is the per-gene search upper bound θ_is (core order over
	// timed cores).
	ThetaIS []config.Timer
	// BestHistory records the best fitness per generation.
	BestHistory []float64
	// Evaluations counts the oracle evaluations actually computed; genomes
	// repeated across the run are served by the memo-cache and counted once.
	Evaluations int
	// Engine reports the memo-cache counters (requests, hits, misses). The
	// coordinator probes the cache serially, so these are deterministic and
	// identical for every Workers value. Note CacheMisses can exceed
	// Evaluations: a genome repeated inside one batch misses twice but is
	// computed once.
	Engine stats.EngineStats
}

// Optimize runs the GA and returns the best timer vector found. With no
// timed cores it returns the all-MSI vector immediately.
//
// Chromosome generation (all RNG use) happens on the calling goroutine in
// the same order as a serial run; only the deduped oracle evaluations are
// dispatched to workers. Optimize therefore returns a byte-identical Result
// for every GAConfig.Workers value.
//
//cohort:hotpath determinism
func Optimize(p *Problem, gc GAConfig) (*Result, error) {
	res, _, err := optimize(p, gc)
	return res, err
}

// optimize is Optimize that also returns its evaluator (nil when there are no
// timed cores), so tests can audit every evaluation the run computed.
func optimize(p *Problem, gc GAConfig) (*Result, *evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if gc.Pop < 2 || gc.Generations < 1 {
		return nil, nil, fmt.Errorf("opt: degenerate GA config %+v", gc)
	}
	if gc.Elite >= gc.Pop {
		return nil, nil, fmt.Errorf("opt: elite %d must be below population %d", gc.Elite, gc.Pop)
	}
	nGenes := p.numGenes()
	res := &Result{}
	if nGenes == 0 {
		timers := p.Timers(nil)
		ev := p.Evaluate(timers)
		res.Timers = timers
		res.Eval = ev
		res.Evaluations = 1
		publishMetrics(gc.Metrics, res)
		return res, nil, nil
	}

	oracle := newEvaluator(p, gc.Workers, gc.Progress)
	gc.Progress.SetGenerations(int64(gc.Generations))

	// Per-gene upper bounds: θ_is from the saturation sweep (§V), answered
	// through the same regime sets the evaluations use.
	res.ThetaIS = thetaIS(p, oracle.sets, oracle.plans, gc.Workers)

	rng := trace.NewRNG(gc.Seed ^ 0x6f7074) // "opt"
	randGene := func(g int) config.Timer {
		hi := int64(res.ThetaIS[g])
		// Log-uniform draw over [1, θ_is] so small timers are explored.
		u := rng.Float64()
		v := math.Exp(u * math.Log(float64(hi)))
		th := config.Timer(v)
		if th < 1 {
			th = 1
		}
		if th > res.ThetaIS[g] {
			th = res.ThetaIS[g]
		}
		return th
	}

	type indiv struct {
		genes []config.Timer
		ev    Evaluation
		fit   float64
	}
	evalAll := func(genomes [][]config.Timer) []indiv {
		evs := oracle.batch(genomes)
		out := make([]indiv, len(genomes))
		for i := range genomes {
			out[i] = indiv{genes: genomes[i], ev: evs[i], fit: fitness(&evs[i])}
		}
		return out
	}
	genomes := make([][]config.Timer, gc.Pop)
	for i := range genomes {
		genes := make([]config.Timer, nGenes)
		for g := range genes {
			switch {
			case i == 0:
				genes[g] = 1 // minimal timers: lowest interference
			case i == 1:
				genes[g] = res.ThetaIS[g] // saturated hits
			default:
				genes[g] = randGene(g)
			}
		}
		genomes[i] = genes
	}
	pop := evalAll(genomes)

	best := pop[0]
	for i := range pop {
		if pop[i].fit < best.fit {
			best = pop[i]
		}
	}

	tournament := func() indiv {
		w := pop[rng.Intn(len(pop))]
		for k := 1; k < gc.TournamentK; k++ {
			c := pop[rng.Intn(len(pop))]
			if c.fit < w.fit {
				w = c
			}
		}
		return w
	}

	for gen := 0; gen < gc.Generations; gen++ {
		next := make([]indiv, 0, gc.Pop)
		// Elitism: keep the best individuals (selection sort over a copy).
		order := make([]int, len(pop))
		for i := range order {
			order[i] = i
		}
		for e := 0; e < gc.Elite; e++ {
			bi := e
			for j := e + 1; j < len(order); j++ {
				if pop[order[j]].fit < pop[order[bi]].fit {
					bi = j
				}
			}
			order[e], order[bi] = order[bi], order[e]
			next = append(next, pop[order[e]])
		}
		// Selection and variation draw only from the previous generation's
		// pop and the RNG, never from an evaluation of this generation, so
		// all children can be bred first and evaluated as one batch.
		children := make([][]config.Timer, 0, gc.Pop-len(next))
		for len(next)+len(children) < gc.Pop {
			a, b := tournament(), tournament()
			child := make([]config.Timer, nGenes)
			if rng.Float64() < gc.CrossoverProb {
				for g := range child {
					if rng.Float64() < 0.5 {
						child[g] = a.genes[g]
					} else {
						child[g] = b.genes[g]
					}
				}
			} else {
				copy(child, a.genes)
			}
			for g := range child {
				if rng.Float64() < gc.MutationProb {
					// Geometric step around the current value, or a fresh
					// log-uniform draw 20% of the time.
					if rng.Float64() < 0.2 {
						child[g] = randGene(g)
					} else {
						factor := 0.5 + rng.Float64()*1.5
						v := config.Timer(float64(child[g]) * factor)
						if v < 1 {
							v = 1
						}
						if v > res.ThetaIS[g] {
							v = res.ThetaIS[g]
						}
						child[g] = v
					}
				}
			}
			children = append(children, child)
		}
		next = append(next, evalAll(children)...)
		pop = next
		for i := range pop {
			if pop[i].fit < best.fit {
				best = pop[i]
			}
		}
		res.BestHistory = append(res.BestHistory, best.fit)
		gc.Progress.SetGeneration(int64(gen + 1))
		if gc.Recorder != nil {
			gc.Recorder.Complete(obs.PidOpt, 0, fmt.Sprintf("generation %d", gen), "ga",
				int64(gen), 1, map[string]string{
					"best_fitness": strconv.FormatFloat(best.fit, 'g', -1, 64),
					"children":     strconv.Itoa(len(pop) - gc.Elite),
				})
		}
	}

	res.Timers = p.Timers(best.genes)
	res.Eval = best.ev
	res.Evaluations = oracle.computed
	res.Engine = oracle.engineStats()
	publishMetrics(gc.Metrics, res)
	return res, oracle, nil
}

// publishMetrics folds one Optimize run's counters into a registry. The
// counters accumulate across runs sharing the registry; the gauges describe
// the most recent run. Callers invoke Optimize in a deterministic order, so
// the published totals are deterministic too. No-op on a nil registry.
func publishMetrics(reg *obs.Registry, res *Result) {
	if reg == nil {
		return
	}
	// Publish under the registry's Sync lock so a concurrent live scrape
	// (the debug server's /metrics) sees either none or all of this run's
	// counters.
	reg.Sync(func() {
		reg.Counter("opt_runs_total").Inc()
		reg.Counter("opt_evaluations_total").Add(int64(res.Evaluations))
		reg.Counter("opt_engine_jobs_total").Add(res.Engine.Jobs)
		reg.Counter("opt_engine_cache_hits_total").Add(res.Engine.CacheHits)
		reg.Counter("opt_engine_cache_misses_total").Add(res.Engine.CacheMisses)
		reg.Gauge("opt_generations").Set(int64(len(res.BestHistory)))
		if n := len(res.BestHistory); n > 0 {
			reg.FloatGauge("opt_best_fitness").Set(res.BestHistory[n-1])
		}
	})
}
