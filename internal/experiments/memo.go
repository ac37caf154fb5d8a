package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"cohort/internal/config"
	"cohort/internal/core"
	"cohort/internal/opt"
	"cohort/internal/parallel"
	"cohort/internal/stats"
	"cohort/internal/trace"
)

// The experiment suite re-runs the same cells across runners — Fig. 5 and
// Fig. 6 both simulate PCC on the same traces, every ablation re-simulates
// its baselines, and the GA re-optimizes the same (trace, criticality)
// problems — so the two expensive primitives, runSystem and optimizeTimers,
// are memoized process-wide behind content-addressed keys. Both are pure:
// the same configuration and trace content always produce the same result,
// so serving a cached pointer is observationally identical to recomputing
// (callers treat the results as read-only).
//
// The runners also share their inputs: each generates the traces of its
// profiles, so traceMemo keeps one trace per set of generating parameters
// and fpCache one digest per distinct trace.
//
// The memo is probed by concurrently running cells, so while its totals are
// exact, the hit/miss split can differ run to run when two cells race to
// compute the same key. Rendered experiment output therefore never includes
// these counters; they are reported out-of-band via MemoStats and
// TraceMemoStats.
var (
	runMemo   = parallel.NewCache[string, *stats.Run]()
	optMemo   = parallel.NewCache[string, *opt.Result]()
	traceMemo = parallel.NewCache[traceKey, *trace.Trace]()

	fpMu    sync.Mutex
	fpCache = map[*trace.Trace]string{}
)

// traceKey is everything that defines a generated trace: Profile.Generate
// is a pure function of these four values.
type traceKey struct {
	profile   trace.Profile
	nCores    int
	lineBytes int
	seed      uint64
}

// ResetMemo drops every memoized result and trace. The serial-equivalence
// tests call it between runs so each compares from a cold cache.
func ResetMemo() {
	runMemo.Reset()
	optMemo.Reset()
	traceMemo.Reset()
	fpMu.Lock()
	fpCache = map[*trace.Trace]string{}
	fpMu.Unlock()
}

// MemoStats reports the combined memo counters (simulations + optimizations).
func MemoStats() stats.EngineStats {
	r, o := runMemo.Stats(), optMemo.Stats()
	return stats.EngineStats{
		Jobs:        r.Jobs + o.Jobs,
		CacheHits:   r.CacheHits + o.CacheHits,
		CacheMisses: r.CacheMisses + o.CacheMisses,
	}
}

// TraceMemoStats reports how many traces the process generated and how many
// requests the trace memo served from an earlier generation. Like MemoStats,
// the split is scheduling-dependent under concurrent runners.
func TraceMemoStats() (generated, reused int64) {
	s := traceMemo.Stats()
	return s.CacheMisses, s.CacheHits
}

// generateTrace returns p.Generate(nCores, lineBytes, seed), generating it
// once per process. Generation runs outside the memo's lock, so concurrent
// runners still generate distinct traces in parallel; callers treat the
// shared trace as read-only.
func generateTrace(p trace.Profile, nCores, lineBytes int, seed uint64) *trace.Trace {
	return traceMemo.GetOrCompute(traceKey{p, nCores, lineBytes, seed}, func() *trace.Trace {
		return p.Generate(nCores, lineBytes, seed)
	})
}

// traceFingerprint content-addresses a trace by digesting every access of
// every stream. The digest is cached per *Trace (traces are immutable after
// generation), so each trace is hashed once per process. The bytes hashed
// are exactly those a parallel.Key("experiments/trace") would frame — name,
// stream count, then each stream's length and access records — streamed
// through SHA-256 instead of buffered.
func traceFingerprint(tr *trace.Trace) string {
	fpMu.Lock()
	fp, ok := fpCache[tr]
	fpMu.Unlock()
	if ok {
		return fp
	}
	h := sha256.New()
	var word [8]byte
	putInt := func(v int) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	putStr := func(s string) {
		putInt(len(s))
		io.WriteString(h, s)
	}
	putStr("experiments/trace")
	putStr(tr.Name)
	putInt(len(tr.Streams))
	for _, s := range tr.Streams {
		putInt(len(s))
		trace.HashStream(h, s)
	}
	fp = string(h.Sum(nil))
	fpMu.Lock()
	fpCache[tr] = fp
	fpMu.Unlock()
	return fp
}

// optimizeTimers runs the GA for a scenario: critical cores get optimized
// timers, non-critical cores run MSI. Results are memoized on the trace
// content, the platform width and every result-affecting GA parameter —
// Workers returns byte-identical Results, so the cache key must not
// distinguish it.
func optimizeTimers(o *Options, tr *trace.Trace, critical []bool) (*opt.Result, error) {
	k := parallel.NewKey("experiments/opt")
	k.Str(traceFingerprint(tr))
	k.Int(o.NCores)
	k.Int(len(critical))
	for _, c := range critical {
		k.Bool(c)
	}
	g := o.GA
	k.Int(g.Pop).Int(g.Generations).Int(g.Elite).Int(g.TournamentK)
	k.Float64(g.CrossoverProb).Float64(g.MutationProb).Uint64(g.Seed)
	key := k.Sum()
	if r, ok := optMemo.Get(key); ok {
		progress().AddMemoHits(1)
		return r, nil
	}
	progress().AddMemoMisses(1)

	cfg := config.PaperDefaults(o.NCores, 1)
	prob := &opt.Problem{
		Lat:     cfg.Lat,
		L1:      cfg.L1,
		Streams: tr.Streams,
		Timed:   critical,
	}
	// Strip the deterministic observability hooks before the memoized call:
	// a cache hit skips Optimize entirely, so anything it published would
	// depend on memo state and racing cells. The harness publishes post-hoc
	// instead. The live-progress handle is attached, not stripped — it feeds
	// only the pull-sampled RunTracker, which is scheduling-dependent by
	// contract.
	ga := o.GA
	ga.Metrics, ga.Recorder = nil, nil
	ga.Progress = progress()
	r, err := opt.Optimize(prob, ga)
	if err != nil {
		return nil, err
	}
	optMemo.Put(key, r)
	return r, nil
}

// runSystem simulates one configuration and returns the measurements.
// Results are memoized on the configuration's JSON form plus the trace
// content; the returned *stats.Run is shared and must be treated as
// read-only.
func runSystem(cfg *config.System, tr *trace.Trace) (*stats.Run, error) {
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: fingerprinting config: %w", err)
	}
	key := parallel.NewKey("experiments/run").Bytes(cfgJSON).Str(traceFingerprint(tr)).Sum()
	if run, ok := runMemo.Get(key); ok {
		progress().AddMemoHits(1)
		return run, nil
	}
	progress().AddMemoMisses(1)

	sys, err := core.New(cfg, tr)
	if err != nil {
		return nil, err
	}
	// Thread the live-progress handle into the fresh simulation so the
	// tracker sees events/cycles advance while the run is in flight.
	if err := sys.SetProgress(progress()); err != nil {
		return nil, err
	}
	run, err := sys.Run()
	if err != nil {
		return nil, err
	}
	if err := sys.CheckCoherence(); err != nil {
		return nil, fmt.Errorf("experiments: coherence violated: %w", err)
	}
	runMemo.Put(key, run)
	return run, nil
}
