package stats

import "fmt"

// EngineStats aggregates the counters of the parallel evaluation engine and
// its memo-cache: how many evaluations were requested, and how many of those
// were served from the content-addressed cache instead of being recomputed.
// The counters measure work avoided — the cache's contribution to speedup —
// independently of wall-clock time, which simulator code must not read
// (internal/lint walltime); measured wall-clock speedups live in the
// committed benchmark pairs (BENCH_prNN.parent.json and BENCH_prNN.json,
// judged by bench/run.sh -compare).
//
// When every cache probe happens on the coordinating goroutine (the
// optimizer's batch evaluator dedupes before dispatching), the counters are
// fully deterministic and identical for every worker count. Caches probed
// concurrently (the experiments' process-wide memo) keep exact totals but may
// split them between hits and misses differently from run to run when two
// cells race to compute the same key; deterministic outputs therefore never
// include those counters.
type EngineStats struct {
	// Jobs is the number of evaluations requested (cache hits + misses).
	Jobs int64
	// CacheHits counts requests served from the memo-cache.
	CacheHits int64
	// CacheMisses counts requests that had to be computed.
	CacheMisses int64
}

// CacheHitRate returns CacheHits/Jobs (0 when idle).
func (e EngineStats) CacheHitRate() float64 {
	if e.Jobs == 0 {
		return 0
	}
	return float64(e.CacheHits) / float64(e.Jobs)
}

// String renders the counters compactly.
func (e EngineStats) String() string {
	return fmt.Sprintf("%d evaluations (%d computed, %d memo hits, %.1f%% hit rate)",
		e.Jobs, e.CacheMisses, e.CacheHits, 100*e.CacheHitRate())
}
