package core

import (
	"sort"

	"cohort/internal/coherence"
)

// LineContention summarizes bus traffic on one cache line over a run.
type LineContention struct {
	// Line is the line-granularity address.
	Line uint64
	// Requests counts bus requests (broadcasts) for the line.
	Requests int64
	// Handovers counts ownership transfers sourced from another cache
	// (the coherence traffic the timers arbitrate).
	Handovers int64
	// TimerStalls accumulates cycles requesters spent waiting for timer
	// releases on this line.
	TimerStalls int64
	// Cores is a bitmask of cores that requested the line.
	Cores uint64
}

// Sharers counts the distinct requesting cores.
func (lc LineContention) Sharers() int {
	n := 0
	for m := lc.Cores; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// recordRequest folds one broadcast into the line's contention counters.
func recordRequest(li *coherence.LineInfo, core int) {
	li.Requests++
	li.Requesters |= 1 << uint(core)
}

// recordHandover notes a cache-to-cache ownership transfer and the timer
// wait the requester paid for it (broadcast-to-ready distance).
func recordHandover(li *coherence.LineInfo, wait int64) {
	li.Handovers++
	if wait > 0 {
		li.TimerStalls += wait
	}
}

// contended reports whether the line saw any bus request. A handover always
// follows its own broadcast, so this covers every line with a counter set.
func contended(li *coherence.LineInfo) bool { return li.Requests > 0 }

// TopContended returns the k most requested lines in descending request
// order (ties broken by line address for determinism). Available after Run.
func (s *System) TopContended(k int) []LineContention {
	var out []LineContention
	s.dir.ForEach(func(line uint64, li *coherence.LineInfo) {
		if contended(li) {
			out = append(out, LineContention{
				Line: line, Requests: li.Requests, Handovers: li.Handovers,
				TimerStalls: li.TimerStalls, Cores: li.Requesters,
			})
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Requests != out[j].Requests {
			return out[i].Requests > out[j].Requests
		}
		return out[i].Line < out[j].Line
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
