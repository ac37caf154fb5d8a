package experiments

import (
	"testing"

	"cohort/internal/opt"
)

// TestFig5BatchGridEquivalence renders Fig. 5 across the grid Jobs × the
// state of the optimizer's process-wide regime cache (cold: reset before the render;
// warm: filled by the previous render), each from a cold experiment memo.
// The regime cache changes only which queries replay, so every cell must
// render byte-identically and perform the same number of memo jobs. The full
// hit/miss split is compared on the serial cells only — with racing cells
// it is legitimately scheduling-dependent (see memo.go).
func TestFig5BatchGridEquivalence(t *testing.T) {
	render := func(jobs int, cold bool) (string, int64, int64, int64) {
		o := QuickOptions()
		o.Jobs, o.GA.Workers = jobs, jobs
		if cold {
			opt.ResetCurveCache()
		}
		ResetMemo()
		res, err := Fig5(o, "2cr-2ncr")
		if err != nil {
			t.Fatalf("jobs %d cold %v: %v", jobs, cold, err)
		}
		ms := MemoStats()
		return res.Render().String() + res.Summary(), ms.Jobs, ms.CacheHits, ms.CacheMisses
	}
	refOut, refJobs, refHits, refMisses := render(1, true)
	for _, jobs := range []int{1, 8} {
		for _, cold := range []bool{true, false} {
			out, j, h, m := render(jobs, cold)
			if out != refOut {
				t.Errorf("jobs %d cold %v: rendered output differs from the serial cold run", jobs, cold)
			}
			if j != refJobs {
				t.Errorf("jobs %d cold %v: memo jobs %d, want %d", jobs, cold, j, refJobs)
			}
			if jobs == 1 && (h != refHits || m != refMisses) {
				t.Errorf("serial cold %v: memo split (%d,%d), want (%d,%d)", cold, h, m, refHits, refMisses)
			}
		}
	}
}
