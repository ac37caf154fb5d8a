package opt

import (
	"fmt"
	"reflect"
	"testing"

	"cohort/internal/config"
)

// BenchmarkOptimize measures the GA on the default problem shape (population
// 20 × 16 generations) across worker counts, with the shared regime cache
// cold (reset before every iteration: each query the sets cannot answer
// costs one replay) and warm (every regime already recorded: each query is
// a binary search). Every cell's Result is asserted byte-identical to the
// first, so the benchmark doubles as an equivalence check at full problem
// size.
//
//	go test -bench Optimize -benchtime 3x ./internal/opt
func BenchmarkOptimize(b *testing.B) {
	p := problemFor("fft", 0.01, []bool{true, true, true, true})
	var baseline *Result
	for _, cache := range []string{"cold", "warm"} {
		for _, workers := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("j=%d/%s", workers, cache)
			b.Run(name, func(b *testing.B) {
				gc := DefaultGA(42)
				gc.Pop, gc.Generations = 20, 16
				gc.Workers = workers
				if cache == "warm" {
					if _, err := Optimize(p, gc); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				var last *Result
				for i := 0; i < b.N; i++ {
					if cache == "cold" {
						ResetCurveCache()
					}
					res, err := Optimize(p, gc)
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				if baseline == nil {
					baseline = last
				} else if !reflect.DeepEqual(baseline, last) {
					b.Fatalf("%s result differs from the j=1 cold baseline", name)
				}
			})
		}
	}
}

// BenchmarkEvaluateCompiled isolates the hoisted single-vector oracle (the
// satellite fix: the timer-independent WCL terms are computed once per
// vector); contrast with BenchmarkEvaluate, which pays compile() per call.
func BenchmarkEvaluateCompiled(b *testing.B) {
	p := problemFor("fft", 0.01, []bool{true, true, true, true})
	c := p.compile()
	tv := p.Timers([]config.Timer{50, 500, 1139, 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.evaluate(tv)
	}
}
