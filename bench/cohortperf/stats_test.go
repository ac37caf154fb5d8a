package main

import (
	"math"
	"testing"
)

// The expected values are Python's statistics.median and
// statistics.quantiles(xs, n=4) on the same samples.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs             []float64
		median, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 3, 1.5, 4.5},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{2.5, 1.0}, 1.75, 0.625, 2.875},
		{[]float64{1.2, 0.9, 1.1, 1.0, 1.3, 0.95, 1.05, 1.15, 1.25, 1.0}, 1.075, 0.9875, 1.2125},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize("s", c.xs)
		if !near(s.Median, c.median) || !near(s.Q1, c.q1) || !near(s.Q3, c.q3) || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = median %v q1 %v q3 %v n %d, want %v %v %v %d",
				c.xs, s.Median, s.Q1, s.Q3, s.N, c.median, c.q1, c.q3, len(c.xs))
		}
	}
}

func TestSummarizeKeepsSampleOrder(t *testing.T) {
	xs := []float64{3, 1, 2}
	s := summarize("s", xs)
	if s.Samples[0] != 3 || xs[0] != 3 {
		t.Errorf("samples reordered: %v (input %v)", s.Samples, xs)
	}
	if got := s.iqrShare(); !near(got, 1) {
		t.Errorf("iqrShare = %v, want 1", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
