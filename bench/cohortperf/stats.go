package main

import "sort"

// summary is one metric over the measured repetitions of a workload: the
// median with its quartiles, the sample count and the samples themselves
// (kept so -compare can tell whether every new run beats every base run).
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// summarize computes the median and quartiles of xs. The quartiles follow
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so the spreads this program reports are the ones an external checker
// computes from the same samples.
func summarize(unit string, xs []float64) summary {
	s := summary{Unit: unit, N: len(xs), Samples: append([]float64(nil), xs...)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = median(sorted)
	s.Q1, s.Q3 = quartiles(sorted)
	return s
}

// iqrShare is the distance between the quartiles as a share of the median.
func (s summary) iqrShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// median of an ascending slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles of an ascending slice by the exclusive method: the i-th cut
// point sits at rank i(n+1)/4, interpolated between neighbours and clamped
// to the data. One sample is its own quartiles.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(3)
}
