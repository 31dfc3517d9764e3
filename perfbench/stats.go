package main

import (
	"math"
	"sort"
	"time"
)

// summary describes one metric's samples: what the results file records
// next to every metric value.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
}

// summarize returns the sample count, median, quartiles and minimum of
// xs. The quartiles follow Python's statistics.quantiles(xs, n=4) with
// its default exclusive method, so spreads computed here agree with
// the ones an external script computes from the same values.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	return summary{N: len(s), Median: median(s), Q1: q1, Q3: q3, Min: s[0]}
}

// median of sorted data (mean of the middle two for even sizes).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles of sorted data by Python's exclusive method, including its
// clamping of the cut points to the inner samples, which extrapolates
// when there are fewer than three samples.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// percentile returns the p-th percentile (0..100) of sorted data by the
// nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// spread is the interquartile distance as a share of the median.
func spread(s summary) float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// hitRate is hits/(hits+misses), 0 with no lookups.
func hitRate(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}
