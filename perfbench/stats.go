package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile of sorted values
// (ascending): the smallest value with at least p% of the samples at or
// below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// tailLadder lists the percentiles a tail latency may be reported at, from
// highest to lowest.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailPercentile picks the percentile at which latency_tail_ms is reported
// for n samples: the workload's fixed percentile want when at least
// minBeyond samples lie beyond it, otherwise the highest lower rung of
// tailLadder that has them. It returns 100 (the maximum) when no rung
// qualifies. beyond is the number of samples above the chosen rank.
func tailPercentile(n int, want float64) (p float64, beyond int) {
	for _, q := range tailLadder {
		if q > want {
			continue
		}
		if b := n - rank(n, q); b >= minBeyond {
			return q, b
		}
	}
	return 100, 0
}

// quartiles returns the three cut points of values into four groups with
// the same method as Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), so spreads computed here match the ones an
// external script computes from the same runs. Fewer than two values give
// that value (or zero) for all three.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median of values (the middle quartile cut).
func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}
