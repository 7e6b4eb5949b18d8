package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by the
// nearest-rank rule on a sorted copy: the smallest value with at least
// q·len(xs) samples at or below it. It returns 0 for empty input.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, q)
}

func sortedPercentile(s []float64, q float64) float64 {
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// median is percentile(xs, 0.5) with the two middle values averaged on
// even counts, matching Python's statistics.median — the rule the
// acceptance procedure applies to this program's output.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// fiveNumbers formats min, quartiles and max of xs for the run report.
func fiveNumbers(xs []float64) string {
	return fmt.Sprintf("[%.4g %.4g %.4g %.4g %.4g]", percentile(xs, 0), percentile(xs, 0.25), percentile(xs, 0.5), percentile(xs, 0.75), percentile(xs, 1))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPermille are the candidates of highestSupported, ascending, in
// thousandths so the sample arithmetic stays exact.
var tailPermille = []int{500, 900, 950, 990, 999}

// highestSupported returns the highest of p50, p90, p95, p99 and p99.9
// that still has at least ten samples beyond it among n samples (a
// percentile resting on fewer is an anecdote, not a statistic), or 0
// when not even the median has.
func highestSupported(n int) float64 {
	best := 0.0
	for _, q := range tailPermille {
		if n*(1000-q) >= 10*1000 {
			best = float64(q) / 1000
		}
	}
	return best
}

// windowStat splits xs, in arrival order, into k equal sub-windows
// (dropping the remainder at the tail), applies f to each, and returns
// the median of the k results. One disturbed sub-window — a noisy
// neighbour on a shared box — therefore cannot move the reported
// value. With fewer than k samples it applies f to all of xs.
func windowStat(xs []float64, k int, f func([]float64) float64) float64 {
	if k < 1 || len(xs) < k {
		return f(xs)
	}
	w := len(xs) / k
	out := make([]float64, k)
	for i := range out {
		out[i] = f(xs[i*w : (i+1)*w])
	}
	return median(out)
}

// windowPercentile is the median over k sub-windows of their q-quantile.
func windowPercentile(xs []float64, k int, q float64) float64 {
	return windowStat(xs, k, func(x []float64) float64 { return percentile(x, q) })
}

// spread is the acceptance procedure's steadiness figure: the distance
// between the first and third quartile of xs as a share of their
// median, with the quartiles of Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method). It needs at least two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quart := func(i int) float64 { // i-th of the 3 cut points
		n := len(s)
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := median(s)
	if m == 0 {
		return math.Inf(1)
	}
	return (quart(3) - quart(1)) / math.Abs(m)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
