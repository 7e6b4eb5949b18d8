// Package metrics is a dependency-free metrics layer: atomic counters,
// gauges, log₂-bucketed duration histograms and fixed-bound value
// histograms, collected in a Registry that exposes them in the
// Prometheus text format (version 0.0.4). It exists so every subsystem — the serving pipeline, the
// streaming engine, the durability store — reports through one
// scrape-able surface, and so /stats and /metrics can never disagree:
// both read the same underlying atomics.
//
// Design constraints, in order:
//
//   - Zero dependencies beyond the standard library (the repo bakes in
//     nothing else), and zero allocation on the observation hot path:
//     Counter.Add, Gauge.Set and Histogram.Observe are single atomic
//     operations.
//   - Usable zero values: a Histogram embedded in an engine struct
//     works before (and without) ever being registered, which is how
//     internal/serve keeps its /stats percentiles and its /metrics
//     exposition backed by the same buckets.
//   - Func-backed collectors (CounterFunc/GaugeFunc), so packages that
//     must stay import-clean of this one (core, store) re-register
//     their existing counters through closures instead of migrating.
//
// Histograms are log₂-bucketed over nanoseconds: bucket b counts
// observations d with bits.Len64(d) == b, i.e. d ∈ [2^(b−1), 2^b).
// Sixty-four buckets cover every representable duration, and quantile
// reads report a bucket's upper bound — at most 2× the true quantile,
// the right fidelity for an overload dashboard. Exposition renders the
// bucket bounds in seconds, the Prometheus base unit.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// A Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be ≥ 0; negative deltas are
// a programming error and are dropped to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Gauge is a float metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// A Histogram is a lock-free log₂-bucketed duration histogram. The
// zero value is ready to use.
type Histogram struct {
	buckets [64]atomic.Int64
	sumNS   atomic.Int64
}

// Observe records one duration. Negative durations are dropped.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		return
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.sumNS.Add(ns)
}

// bucketIndex maps a non-negative duration in nanoseconds to its log₂
// bucket — shared by Histogram and its Exemplars sidecar so an
// exemplar always lands in the bucket its observation was counted in.
func bucketIndex(ns int64) int {
	b := bits.Len64(uint64(ns))
	if b > 63 {
		b = 63
	}
	return b
}

// Snapshot reads the histogram's current state. The read is not atomic
// across buckets — concurrent observations can skew a live read by
// their own count, which is fine for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Buckets[i] = c
		s.Total += c
	}
	s.SumNS = h.sumNS.Load()
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram: per-bucket
// (non-cumulative) counts, the observation total, and the sum of all
// observed durations in nanoseconds.
type HistogramSnapshot struct {
	Buckets [64]int64
	Total   int64
	SumNS   int64
}

// Quantile returns the p-quantile (0 < p ≤ 1) in seconds, as the upper
// bound of the bucket holding the rank-⌈p·total⌉ observation; 0 when
// nothing has been observed.
func (s HistogramSnapshot) Quantile(p float64) float64 {
	if s.Total == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(s.Total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b, c := range s.Buckets {
		cum += c
		if cum >= rank {
			return bucketUpperSeconds(b)
		}
	}
	return bucketUpperSeconds(63)
}

// QuantileUS is Quantile in microseconds — the unit the serving
// layer's Stats report.
func (s HistogramSnapshot) QuantileUS(p float64) float64 {
	return s.Quantile(p) * 1e6
}

// bucketUpperSeconds is bucket b's upper bound, 2^b ns, in seconds.
func bucketUpperSeconds(b int) float64 {
	return float64(uint64(1)<<uint(b)) / 1e9
}
