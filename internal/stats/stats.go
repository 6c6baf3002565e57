// Package stats provides the metric primitives the monitors and experiment
// harness build on: running mean/variance (Welford), exponentially weighted
// moving averages, log-bucketed latency histograms with quantiles, and
// per-interval time series.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Welford accumulates a running mean and variance in one pass. The zero
// value is an empty accumulator ready to use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation in.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// AddDuration folds a duration in as nanoseconds.
func (w *Welford) AddDuration(d time.Duration) { w.Add(float64(d)) }

// Count returns the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// MeanDuration returns the mean as a duration.
func (w *Welford) MeanDuration() time.Duration { return time.Duration(w.mean) }

// Var returns the unbiased sample variance (0 for fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest observation (0 when empty).
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return 0
	}
	return w.min
}

// Max returns the largest observation (0 when empty).
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return 0
	}
	return w.max
}

// MaxDuration returns Max as a duration.
func (w *Welford) MaxDuration() time.Duration { return time.Duration(w.Max()) }

// Reset empties the accumulator.
func (w *Welford) Reset() { *w = Welford{} }

// EWMA is an exponentially weighted moving average. Alpha in (0,1] is the
// weight of each new sample; the first sample initializes the level.
type EWMA struct {
	Alpha float64
	level float64
	seen  bool
}

// Add folds one observation in.
func (e *EWMA) Add(x float64) {
	if !e.seen {
		e.level = x
		e.seen = true
		return
	}
	e.level = e.Alpha*x + (1-e.Alpha)*e.level
}

// AddDuration folds a duration in as nanoseconds.
func (e *EWMA) AddDuration(d time.Duration) { e.Add(float64(d)) }

// Value returns the current level (0 before any sample).
func (e *EWMA) Value() float64 { return e.level }

// Duration returns the level as a duration.
func (e *EWMA) Duration() time.Duration { return time.Duration(e.level) }

// Reset clears the level.
func (e *EWMA) Reset() { e.level, e.seen = 0, false }

// Histogram is a log-bucketed latency histogram covering [1ns, ~18h] with
// a fixed number of sub-buckets per power of two, HDR-histogram style. It
// trades a bounded relative error (~1/subBuckets) for O(1) record and
// O(buckets) quantile.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    float64
	max    time.Duration
	min    time.Duration
}

const histSubBuckets = 32 // per power of two; ~3% relative error

func histBucketCount() int { return 64 * histSubBuckets }

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, histBucketCount())}
}

func histIndex(d time.Duration) int {
	if d < 1 {
		d = 1
	}
	v := uint64(d)
	exp := 63 - bits.LeadingZeros64(v)
	var sub uint64
	if exp > 5 {
		sub = (v >> (uint(exp) - 5)) & (histSubBuckets - 1)
	} else {
		sub = v & (histSubBuckets - 1)
	}
	idx := exp*histSubBuckets + int(sub)
	if idx >= histBucketCount() {
		idx = histBucketCount() - 1
	}
	return idx
}

// bucketLow returns the smallest duration that maps to bucket idx.
func bucketLow(idx int) time.Duration {
	exp := idx / histSubBuckets
	sub := idx % histSubBuckets
	if exp <= 5 {
		// Degenerate small range where values map near-directly.
		return time.Duration(uint64(exp)<<5 | uint64(sub))
	}
	base := uint64(1) << uint(exp)
	return time.Duration(base | uint64(sub)<<(uint(exp)-5))
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	if h.total == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.counts[histIndex(d)]++
	h.total++
	h.sum += float64(d)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the exact mean of recorded values (not bucket-quantized).
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.sum / float64(h.total))
}

// Max returns the largest recorded value, exact.
func (h *Histogram) Max() time.Duration { return h.max }

// Min returns the smallest recorded value, exact.
func (h *Histogram) Min() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Quantile returns an approximation of the q-quantile (q in [0,1]). The
// result carries the bucket's lower-bound resolution (~3% relative error).
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			lo := bucketLow(i)
			if lo < h.min {
				lo = h.min
			}
			if lo > h.max {
				lo = h.max
			}
			return lo
		}
	}
	return h.max
}

// Merge folds another histogram into this one.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
}

// Reset empties the histogram.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum, h.max, h.min = 0, 0, 0, 0
}

func (h *Histogram) String() string {
	return fmt.Sprintf("hist(n=%d mean=%v p50=%v p99=%v max=%v)",
		h.total, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.max)
}

// tTable95 holds the two-sided 95% Student-t critical values for 1..30
// degrees of freedom; past the table the normal-approximation 1.96 is
// close enough (the n=31 value is 2.040).
var tTable95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// HalfWidth95 returns the half-width of the two-sided 95% Student-t
// confidence interval for the mean of vals: t(n−1) · s/√n with s the
// sample standard deviation. Fewer than two values carry no interval —
// the half-width is +Inf, so a "tight enough?" comparison against any
// finite tolerance is false.
func HalfWidth95(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return math.Inf(1)
	}
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(n)
	ss := 0.0
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	t := 1.96
	if df := n - 1; df <= len(tTable95) {
		t = tTable95[df-1]
	}
	return t * math.Sqrt(ss/float64(n-1)) / math.Sqrt(float64(n))
}
