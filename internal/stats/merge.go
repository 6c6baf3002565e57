package stats

import "time"

// Merge/reduce primitives for combining per-shard statistics into
// array-level aggregates. Every reducer here folds in the order its input
// slice presents — callers that need permutation-invariant output (the
// array layer's per-volume merge) sort their inputs by a stable key first,
// which turns "deterministic for one order" into "identical bytes for any
// order".

// WeightedMean accumulates value×weight pairs — the reducer behind
// array-level latency averages, where each volume's per-interval mean must
// count in proportion to how many requests it served. The zero value is an
// empty accumulator ready to use.
type WeightedMean struct {
	sum    float64
	weight float64
}

// Add folds in one value with the given non-negative weight. Zero-weight
// observations contribute nothing (an idle volume's "mean of no requests"
// must not drag the array mean toward zero).
func (m *WeightedMean) Add(v, weight float64) {
	if weight <= 0 {
		return
	}
	m.sum += v * weight
	m.weight += weight
}

// AddDuration folds a duration in as nanoseconds.
func (m *WeightedMean) AddDuration(d time.Duration, weight float64) {
	m.Add(float64(d), weight)
}

// Mean returns the weighted mean (0 when no weight has been added).
func (m *WeightedMean) Mean() float64 {
	if m.weight == 0 {
		return 0
	}
	return m.sum / m.weight
}

// Duration returns the weighted mean as a duration.
func (m *WeightedMean) Duration() time.Duration { return time.Duration(m.Mean()) }

// MergeHistograms folds a set of histograms into a fresh one, skipping nil
// entries. The fold runs in slice order; histogram merging sums counts and
// float totals, so for inputs pre-sorted by a stable key the result is
// identical whatever order the histograms were produced in.
func MergeHistograms(hs []*Histogram) *Histogram {
	out := NewHistogram()
	for _, h := range hs {
		out.Merge(h)
	}
	return out
}
