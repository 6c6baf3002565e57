package stats

import (
	"testing"
	"time"
)

func TestWeightedMean(t *testing.T) {
	var m WeightedMean
	if m.Mean() != 0 || m.Duration() != 0 {
		t.Fatal("zero accumulator should report 0")
	}
	m.Add(10, 1)
	m.Add(20, 3)
	if got, want := m.Mean(), 17.5; got != want {
		t.Errorf("Mean() = %v, want %v", got, want)
	}
	// Zero and negative weights contribute nothing.
	m.Add(1e9, 0)
	m.Add(1e9, -2)
	if got := m.Mean(); got != 17.5 {
		t.Errorf("zero-weight Add changed the mean: %v", got)
	}
	var d WeightedMean
	d.AddDuration(100*time.Microsecond, 1)
	d.AddDuration(300*time.Microsecond, 1)
	if got, want := d.Duration(), 200*time.Microsecond; got != want {
		t.Errorf("Duration() = %v, want %v", got, want)
	}
}

func TestMergeHistograms(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 100; i++ {
		a.Record(time.Duration(i) * time.Microsecond)
		b.Record(time.Duration(i) * time.Millisecond)
	}
	merged := MergeHistograms([]*Histogram{a, nil, b})
	if got, want := merged.Count(), a.Count()+b.Count(); got != want {
		t.Fatalf("merged count %d, want %d", got, want)
	}
	if merged.Min() != a.Min() || merged.Max() != b.Max() {
		t.Errorf("merged min/max %v/%v, want %v/%v", merged.Min(), merged.Max(), a.Min(), b.Max())
	}
	if got, want := merged.Mean(), (a.Mean()+b.Mean())/2; got != want {
		t.Errorf("merged mean %v, want %v", got, want)
	}
	// Merging an empty set yields a usable empty histogram, not nil.
	empty := MergeHistograms(nil)
	if empty == nil || empty.Count() != 0 {
		t.Fatalf("MergeHistograms(nil) = %v", empty)
	}
	empty.Record(time.Second) // must not panic: counts must be allocated
}
