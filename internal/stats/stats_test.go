package stats

import (
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestWelfordAgainstClosedForm(t *testing.T) {
	var w Welford
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("count = %d", w.Count())
	}
	if w.Mean() != 5 {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	// Sample variance of this classic set is 32/7.
	if got, want := w.Var(), 32.0/7.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("var = %v, want %v", got, want)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Min() != 0 || w.Max() != 0 {
		t.Error("empty welford must read as zeros")
	}
}

func TestWelfordReset(t *testing.T) {
	var w Welford
	w.Add(10)
	w.Reset()
	if w.Count() != 0 || w.Mean() != 0 {
		t.Error("reset did not clear state")
	}
}

func TestEWMAConverges(t *testing.T) {
	e := EWMA{Alpha: 0.3}
	for i := 0; i < 100; i++ {
		e.Add(42)
	}
	if math.Abs(e.Value()-42) > 1e-9 {
		t.Errorf("EWMA of constant = %v, want 42", e.Value())
	}
}

func TestEWMAFirstSampleInitializes(t *testing.T) {
	e := EWMA{Alpha: 0.1}
	e.Add(100)
	if e.Value() != 100 {
		t.Errorf("first sample level = %v, want 100", e.Value())
	}
}

func TestEWMATracksShift(t *testing.T) {
	e := EWMA{Alpha: 0.5}
	e.Add(0)
	for i := 0; i < 20; i++ {
		e.Add(100)
	}
	if e.Value() < 99 {
		t.Errorf("EWMA slow to track: %v", e.Value())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != time.Microsecond || h.Max() != time.Millisecond {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	wantMean := 500500 * time.Nanosecond
	if got := h.Mean(); got != time.Duration(wantMean) {
		t.Errorf("mean = %v, want %v", got, wantMean)
	}
	p50 := h.Quantile(0.5)
	if p50 < 450*time.Microsecond || p50 > 550*time.Microsecond {
		t.Errorf("p50 = %v, want ~500µs", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900*time.Microsecond || p99 > time.Millisecond {
		t.Errorf("p99 = %v, want ~990µs", p99)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
	h.Record(time.Second)
	if h.Quantile(0) != time.Second || h.Quantile(1) != time.Second {
		t.Error("single-sample quantiles must equal the sample")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Record(time.Millisecond)
	b.Record(3 * time.Millisecond)
	a.Merge(b)
	if a.Count() != 2 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Max() != 3*time.Millisecond || a.Min() != time.Millisecond {
		t.Errorf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	if a.Mean() != 2*time.Millisecond {
		t.Errorf("merged mean = %v", a.Mean())
	}
	a.Merge(nil) // must not panic
}

// Property: quantiles are monotone in q and always within [min, max].
func TestHistogramQuantileProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := NewHistogram()
		n := 100 + r.Intn(400)
		for i := 0; i < n; i++ {
			h.Record(time.Duration(1 + r.Int63n(int64(10*time.Second))))
		}
		last := time.Duration(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < h.Min() || v > h.Max() || v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: bucket relative error stays within ~2/subBuckets for values
// across the full range.
func TestHistogramResolutionProperty(t *testing.T) {
	f := func(v uint32) bool {
		d := time.Duration(v) + 1
		h := NewHistogram()
		h.Record(d)
		got := h.Quantile(0.5)
		// Quantile clamps to [min,max]; with one sample it must be exact.
		return got == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// leadingZerosLoop is the bit-at-a-time count histIndex used before
// math/bits.LeadingZeros64, kept as the reference the replacement must
// match.
func leadingZerosLoop(v uint64) int {
	n := 0
	if v == 0 {
		return 64
	}
	for v&(1<<63) == 0 {
		v <<= 1
		n++
	}
	return n
}

// TestHistIndexLeadingZeros: bits.LeadingZeros64 agrees with the former
// loop at every power of two and on either side of it, where the count
// changes, so histIndex picks the same bucket for every duration.
func TestHistIndexLeadingZeros(t *testing.T) {
	for k := 0; k < 64; k++ {
		p := uint64(1) << k
		for _, v := range []uint64{p - 1, p, p + 1} {
			if got, want := bits.LeadingZeros64(v), leadingZerosLoop(v); got != want {
				t.Errorf("LeadingZeros64(%#x) = %d, loop %d", v, got, want)
			}
		}
	}
	if got, want := bits.LeadingZeros64(math.MaxUint64), leadingZerosLoop(math.MaxUint64); got != want {
		t.Errorf("LeadingZeros64(max) = %d, loop %d", got, want)
	}
}

func TestSeriesBasics(t *testing.T) {
	var s Series
	s.Append(0, 0, 10)
	s.Append(1, time.Second, 20)
	s.Append(2, 2*time.Second, 30)
	if s.Mean() != 20 {
		t.Errorf("mean = %v", s.Mean())
	}
	if s.Max() != 30 {
		t.Errorf("max = %v", s.Max())
	}
	if s.Value(1) != 20 || s.Value(99) != 0 {
		t.Error("Value lookup wrong")
	}
}

func TestSeriesSetCSV(t *testing.T) {
	ss := NewSeriesSet("fig")
	ss.Get("WB").Append(0, 0, 1.5)
	ss.Get("WB").Append(1, 0, 2.5)
	ss.Get("LBICA").Append(0, 0, 0.5)
	var sb strings.Builder
	if err := ss.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if lines[0] != "interval,WB,LBICA" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 3 {
		t.Fatalf("rows = %d, want 3:\n%s", len(lines), got)
	}
	if !strings.HasPrefix(lines[1], "0,1.500,0.500") {
		t.Errorf("row 0 = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "1,2.500,") {
		t.Errorf("row 1 = %q", lines[2])
	}
}

func TestPercentChange(t *testing.T) {
	if got := PercentChange(200, 100); got != 50 {
		t.Errorf("PercentChange(200,100) = %v", got)
	}
	if got := PercentChange(0, 100); got != 0 {
		t.Errorf("PercentChange(0,100) = %v", got)
	}
	if got := PercentChange(100, 130); got != -30 {
		t.Errorf("PercentChange(100,130) = %v", got)
	}
}

func TestWelfordDurationHelpers(t *testing.T) {
	var w Welford
	w.AddDuration(time.Millisecond)
	w.AddDuration(3 * time.Millisecond)
	if w.MeanDuration() != 2*time.Millisecond {
		t.Errorf("mean duration = %v", w.MeanDuration())
	}
	if w.MaxDuration() != 3*time.Millisecond {
		t.Errorf("max duration = %v", w.MaxDuration())
	}
	if w.Stddev() <= 0 {
		t.Error("stddev missing")
	}
}

func TestEWMADurationHelpers(t *testing.T) {
	e := EWMA{Alpha: 0.5}
	e.AddDuration(time.Second)
	if e.Duration() != time.Second {
		t.Errorf("duration = %v", e.Duration())
	}
	// After a reset the next sample initializes the level again.
	e.Reset()
	if e.Value() != 0 {
		t.Error("reset failed")
	}
	e.Add(8)
	if e.Value() != 8 {
		t.Errorf("first sample after reset: level %v, want 8", e.Value())
	}
}

func TestHistogramResetAndString(t *testing.T) {
	h := NewHistogram()
	h.Record(time.Second)
	if h.String() == "" {
		t.Error("String empty")
	}
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Min() != 0 {
		t.Error("reset incomplete")
	}
	// Reuse after reset works.
	h.Record(time.Millisecond)
	if h.Count() != 1 || h.Mean() != time.Millisecond {
		t.Error("histogram unusable after reset")
	}
}

func TestHistogramMergeIntoEmpty(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	b.Record(5 * time.Millisecond)
	a.Merge(b)
	if a.Count() != 1 || a.Min() != 5*time.Millisecond {
		t.Errorf("merge into empty: n=%d min=%v", a.Count(), a.Min())
	}
}

func TestSeriesSetNames(t *testing.T) {
	ss := NewSeriesSet("t")
	ss.Get("b")
	ss.Get("a")
	ss.Get("b") // repeat must not duplicate
	names := ss.Names()
	if len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Errorf("names = %v, want creation order [b a]", names)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i%1000000 + 1))
	}
}
