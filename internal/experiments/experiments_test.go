package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"lbica/internal/array"
	"lbica/internal/cache"
	"lbica/internal/workload"
)

// The full 3×3 matrix takes a few seconds; share one across all tests.
var (
	matrixOnce sync.Once
	matrix     Matrix
)

func sharedMatrix(t *testing.T) Matrix {
	if testing.Short() {
		t.Skip("matrix runs skipped in -short mode")
	}
	matrixOnce.Do(func() { matrix = RunMatrix(1, 1) })
	return matrix
}

func TestMatrixConservation(t *testing.T) {
	m := sharedMatrix(t)
	for _, wl := range Workloads {
		for _, sc := range Schemes {
			res := m[wl][sc]
			if res.AppSubmitted == 0 {
				t.Fatalf("%s/%s: no requests", wl, sc)
			}
			if res.AppCompleted != res.AppSubmitted {
				t.Errorf("%s/%s: completed %d of %d", wl, sc, res.AppCompleted, res.AppSubmitted)
			}
			if len(res.Samples) != PaperIntervals(wl) {
				t.Errorf("%s/%s: %d samples, want %d", wl, sc, len(res.Samples), PaperIntervals(wl))
			}
		}
	}
}

func TestSchemesSeeIdenticalWorkload(t *testing.T) {
	m := sharedMatrix(t)
	for _, wl := range Workloads {
		base := m[wl][SchemeWB].AppSubmitted
		for _, sc := range Schemes {
			if got := m[wl][sc].AppSubmitted; got != base {
				t.Errorf("%s/%s submitted %d, WB submitted %d — workloads diverged", wl, sc, got, base)
			}
		}
	}
}

// Fig. 6a: TPC-C is detected as a random-read burst early (paper: WO at
// interval 3) and WO dominates the run.
func TestPaperTimelineTPCC(t *testing.T) {
	m := sharedMatrix(t)
	res := m[WorkloadTPCC][SchemeLBICA]
	if len(res.Timeline) == 0 {
		t.Fatal("no policy decisions")
	}
	first := res.Timeline[0]
	if first.Policy != cache.WO || first.Interval > 5 {
		t.Fatalf("first decision = %v@%d (%s), want WO within interval 5", first.Policy, first.Interval, first.Group)
	}
	rows := Fig6(res)
	wo := 0
	for _, r := range rows[5:] {
		if r.Policy == "WO" {
			wo++
		}
	}
	if frac := float64(wo) / float64(len(rows)-5); frac < 0.6 {
		t.Errorf("WO in force %.0f%% of post-detection intervals, want ≥60%%", 100*frac)
	}
}

// Fig. 6b: the mail server's published decision sequence — RO at ~23, WO
// at ~128, WB (Group 3) at ~134 — must appear in order at the right
// places.
func TestPaperTimelineMail(t *testing.T) {
	m := sharedMatrix(t)
	res := m[WorkloadMail][SchemeLBICA]
	type want struct {
		policy cache.Policy
		lo, hi int
	}
	wants := []want{
		{cache.RO, 21, 26},
		{cache.WO, 126, 132},
		{cache.WB, 132, 139},
	}
	wi := 0
	for _, pc := range res.Timeline {
		if wi >= len(wants) {
			break
		}
		w := wants[wi]
		if pc.Policy == w.policy && pc.Interval >= w.lo && pc.Interval <= w.hi {
			wi++
		}
	}
	if wi != len(wants) {
		t.Fatalf("mail timeline missing stage %d of RO@23/WO@128/WB@134; got %+v", wi, res.Timeline)
	}
}

// Fig. 6c: the web server is classified mixed-RW and set to RO right at
// the start (paper: interval 1).
func TestPaperTimelineWeb(t *testing.T) {
	m := sharedMatrix(t)
	res := m[WorkloadWeb][SchemeLBICA]
	if len(res.Timeline) == 0 {
		t.Fatal("no policy decisions")
	}
	first := res.Timeline[0]
	if first.Policy != cache.RO || first.Interval > 3 {
		t.Fatalf("first decision = %v@%d, want RO within interval 3", first.Policy, first.Interval)
	}
}

// Fig. 4: per-interval cache load ordering — LBICA lowest everywhere; SIB
// beats WB on the two workloads whose bursts overload the cache tier.
func TestFig4CacheLoadOrdering(t *testing.T) {
	m := sharedMatrix(t)
	for _, wl := range Workloads {
		wb := m[wl][SchemeWB].CacheLoadMean()
		sib := m[wl][SchemeSIB].CacheLoadMean()
		lb := m[wl][SchemeLBICA].CacheLoadMean()
		if lb >= wb {
			t.Errorf("%s: LBICA cache load %.0f ≥ WB %.0f", wl, lb, wb)
		}
		if lb >= sib {
			t.Errorf("%s: LBICA cache load %.0f ≥ SIB %.0f", wl, lb, sib)
		}
		if wl != WorkloadWeb && sib >= wb {
			t.Errorf("%s: SIB cache load %.0f ≥ WB %.0f", wl, sib, wb)
		}
	}
}

// Fig. 5: the load LBICA sheds lands on the disk subsystem — its disk load
// is at least WB's — without melting it (latency stays the best, checked
// by Fig. 7 below).
func TestFig5DiskLoadShift(t *testing.T) {
	m := sharedMatrix(t)
	for _, wl := range Workloads {
		wb := m[wl][SchemeWB].DiskLoadMean()
		lb := m[wl][SchemeLBICA].DiskLoadMean()
		if lb < wb*0.8 {
			t.Errorf("%s: LBICA disk load %.0f below WB %.0f — nothing was shifted", wl, lb, wb)
		}
	}
	// The shift is strongest for mail (RO diverts the write burst).
	if lbMail, wbMail := m[WorkloadMail][SchemeLBICA].DiskLoadMean(), m[WorkloadMail][SchemeWB].DiskLoadMean(); lbMail <= wbMail {
		t.Errorf("mail: LBICA disk load %.0f not above WB %.0f", lbMail, wbMail)
	}
}

// Fig. 7: average end-to-end latency — LBICA best on every workload; SIB
// between WB and LBICA where the cache tier is the bottleneck.
func TestFig7LatencyOrdering(t *testing.T) {
	m := sharedMatrix(t)
	for _, wl := range Workloads {
		wb := m[wl][SchemeWB].AppLatency.Mean()
		sib := m[wl][SchemeSIB].AppLatency.Mean()
		lb := m[wl][SchemeLBICA].AppLatency.Mean()
		if lb >= wb {
			t.Errorf("%s: LBICA latency %v ≥ WB %v", wl, lb, wb)
		}
		if lb >= sib {
			t.Errorf("%s: LBICA latency %v ≥ SIB %v", wl, lb, sib)
		}
		if wl != WorkloadWeb && sib >= wb {
			t.Errorf("%s: SIB latency %v ≥ WB %v", wl, sib, wb)
		}
	}
}

// Headline claims (abstract, §IV-B/C/D): LBICA cuts cache load versus both
// baselines and improves latency. Exact percentages depend on the physical
// testbed; the reproduction asserts direction and rough magnitude.
func TestHeadlineClaims(t *testing.T) {
	m := sharedMatrix(t)
	h := ComputeHeadlines(m)
	if h.AvgCacheLoadReductionVsWB < 30 {
		t.Errorf("avg cache-load reduction vs WB = %.1f%%, want ≥30%% (paper: 48%%)", h.AvgCacheLoadReductionVsWB)
	}
	if h.MaxCacheLoadReductionVsWB < 50 {
		t.Errorf("max cache-load reduction vs WB = %.1f%%, want ≥50%% (paper: up to 70%%)", h.MaxCacheLoadReductionVsWB)
	}
	if h.AvgCacheLoadReductionVsSIB < 15 {
		t.Errorf("avg cache-load reduction vs SIB = %.1f%%, want ≥15%% (paper: 30%%)", h.AvgCacheLoadReductionVsSIB)
	}
	if h.AvgLatencyImprovementVsWB < 10 {
		t.Errorf("avg latency improvement vs WB = %.1f%%, want ≥10%% (paper: 14%%)", h.AvgLatencyImprovementVsWB)
	}
	if h.AvgLatencyImprovementVsSIB < 5 {
		t.Errorf("avg latency improvement vs SIB = %.1f%%, want ≥5%% (paper: 7%%)", h.AvgLatencyImprovementVsSIB)
	}
}

func TestMailBurstCensusMatchesGroup2(t *testing.T) {
	m := sharedMatrix(t)
	rows := Fig6(m[WorkloadMail][SchemeLBICA])
	// Around interval 23 the arrival mix must be write-dominated mixed RW
	// (paper quotes R 13.9%, W 70.4%).
	r := rows[23]
	if r.W < 50 {
		t.Errorf("mail interval 23 W%% = %.1f, want write-dominated", r.W)
	}
	if r.R < 5 {
		t.Errorf("mail interval 23 R%% = %.1f, want visible read share", r.R)
	}
}

func TestFigureWriters(t *testing.T) {
	m := sharedMatrix(t)
	var sb strings.Builder
	if err := Fig4(m, WorkloadTPCC).WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "interval,WB,SIB,LBICA") {
		t.Errorf("fig4 header = %q", strings.SplitN(sb.String(), "\n", 2)[0])
	}
	sb.Reset()
	if err := WriteFig6CSV(&sb, Fig6(m[WorkloadMail][SchemeLBICA])); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "\n"); got != PaperIntervals(WorkloadMail)+1 {
		t.Errorf("fig6 rows = %d", got)
	}
	sb.Reset()
	if err := WriteFig7CSV(&sb, Fig7(m)); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "\n"); got != len(Workloads)+1 {
		t.Errorf("fig7 rows = %d", got)
	}
	sb.Reset()
	if err := WriteHeadlines(&sb, ComputeHeadlines(m)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "average") {
		t.Error("headline table missing average row")
	}
}

func TestPaperIntervals(t *testing.T) {
	if PaperIntervals(WorkloadTPCC) != 200 || PaperIntervals(WorkloadWeb) != 175 {
		t.Error("paper interval counts wrong")
	}
}

// TestSpecRunBounds pins every run bound Spec.Validate owns at its edge:
// the bound itself validates, the next value past it (and NaN) does not.
// Validate builds no stack, so the edges cost no simulation.
func TestSpecRunBounds(t *testing.T) {
	base := Spec{Workload: WorkloadTPCC, Scheme: SchemeWB}
	for _, c := range []struct {
		name string
		edit func(*Spec)
		ok   bool
	}{
		{"rate at the bound", func(s *Spec) { s.RateFactor = MaxRateFactor }, true},
		{"rate past the bound", func(s *Spec) { s.RateFactor = math.Nextafter(MaxRateFactor, math.Inf(1)) }, false},
		{"NaN rate", func(s *Spec) { s.RateFactor = math.NaN() }, false},
		// tpcc's slowest phase runs at 3000 IOPS: 3e-8 is above
		// workload.MinIOPS, 3e-9 below it.
		{"rate keeps every phase above the IOPS floor", func(s *Spec) { s.RateFactor = 1e-11 }, true},
		{"rate scales a phase below the IOPS floor", func(s *Spec) { s.RateFactor = 1e-12 }, false},
		{"rate scales every phase below the IOPS floor", func(s *Spec) { s.RateFactor = 1e-300 }, false},
		{"burst scales the ON rate below the IOPS floor", func(s *Spec) { s.BurstMult = 1e-13 }, false},
		{"burst at the bound", func(s *Spec) { s.BurstMult = MaxBurstMult }, true},
		{"burst past the bound", func(s *Spec) { s.BurstMult = math.Nextafter(MaxBurstMult, math.Inf(1)) }, false},
		{"NaN burst", func(s *Spec) { s.BurstMult = math.NaN() }, false},
		{"span at the clock bound", func(s *Spec) { s.Intervals, s.Interval = 4, workload.MaxArrival/4 }, true},
		{"span past the clock bound", func(s *Spec) { s.Intervals, s.Interval = 4, workload.MaxArrival/4+1 }, false},
		{"span overflows int64", func(s *Spec) { s.Intervals, s.Interval = 3, math.MaxInt64/2 }, false},
		{"series at the bound", func(s *Spec) { s.Intervals, s.Volumes = array.MaxVolumeIntervals/4, 4 }, true},
		{"series past the bound", func(s *Spec) { s.Intervals, s.Volumes = array.MaxVolumeIntervals/4+1, 4 }, false},
		{"one volume past the series bound", func(s *Spec) { s.Intervals = array.MaxVolumeIntervals + 1 }, false},
	} {
		s := base
		c.edit(&s)
		if err := s.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate(%+v) = %v, want ok=%v", c.name, s, err, c.ok)
		}
	}
}
