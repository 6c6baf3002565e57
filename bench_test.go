// Benchmarks regenerating every figure of the paper's evaluation section
// plus ablations of LBICA's design choices. Run with:
//
//	go test -bench=. -benchmem
//
// Each Fig* benchmark executes the full simulation behind one paper figure
// and reports the figure's headline quantities via b.ReportMetric, so a
// bench run reproduces the numbers EXPERIMENTS.md records.
package lbica_test

import (
	"context"
	"testing"
	"time"

	"lbica/internal/block"
	"lbica/internal/cache"
	"lbica/internal/core"
	"lbica/internal/engine"
	"lbica/internal/experiments"
	"lbica/internal/iostat"
)

// runSchemes executes one workload under the three schemes through the
// runner with a single worker: ns/op stays comparable to pre-pool
// baselines and independent of core count (BenchmarkMatrixParallel is
// the dedicated parallel measurement).
func runSchemes(b *testing.B, wl string) map[string]*engine.Results {
	specs := make([]experiments.Spec, len(experiments.Schemes))
	for i, sc := range experiments.Schemes {
		specs[i] = experiments.Spec{Workload: wl, Scheme: sc, Seed: 1}
	}
	m, err := experiments.RunSpecs(context.Background(), specs, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	return m[wl]
}

// fig4 runs one workload under the three schemes and reports the mean
// per-interval I/O cache load (µs) for each — one sub-figure of Fig. 4.
func benchFig4(b *testing.B, wl string) {
	for i := 0; i < b.N; i++ {
		row := runSchemes(b, wl)
		for _, sc := range experiments.Schemes {
			b.ReportMetric(row[sc].CacheLoadMean()/1e3, "us-cache-load/"+sc)
		}
	}
}

func BenchmarkFig4CacheLoad_TPCC(b *testing.B) { benchFig4(b, experiments.WorkloadTPCC) }
func BenchmarkFig4CacheLoad_Mail(b *testing.B) { benchFig4(b, experiments.WorkloadMail) }
func BenchmarkFig4CacheLoad_Web(b *testing.B)  { benchFig4(b, experiments.WorkloadWeb) }

// fig5 reports the mean disk-subsystem load per scheme — Fig. 5.
func benchFig5(b *testing.B, wl string) {
	for i := 0; i < b.N; i++ {
		row := runSchemes(b, wl)
		for _, sc := range experiments.Schemes {
			b.ReportMetric(row[sc].DiskLoadMean()/1e3, "us-disk-load/"+sc)
		}
	}
}

func BenchmarkFig5DiskLoad_TPCC(b *testing.B) { benchFig5(b, experiments.WorkloadTPCC) }
func BenchmarkFig5DiskLoad_Mail(b *testing.B) { benchFig5(b, experiments.WorkloadMail) }
func BenchmarkFig5DiskLoad_Web(b *testing.B)  { benchFig5(b, experiments.WorkloadWeb) }

// fig6 runs LBICA alone and reports its decision activity: burst
// intervals, policy switches, and the interval of the first decision —
// the annotations of Fig. 6.
func benchFig6(b *testing.B, wl string) {
	for i := 0; i < b.N; i++ {
		res := experiments.Run(experiments.Spec{Workload: wl, Scheme: experiments.SchemeLBICA, Seed: 1})
		bursts := 0
		for _, s := range res.Samples {
			if s.Bottleneck {
				bursts++
			}
		}
		b.ReportMetric(float64(bursts), "burst-intervals")
		b.ReportMetric(float64(len(res.Timeline)), "policy-decisions")
		if len(res.Timeline) > 0 {
			b.ReportMetric(float64(res.Timeline[0].Interval), "first-decision-interval")
		}
	}
}

func BenchmarkFig6PolicyTimeline_TPCC(b *testing.B) { benchFig6(b, experiments.WorkloadTPCC) }
func BenchmarkFig6PolicyTimeline_Mail(b *testing.B) { benchFig6(b, experiments.WorkloadMail) }
func BenchmarkFig6PolicyTimeline_Web(b *testing.B)  { benchFig6(b, experiments.WorkloadWeb) }

// BenchmarkFig7AvgLatency reports the average end-to-end latency (µs) per
// workload per scheme — the nine bars of Fig. 7.
func BenchmarkFig7AvgLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := experiments.RunMatrix(1, 1)
		for _, row := range experiments.Fig7(m) {
			for _, sc := range experiments.Schemes {
				b.ReportMetric(row.AvgUS[sc], "us-avg-latency/"+row.Workload+"/"+sc)
			}
		}
	}
}

// BenchmarkHeadlineClaims reports the paper's headline aggregates: cache-
// load reduction and latency improvement of LBICA versus both baselines
// (paper: 48% load reduction on average, up to 70%; 14%/7% latency
// improvement vs WB/SIB).
func BenchmarkHeadlineClaims(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.ComputeHeadlines(experiments.RunMatrix(1, 1))
		b.ReportMetric(h.AvgCacheLoadReductionVsWB, "pct-load-reduction-vs-WB")
		b.ReportMetric(h.MaxCacheLoadReductionVsWB, "pct-load-reduction-vs-WB-max")
		b.ReportMetric(h.AvgCacheLoadReductionVsSIB, "pct-load-reduction-vs-SIB")
		b.ReportMetric(h.AvgLatencyImprovementVsWB, "pct-latency-improvement-vs-WB")
		b.ReportMetric(h.AvgLatencyImprovementVsSIB, "pct-latency-improvement-vs-SIB")
	}
}

// runLBICAVariant executes the mail workload (the richest decision
// timeline) under a modified LBICA configuration.
func runLBICAVariant(cfg core.Config) *engine.Results {
	spec := experiments.Spec{Workload: experiments.WorkloadMail, Scheme: experiments.SchemeLBICA, Seed: 1}.Normalize()
	ecfg := engine.DefaultConfig()
	ecfg.MonitorEvery = spec.Interval
	st := engine.New(ecfg, experiments.NewGenerator(spec), core.New(cfg))
	return st.Run(spec.Intervals)
}

// Ablations: disable one LBICA mechanism at a time and report the same
// metrics, quantifying what each design choice contributes (DESIGN.md §5).

// BenchmarkAblationFull is the reference point: LBICA as shipped.
func BenchmarkAblationFull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runLBICAVariant(core.DefaultConfig())
		reportAblation(b, res)
	}
}

// reportAblation emits the shared ablation metric set.
func reportAblation(b *testing.B, res *engine.Results) {
	b.ReportMetric(res.CacheLoadMean()/1e3, "us-cache-load")
	b.ReportMetric(float64(res.AppLatency.Mean())/1e3, "us-avg-latency")
	b.ReportMetric(float64(res.AppLatency.Quantile(0.99))/1e3, "us-p99-latency")
}

// BenchmarkAblationNoTailBypass removes the Group-3 queue-tail
// redirection: write bursts must ride out the full SSD queue.
func BenchmarkAblationNoTailBypass(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.TailBypass = false
	for i := 0; i < b.N; i++ {
		res := runLBICAVariant(cfg)
		reportAblation(b, res)
	}
}

// BenchmarkAblationNoRecharacterize freezes the first classification for
// the whole burst: the policy cannot follow the mail server's phase
// changes (RO → WO → WB in the paper's timeline).
func BenchmarkAblationNoRecharacterize(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Recharacterize = false
	for i := 0; i < b.N; i++ {
		res := runLBICAVariant(cfg)
		reportAblation(b, res)
	}
}

// BenchmarkAblationNoHold removes the demand-based hold, re-exposing the
// oscillation the hold was designed against: relief drains the queue, the
// burst signal disappears, the policy reverts, the queue refills.
func BenchmarkAblationNoHold(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.HoldUtilization = 0
	for i := 0; i < b.N; i++ {
		res := runLBICAVariant(cfg)
		reportAblation(b, res)
		b.ReportMetric(float64(res.CacheStats.PolicySwitches), "policy-switches")
	}
}

// woOnBurst is the no-characterization ablation: any burst gets WO,
// regardless of the queue mix (what a one-size bypass heuristic would do).
type woOnBurst struct{ st *engine.Stack }

func (w *woOnBurst) Name() string { return "WO-on-burst" }
func (w *woOnBurst) Attach(st *engine.Stack) {
	w.st = st
	st.Monitor().OnClose(func(s iostat.Sample) {
		if s.Bottleneck {
			st.Cache().SetPolicy(cache.WO)
		} else {
			st.Cache().SetPolicy(cache.WB)
		}
	})
}
func (w *woOnBurst) Admit(block.Op, block.Extent) bool { return true }

// BenchmarkAblationNoCharacterization replaces the classifier with a
// fixed WO-on-burst rule. On the mail workload (whose bursts are mostly
// write-dominated) the wrong policy is chosen for most of the run.
func BenchmarkAblationNoCharacterization(b *testing.B) {
	spec := experiments.Spec{Workload: experiments.WorkloadMail, Scheme: experiments.SchemeLBICA, Seed: 1}.Normalize()
	for i := 0; i < b.N; i++ {
		ecfg := engine.DefaultConfig()
		ecfg.MonitorEvery = spec.Interval
		st := engine.New(ecfg, experiments.NewGenerator(spec), &woOnBurst{})
		res := st.Run(spec.Intervals)
		reportAblation(b, res)
	}
}

// BenchmarkAblationPeakDetector switches the Eq. 1 comparison from
// time-averaged depths to within-interval peaks: one transient disk-queue
// spike inside an interval can then mask a sustained SSD backlog.
func BenchmarkAblationPeakDetector(b *testing.B) {
	spec := experiments.Spec{Workload: experiments.WorkloadMail, Scheme: experiments.SchemeLBICA, Seed: 1}.Normalize()
	for i := 0; i < b.N; i++ {
		ecfg := engine.DefaultConfig()
		ecfg.MonitorEvery = spec.Interval
		ecfg.DetectOnPeak = true
		st := engine.New(ecfg, experiments.NewGenerator(spec), core.New(core.DefaultConfig()))
		res := st.Run(spec.Intervals)
		reportAblation(b, res)
		bursts := 0
		for _, s := range res.Samples {
			if s.Bottleneck {
				bursts++
			}
		}
		b.ReportMetric(float64(bursts), "burst-intervals")
	}
}

// BenchmarkEnduranceExtension measures the SSD write volume per scheme on
// the write-heavy mail workload — an extension experiment: the paper's
// related work motivates SSD-write reduction, and LBICA's RO/WO
// assignments deliver it as a side effect of load balancing.
func BenchmarkEnduranceExtension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row := runSchemes(b, experiments.WorkloadMail)
		for _, sc := range experiments.Schemes {
			b.ReportMetric(row[sc].SSDWrittenMiB(), "mib-ssd-writes/"+sc)
		}
	}
}

// benchMatrix measures the wall-clock of the full paper matrix at a given
// worker-pool size. Workers=1 is the serial baseline (gated as
// matrix/serial in BENCH_hotpath.json); workers=0 uses GOMAXPROCS.
func benchMatrix(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		m, err := experiments.RunMatrixContext(context.Background(), 1, 1, workers)
		if err != nil {
			b.Fatal(err)
		}
		if len(m) != len(experiments.Workloads) {
			b.Fatalf("matrix has %d workloads", len(m))
		}
	}
}

func BenchmarkMatrixSerial(b *testing.B)   { benchMatrix(b, 1) }
func BenchmarkMatrixParallel(b *testing.B) { benchMatrix(b, 0) }

// BenchmarkEngineThroughput measures raw simulation speed: virtual
// request completions per wall second on the TPC-C stack.
func BenchmarkEngineThroughput(b *testing.B) {
	var requests uint64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res := experiments.Run(experiments.Spec{
			Workload: experiments.WorkloadTPCC, Scheme: experiments.SchemeWB,
			Seed: 1, Intervals: 20,
		})
		requests += res.AppCompleted
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(requests)/elapsed, "sim-requests/s")
	}
}
