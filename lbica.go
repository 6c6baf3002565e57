// Package lbica is a simulation-backed reproduction of "LBICA: A Load
// Balancer for I/O Cache Architectures" (Ahmadian, Salkhordeh, Asadi —
// DATE 2019).
//
// The library simulates an enterprise storage stack — an SSD I/O cache
// (EnhanceIO-style, set-associative, switchable write policies) in front of
// a disk subsystem — under burst-heavy workloads, and implements three
// load-management schemes on top of it:
//
//   - WB: the plain write-back cache baseline (no load balancing),
//   - SIB: Selective I/O Bypass (Kim et al., IEEE TC 2018), the prior
//     state of the art the paper compares against,
//   - LBICA: the paper's contribution — burst detection via queue-time
//     comparison, workload characterization from the R/W/P/E mix of the
//     SSD queue, and adaptive write-policy assignment.
//
// Run executes one workload under one scheme on a virtual clock (no real
// I/O, deterministic for a fixed seed) and returns per-interval statistics
// mirroring the paper's figures. The cmd/lbicabench tool and the
// benchmarks in this module regenerate every figure of the paper's
// evaluation.
//
// Quick start:
//
//	report, err := lbica.Run(lbica.Options{Workload: "tpcc", Scheme: "lbica"})
//	if err != nil { ... }
//	fmt.Println(report.Summary.AvgLatency)
//
// # Batch runs and the parallel runner
//
// RunAll executes a batch of independent simulations across a bounded
// worker pool (GOMAXPROCS goroutines by default) with progress reporting
// and context cancellation:
//
//	specs := lbica.MatrixSpecs(1) // the paper's 3 workloads × 3 schemes
//	reports, err := lbica.RunAll(ctx, specs, lbica.RunnerOptions{
//		OnProgress: func(done, total int) { log.Printf("%d/%d", done, total) },
//	})
//
// Determinism guarantee: runs share no mutable state — every stochastic
// component inside a run draws from its own (seed, component-name) stream,
// and RunnerOptions.Seed splits per-run seeds with sim.Stream(seed, i),
// a function of the spec index alone. RunAll's output is therefore
// byte-identical to running the same specs serially, for any worker
// count and any goroutine interleaving; reports[i] always corresponds to
// specs[i]. RunContext is the single-run variant with cancellation: a
// cancelled context stops the virtual clock at the next event boundary
// and returns the partial report.
//
// # Multi-volume arrays
//
// The paper evaluates one SSD-cache/disk stack; Options.Volumes scales
// that to a fleet. One run then hosts N volumes — each a full
// cache+SSD-queue+disk-subsystem stack with its own balancer instance —
// fed by a deterministic router that splits the workload stream across
// them (Options.RoutePolicy: "uniform", block-affine "hash", or "zipf"
// with Options.RouteSkew skewing volume popularity — the hot-shard
// regime). Volumes share no state, so the run shards volume-per-core
// (Options.ShardWorkers) and merges per-volume results
// order-independently: the report's top-level fields become the
// array-level view (loads show the bottleneck volume, latency quantiles
// cover every request) and Report.PerVolume carries each volume's own
// report:
//
//	report, _ := lbica.Run(lbica.Options{
//		Workload: "tpcc", Scheme: "lbica",
//		Volumes: 8, RouteSkew: 1.2, // 8 volumes, Zipf-hot routing
//	})
//	for v, vr := range report.PerVolume {
//		fmt.Printf("v%d: %v\n", v, vr.Summary.AvgLatency)
//	}
//
// Scheme "array-lb" adds an array-level controller on top of per-volume
// LBICA: at every monitor-interval boundary it reweights the router from
// measured per-volume load (Options.RouteVariant: inverse-load
// "weighted" or "p2c") and migrates the bottleneck volume's hottest
// clean cache lines to the coldest volume, pinning their routing — the
// flattening answer to the hot-shard regime static "zipf" routing sets
// up.
//
// The determinism guarantee extends to arrays: output is byte-identical
// for every ShardWorkers value, and Volumes: 1 (or unset) runs the exact
// single-stack pipeline of the paper harness. Options.Thresholds exposes
// LBICA's census-classifier calibration for sensitivity probes (zero
// fields inherit the paper defaults).
//
// # One build path
//
// The facade builds no stack of its own. Run, RunAll, RunCheckpoint,
// RunRestore and Sweep validate their options, translate them into the
// internal experiments run description, and let that package — the one
// place a run description becomes simulated stacks — build and run them.
// A facade run and the matching sweep cell are therefore the same
// simulation, and every run feature (static policies, custom phases,
// replay, cache geometry, arrays, checkpoints) is wired exactly once.
package lbica

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"lbica/internal/core"
	"lbica/internal/engine"
	"lbica/internal/experiments"
	"lbica/internal/trace"
	"lbica/internal/workload"
)

// Schemes accepted by Options.Scheme. The first three are the paper's
// comparison; the rest pin a static cache write policy with no balancer,
// which the policy-comparison example uses.
const (
	SchemeWB    = "wb"
	SchemeSIB   = "sib"
	SchemeLBICA = "lbica"
	// SchemeArrayLB layers an array-level controller over per-volume
	// LBICA: at every monitor-interval boundary it reweights the router
	// from measured per-volume load (Options.RouteVariant picks the
	// mechanism) and migrates the bottleneck volume's hottest cache lines
	// to the coldest volume, pinning their routing. Requires Volumes > 1
	// to have anything to balance (at one volume it runs as plain LBICA);
	// RoutePolicy must stay empty — the controller owns routing, and
	// RouteSkew only seeds its initial weights.
	SchemeArrayLB = "array-lb"

	SchemeStaticWT   = "wt"
	SchemeStaticRO   = "ro"
	SchemeStaticWO   = "wo"
	SchemeStaticWTWO = "wtwo"
)

// Workloads accepted by Options.Workload.
const (
	WorkloadTPCC        = "tpcc"
	WorkloadMail        = "mail"
	WorkloadWeb         = "web"
	WorkloadRandomRead  = "random-read"
	WorkloadRandomWrite = "random-write"
	WorkloadSeqRead     = "seq-read"
	WorkloadSeqWrite    = "seq-write"
	WorkloadMixed       = "mixed"
)

// Phase is one segment of a custom workload (see Options.Phases): an
// ON/OFF-modulated Poisson arrival process over a Zipf-skewed working
// set, the paper's burst model. Zero fields keep their default meaning.
type Phase = workload.Phase

// Options configures a simulation run. The zero value of every field has a
// sensible default; Workload and Scheme default to "tpcc" under "lbica".
type Options struct {
	// Workload picks a named workload, or use Phases for a custom one.
	Workload string
	// Scheme picks the load-management scheme (or a static policy).
	Scheme string
	// Seed fixes all randomness; runs with equal seeds are bit-identical.
	Seed int64
	// Intervals is the number of monitor intervals to run (default: the
	// paper's length for the named workload, 200 otherwise). The run ends
	// there: a request the workload schedules at or after Intervals ×
	// IntervalLength does not run.
	Intervals int
	// IntervalLength is the monitor sampling interval (default 200 ms of
	// virtual time).
	IntervalLength time.Duration
	// RateFactor scales the workload's IOPS (default 1, at most 10^4).
	RateFactor float64
	// Phases, when non-empty, defines a custom workload (Name labels it).
	Phases []Phase
	// Name labels a custom workload (default "custom").
	Name string
	// TraceWriter, when non-nil, receives the full binary block-layer
	// trace (decode with cmd/traceinspect).
	TraceWriter io.Writer

	// RecordTo, when non-nil, captures the application request stream so
	// it can be replayed later against a different scheme or
	// configuration (trace-driven evaluation).
	RecordTo io.Writer
	// ReplayFrom, when non-nil, replays a stream captured with RecordTo
	// instead of generating a workload. Intervals must still be set high
	// enough to cover the recording: records at or after the run's end
	// are not replayed.
	ReplayFrom io.Reader

	// CacheMiB sizes the SSD cache (default 256 MiB); CacheWays sets the
	// associativity (default 8).
	CacheMiB  int
	CacheWays int
	// Replacement selects the cache's in-set victim policy: "lru"
	// (default), "fifo" or "rand" — EnhanceIO's three options.
	Replacement string

	// Volumes is the array width: how many independent cache+disk volumes
	// one run shards the workload across (0 or 1 = the paper's single
	// stack, which bypasses the array layer entirely). Each volume is a
	// full stack with its own balancer instance; a deterministic router
	// splits the stream, the volumes run volume-per-core, and the report's
	// top-level fields become the array-level merge (per-volume reports
	// ride in Report.PerVolume). TraceWriter and RecordTo require a single
	// volume; ReplayFrom works at any width (the recorded stream is routed
	// like a generated one).
	Volumes int
	// RoutePolicy selects how the array router splits the stream:
	// "uniform" (spread independent of address), "hash" (block-affine —
	// every block always lands on the same volume) or "zipf" (volume
	// popularity skewed by RouteSkew). Empty means "zipf" when RouteSkew
	// > 0 and "uniform" otherwise. Requires Volumes > 1.
	RoutePolicy string
	// RouteSkew is the Zipf exponent of the router's volume-popularity
	// distribution (0 = uniform weights) — the skewed-routing regime
	// where some volumes run hot. Requires Volumes > 1. Under
	// Scheme "array-lb" it sets the controller's initial weights only;
	// measured load takes over from the first interval barrier.
	RouteSkew float64
	// RouteVariant selects the "array-lb" controller's adaptation
	// mechanism: "weighted" (inverse-load weighting, the default) or
	// "p2c" (power-of-two-choices: two candidate volumes per request,
	// route to the less loaded). Only valid with Scheme "array-lb".
	RouteVariant string
	// ShardWorkers caps the array's volume-per-core fan-out (≤0 =
	// GOMAXPROCS; 1 = serial). Output is byte-identical for every value.
	ShardWorkers int

	// Thresholds overrides LBICA's census-classifier calibration. The
	// zero value is the paper's calibrated defaults, and zero fields
	// inherit their default individually, so only the fields you set
	// change. Ignored by schemes other than "lbica".
	Thresholds Thresholds
	// DiskElevator dispatches the disk queue in LOOK (elevator) order and
	// switches the disk model to distance-proportional seeks — a more
	// detailed rotational model than the calibrated default.
	DiskElevator bool
	// DisablePrewarm starts the cache cold instead of preloading the
	// workload's hottest blocks.
	DisablePrewarm bool
}

// Thresholds tunes LBICA's census classifier (paper §III-B): the minimum
// shares of the SSD queue's R/W/P/E mix that classify each workload
// group. The zero value is the paper's calibrated defaults; zero fields
// inherit their default individually.
type Thresholds = core.Thresholds

// PolicyEvent is one write-policy decision in the run's timeline.
type PolicyEvent struct {
	Interval int
	Policy   string
	Group    string
}

// Interval is one monitor interval's statistics — one x-axis point of the
// paper's Figs. 4–6.
type Interval struct {
	Index int
	// CacheLoadMicros/DiskLoadMicros are the per-interval maximum queue
	// times of Eq. 1, in microseconds (the figures' y-axis).
	CacheLoadMicros float64
	DiskLoadMicros  float64
	// Burst reports whether the detector flagged the cache as the
	// bottleneck.
	Burst bool
	// ReadPct..EvictPct is the R/W/P/E arrival mix of the SSD queue.
	ReadPct, WritePct, PromotePct, EvictPct float64
	// AvgLatency is the mean end-to-end application latency.
	AvgLatency time.Duration
	// SSDQueueMax/HDDQueueMax are the peak queue depths.
	SSDQueueMax, HDDQueueMax int
}

// Summary aggregates a run.
type Summary struct {
	Requests       uint64
	AvgLatency     time.Duration
	P50Latency     time.Duration
	P99Latency     time.Duration
	MaxLatency     time.Duration
	HitRatio       float64
	CacheLoadMean  float64 // µs
	DiskLoadMean   float64 // µs
	BypassedToDisk uint64
	SSDUtilization float64
	HDDUtilization float64
	PolicySwitches uint64
	// SSDWrittenMiB is the write volume the SSD absorbed — the endurance
	// cost of the run (lower is better for flash lifetime).
	SSDWrittenMiB float64
	HDDWrittenMiB float64
}

// Report is a finished run. For an array run (Options.Volumes > 1) the
// top-level fields are the array-level merge — loads show the bottleneck
// volume, counters and latency quantiles cover every request, and each
// policy event's Group carries its volume ("v2:G3/random-write") — while
// PerVolume holds each volume's own full report.
type Report struct {
	Workload string
	Scheme   string
	// IntervalLength is the effective monitor interval of the run (the
	// Options value after defaulting).
	IntervalLength time.Duration
	Intervals      []Interval
	Policies       []PolicyEvent
	Summary        Summary

	// PerVolume, for an array run, holds the per-volume reports indexed
	// by volume address (a nil slot is a volume a cancellation stopped
	// before it completed). Nil for single-volume runs.
	PerVolume []*Report
}

// Run executes one simulation.
func Run(o Options) (*Report, error) {
	return RunContext(context.Background(), o)
}

// RunContext is Run with cooperative cancellation: when ctx is cancelled
// the simulation stops at the next event boundary, drains in-flight
// requests, and returns the partial report accumulated so far together
// with ctx.Err(). A cancellation arriving only after every requested
// interval has sampled is ignored — the report is complete.
func RunContext(ctx context.Context, o Options) (*Report, error) {
	s, err := toSpec(o)
	if err != nil {
		return nil, err
	}
	var bw *trace.BinaryWriter
	var recorded []workload.Request
	if s.Hooks != nil {
		if o.TraceWriter != nil {
			bw = trace.NewBinaryWriter(o.TraceWriter)
			s.Hooks.Trace = bw
		}
		if o.RecordTo != nil {
			s.Hooks.Record = &recorded
		}
	}
	res, perVolume := experiments.RunVolumes(ctx, s)
	// Flush/save failures are joined with (not replaced by) a
	// cancellation, and the report survives them: on an interrupted run
	// the partial results are the caller's only window into what
	// happened before the output files went bad.
	var flushErr, saveErr error
	if bw != nil {
		if err := bw.Close(); err != nil {
			flushErr = fmt.Errorf("lbica: flushing trace: %w", err)
		}
	}
	if o.RecordTo != nil {
		if err := workload.SaveRequests(o.RecordTo, recorded); err != nil {
			saveErr = fmt.Errorf("lbica: saving recorded workload: %w", err)
		}
	}
	return buildReport(s, res, perVolume), errors.Join(runCtxErr(ctx, s, res, perVolume), flushErr, saveErr)
}

// toSpec validates o and translates it into the experiments run
// description every stack is built from. Zero means "use the default"; an
// invalid value is an error, never a silent rewrite — clamping it would
// run a different experiment than the one the caller asked for while
// reporting their value nowhere. A ReplayFrom stream is read here, once:
// every array volume routes the same recorded requests.
func toSpec(o Options) (experiments.Spec, error) {
	s := experiments.Spec{
		Workload:       o.Workload,
		Scheme:         strings.ToUpper(cmp.Or(o.Scheme, SchemeLBICA)),
		Seed:           o.Seed,
		Intervals:      o.Intervals,
		Interval:       o.IntervalLength,
		RateFactor:     o.RateFactor,
		Volumes:        o.Volumes,
		RoutePolicy:    o.RoutePolicy,
		RouteSkew:      o.RouteSkew,
		RouteVariant:   o.RouteVariant,
		ShardWorkers:   o.ShardWorkers,
		Thresholds:     o.Thresholds,
		Name:           o.Name,
		CacheMiB:       o.CacheMiB,
		CacheWays:      o.CacheWays,
		Replacement:    o.Replacement,
		DiskElevator:   o.DiskElevator,
		DisablePrewarm: o.DisablePrewarm,
	}
	if len(o.Phases) > 0 {
		s.Phases = &o.Phases
	} else if s.Workload == "" {
		s.Workload = WorkloadTPCC
	}
	if o.ReplayFrom != nil {
		reqs, err := workload.LoadRequests(o.ReplayFrom)
		if err != nil {
			return s, fmt.Errorf("lbica: loading replay stream: %w", err)
		}
		s.Replay = &reqs
	}
	if o.TraceWriter != nil || o.RecordTo != nil {
		s.Hooks = &experiments.Hooks{} // filled in by RunContext
	}
	if err := s.Validate(); err != nil {
		return s, fmt.Errorf("lbica: %w", err)
	}
	return s.Normalize(), nil
}

// runCtxErr applies RunContext's partial-run rule: a cancellation that
// lands only after every volume sampled every requested interval changed
// nothing — the run is complete, not partial.
func runCtxErr(ctx context.Context, s experiments.Spec, res *engine.Results, perVolume []*engine.Results) error {
	err := ctx.Err()
	if err == nil {
		return nil
	}
	if perVolume == nil {
		perVolume = []*engine.Results{res}
	}
	for _, r := range perVolume {
		if r == nil || len(r.Samples) < s.Intervals {
			return err
		}
	}
	return nil
}

// buildReport renders a run's results — and, for an array run, each
// volume's own — as a Report.
func buildReport(s experiments.Spec, res *engine.Results, perVolume []*engine.Results) *Report {
	r := volumeReport(s, res)
	if perVolume != nil {
		r.PerVolume = make([]*Report, len(perVolume))
		for v, vres := range perVolume {
			if vres != nil {
				r.PerVolume[v] = volumeReport(s, vres)
			}
		}
	}
	return r
}

func volumeReport(s experiments.Spec, res *engine.Results) *Report {
	rows := experiments.Fig6(res)
	r := &Report{
		Workload:       res.Workload,
		Scheme:         res.Scheme,
		IntervalLength: s.Interval,
		Intervals:      make([]Interval, len(rows)),
	}
	for i, row := range rows {
		r.Intervals[i] = Interval{
			Index:           row.Interval,
			CacheLoadMicros: row.CacheLoad,
			DiskLoadMicros:  row.DiskLoad,
			Burst:           row.Burst,
			ReadPct:         row.R,
			WritePct:        row.W,
			PromotePct:      row.P,
			EvictPct:        row.E,
			AvgLatency:      res.Samples[i].AppAwait,
			SSDQueueMax:     res.Samples[i].SSDDepthMax,
			HDDQueueMax:     res.Samples[i].HDDDepthMax,
		}
	}
	for _, pc := range res.Timeline {
		r.Policies = append(r.Policies, PolicyEvent{
			Interval: pc.Interval,
			Policy:   pc.Policy.String(),
			Group:    pc.Group,
		})
	}
	r.Summary = Summary{
		Requests:       res.AppCompleted,
		AvgLatency:     res.AppLatency.Mean(),
		P50Latency:     res.AppLatency.Quantile(0.5),
		P99Latency:     res.AppLatency.Quantile(0.99),
		MaxLatency:     res.AppLatency.Max(),
		HitRatio:       res.CacheStats.HitRatio(),
		CacheLoadMean:  res.CacheLoadMean() / 1e3,
		DiskLoadMean:   res.DiskLoadMean() / 1e3,
		BypassedToDisk: res.BypassedToDisk,
		SSDUtilization: res.SSDUtilization,
		HDDUtilization: res.HDDUtilization,
		PolicySwitches: res.CacheStats.PolicySwitches,
		SSDWrittenMiB:  res.SSDWrittenMiB(),
		HDDWrittenMiB:  res.HDDWrittenMiB(),
	}
	return r
}

// WriteCSV renders the per-interval series in the layout of the paper's
// Fig. 6: loads, burst flag, R/W/P/E mix, and the policy in force.
func (r *Report) WriteCSV(w io.Writer) error {
	policyAt := make([]string, len(r.Intervals))
	cur := "WB"
	pi := 0
	for i := range r.Intervals {
		for pi < len(r.Policies) && r.Policies[pi].Interval <= i {
			cur = r.Policies[pi].Policy
			pi++
		}
		policyAt[i] = cur
	}
	if _, err := fmt.Fprintln(w, "interval,cache_load_us,disk_load_us,burst,r_pct,w_pct,p_pct,e_pct,avg_latency_us,policy"); err != nil {
		return err
	}
	for i, iv := range r.Intervals {
		_, err := fmt.Fprintf(w, "%d,%.1f,%.1f,%t,%.1f,%.1f,%.1f,%.1f,%.1f,%s\n",
			iv.Index, iv.CacheLoadMicros, iv.DiskLoadMicros, iv.Burst,
			iv.ReadPct, iv.WritePct, iv.PromotePct, iv.EvictPct,
			float64(iv.AvgLatency)/1e3, policyAt[i])
		if err != nil {
			return err
		}
	}
	return nil
}

// String summarizes the run in one line.
func (r *Report) String() string {
	return fmt.Sprintf("%s/%s: %d reqs, avg %v, p99 %v, hit %.2f, cache load %.0fµs, disk load %.0fµs",
		r.Workload, r.Scheme, r.Summary.Requests, r.Summary.AvgLatency, r.Summary.P99Latency,
		r.Summary.HitRatio, r.Summary.CacheLoadMean, r.Summary.DiskLoadMean)
}
