package lbica

import (
	"context"
	"io"
	"time"

	"lbica/internal/sweep"
)

// GridSpec declares a parameter sweep: the cross product of its axes,
// generalizing the paper's fixed 3 workloads × 3 schemes matrix along the
// dimensions its claims should be robust to. Empty axes fall back to the
// paper's evaluation defaults, so the zero GridSpec is exactly the paper's
// matrix. Sweep converts it to the internal grid type, whose fields it
// matches one for one.
type GridSpec struct {
	// Workloads names workload-catalog entries: the paper trio
	// (tpcc|mail|web), the synthetic catalog (synth-randread,
	// synth-randwrite, synth-seqread, synth-seqwrite, synth-mixed,
	// burst-mix-lo|mid|hi), or parameterized family names such as
	// "synth-randread-zipf1.2" and "burst-mix-on6x-duty0.45-read0.35".
	// Empty = the paper trio. Schemes are wb|sib|lbica|array-lb; empty =
	// the paper trio (wb, sib, lbica).
	Workloads []string
	Schemes   []string
	// CacheMults scales the SSD cache capacity relative to the paper's
	// 256 MiB configuration (empty = {1}).
	CacheMults []float64
	// RateFactors scales workload IOPS (empty = {1}).
	RateFactors []float64
	// BurstMults is the burst-intensity axis: each value scales every
	// bursting phase's ON-rate and ON/OFF duty cycle (empty = {1}, the
	// workloads' published burst shapes).
	BurstMults []float64
	// Volumes is the array-width axis: each value shards every run across
	// that many independent cache+disk volumes behind a deterministic
	// router (empty = {1}, the paper's single stack).
	Volumes []int
	// RouteSkews is the router-skew axis: the Zipf exponent of the
	// router's volume-popularity distribution (0 = uniform routing; empty
	// = {0}). Skew is inert at one volume, so for width-1 cells every
	// skew canonicalizes to the single skew-0 cell (expanded once, never
	// inflating replicate counts); the collapsed combinations are
	// reported in SweepResult.Skipped rather than failing the sweep.
	RouteSkews []float64
	// RouteVariant selects the "array-lb" controller's adaptation
	// mechanism for every array-lb cell of the sweep: "weighted"
	// (default) or "p2c". Ignored by the other schemes.
	RouteVariant string
	// SeedReplicates is the number of seed replicates per cell (default 1).
	// Replicate r derives its seed from (Seed, r) alone, and every scheme
	// inside a replicate shares it — the paper's controlled comparison.
	SeedReplicates int
	// Seed is the base seed (default 1).
	Seed int64
	// Intervals and IntervalLength override the per-run scale (0 = the
	// paper's defaults).
	Intervals      int
	IntervalLength time.Duration
	// WarmupIntervals, when positive, lets cells that differ only by
	// scheme share one simulated warmup prefix of that many intervals:
	// the prefix is simulated once — for multi-volume cells, across the
	// whole statically routed array — and every sibling scheme's run is
	// restored from the warm state (falling back to a scratch run whenever
	// sharing would change the output). Results stay byte-identical to a
	// WarmupIntervals == 0 sweep; only wall-clock time changes. The plan's
	// outcomes land in SweepResult.Warm. Negative values are an error.
	WarmupIntervals int
	// WarmCacheDir, when non-empty, backs the warm-fork plan with a
	// persistent on-disk checkpoint store rooted at that directory: each
	// shared warmup prefix is restored from the store when a previous
	// invocation left it there and written through after being simulated,
	// so repeated sweeps over overlapping grids skip the warmup wall-clock
	// entirely. Results stay byte-identical to an uncached sweep; a
	// missing, corrupt, truncated, or version-skewed entry silently falls
	// back to simulation (tallied in SweepResult.Warm) and is overwritten.
	// The directory is created if absent; an unusable path is an error
	// before any run starts. Requires WarmupIntervals > 0.
	WarmCacheDir string
	// CITolerance, when positive, turns on cross-cell early termination:
	// a grid coordinate stops launching further seed replicates once, for
	// every scheme at that coordinate, the 95% confidence half-width over
	// the completed replicates' QMeanUS is at most CITolerance × the
	// metric's mean (relative tolerance; at least two replicates always
	// run), and the freed worker slot goes to unfinished coordinates.
	// Terminated cells are marked (SweepCell.EarlyTerminated) with their
	// achieved half-width and actual replicate count. 0 (the default)
	// runs every replicate and emits byte-identical output to earlier
	// versions; negative or non-finite values are an error.
	CITolerance float64
}

// SweepOptions tunes sweep execution.
type SweepOptions struct {
	// Workers caps the runner pool (≤0 = GOMAXPROCS; 1 = serial baseline).
	Workers int
	// OnProgress, when non-nil, observes completion (serialized,
	// completion order).
	OnProgress func(done, total int)
	// SeriesDir, when non-empty, exports each run's per-interval series
	// (cache/disk load, hit ratio, balancer group and policy) as one CSV
	// per cell into the directory; bytes are identical for every Workers
	// value.
	SeriesDir string
}

// SweepRun is one finished simulation of a sweep: its grid coordinates
// plus scalar metrics. QMeanUS is the run's mean per-interval maximum
// cache queue time (the Fig. 4 metric, µs) and DiskQMeanUS the
// disk-subsystem counterpart.
type SweepRun = sweep.Run

// SweepCell summarizes one grid coordinate's scheme across its seed
// replicates: the max-queue-time metric's mean, min and max, mean latency,
// hit ratio and policy flips, and latency speedups against the WB and SIB
// cells at the same coordinate (zero when the sweep has no matching
// baseline). QCIHalfUS and EarlyTerminated are set only on
// early-termination sweeps (GridSpec.CITolerance > 0).
type SweepCell = sweep.Cell

// SweepWarmStats counts a warm-fork sweep's per-run plan outcomes:
// leaders, forks and scratch runs, the scratch runs' reasons, and the
// persistent warm cache's hits, stores and corrupt entries.
type SweepWarmStats = sweep.WarmStats

// SweepResult is a finished (or interrupted) sweep: every completed run in
// deterministic expansion order plus the per-cell aggregation. Total is
// the grid size; on an interrupted sweep Completed < Total and the result
// covers only the runs that finished.
type SweepResult struct {
	Runs      []SweepRun
	Cells     []SweepCell
	Total     int
	Completed int
	// Skipped lists grid combinations the expansion canonicalized away
	// (one entry per inert width-1 × non-zero-skew pair), for the log.
	Skipped []string
	// Warm summarizes the warm-fork plan's outcomes (nil unless
	// GridSpec.WarmupIntervals > 0), so a regression to 0% sharing is
	// visible instead of a silent slowdown.
	Warm *SweepWarmStats

	res *sweep.Result
}

// Sweep expands the grid and executes it across the bounded worker pool.
//
// The determinism guarantee of RunAll extends to sweeps: expansion order
// is a pure function of the spec, every run's randomness derives from its
// own grid coordinates, and aggregation folds runs in expansion order —
// so the result (and every emitted report) is byte-identical for any
// worker count, including the Workers == 1 serial baseline.
//
// Cancellation returns ctx's error together with a partial result
// aggregating the runs that completed.
func Sweep(ctx context.Context, g GridSpec, opt SweepOptions) (*SweepResult, error) {
	res, err := sweep.Execute(ctx, sweep.Grid(g), sweep.Options{Workers: opt.Workers, OnDone: opt.OnProgress, SeriesDir: opt.SeriesDir})
	if res == nil {
		return nil, err
	}
	return &SweepResult{
		Runs:      res.Runs,
		Cells:     res.Cells,
		Total:     res.Total,
		Completed: res.Completed,
		Skipped:   res.Skipped,
		Warm:      res.Warm,
		res:       res,
	}, err
}

// WriteCSV emits the per-cell summaries as CSV (lossless float encoding;
// sweep.ParseCellsCSV-compatible layout).
func (r *SweepResult) WriteCSV(w io.Writer) error { return sweep.WriteCellsCSV(w, r.res.Cells) }

// WriteJSON emits the whole result — grid, runs, cells — as indented JSON.
func (r *SweepResult) WriteJSON(w io.Writer) error { return sweep.WriteJSON(w, r.res) }

// WriteReport renders the compact text report.
func (r *SweepResult) WriteReport(w io.Writer) error { return sweep.WriteReport(w, r.res) }
