// Package sweep is the parameter-sweep subsystem: it expands a declarative
// Grid (workloads × schemes × cache-size multipliers × rate factors ×
// burst-intensity multipliers × array volume counts × routing skews ×
// seed replicates) into experiment specs,
// fans them out through the bounded runner pool, and aggregates the
// finished runs into per-cell summaries — mean/min/max max-queue-time,
// LBICA-vs-baseline speedups, policy-flip counts — with CSV, JSON and
// text emitters, plus an optional per-interval series export per cell
// (Options.SeriesDir). Workload axis values resolve through the workload
// catalog, so grids range over the paper trio, the synthetic entries and
// parameterized family names alike.
//
// The paper evaluates a fixed 3 workloads × 3 schemes matrix; the grid
// generalizes that matrix along the axes its claims should be robust to
// (cache size, arrival rate, seed) while preserving the controlled
// comparison: every scheme inside a replicate shares the replicate's seed,
// so the three schemes always see an identical workload, and each
// replicate's seed derives from (Grid.Seed, replicate index) alone, so a
// parallel sweep is byte-identical to a serial one.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"lbica/internal/array"
	"lbica/internal/checkpoint"
	"lbica/internal/engine"
	"lbica/internal/experiments"
	"lbica/internal/runner"
	"lbica/internal/sim"
	"lbica/internal/stats"
)

// Grid declares a sweep: the cross product of its axes. Empty axes fall
// back to the paper's defaults (all 3 workloads, all 3 schemes, multiplier
// 1, rate 1, a single replicate), so the zero Grid is exactly the paper's
// evaluation matrix.
type Grid struct {
	// Workloads and Schemes name the experiment axes; case-insensitive
	// (normalized to the experiments package's canonical names). Workload
	// names resolve through the catalog (workload.Default): the paper
	// trio, synthetic entries, and parameterized family names such as
	// "synth-randread-zipf1.2" or "burst-mix-on6x-duty0.45-read0.35".
	Workloads []string `json:"workloads"`
	Schemes   []string `json:"schemes"`
	// CacheMults scales the SSD cache capacity relative to the paper's
	// 256 MiB (experiments.Spec.CacheMult).
	CacheMults []float64 `json:"cache_mults"`
	// RateFactors scales every workload's IOPS.
	RateFactors []float64 `json:"rate_factors"`
	// BurstMults scales every bursting phase's ON-rate and ON/OFF duty
	// cycle (experiments.Spec.BurstMult) — the burst-intensity axis. Empty
	// = {1}, the workloads' published burst shapes.
	BurstMults []float64 `json:"burst_mults"`
	// Volumes is the array-width axis: each value shards the run across
	// that many independent cache+disk volumes behind a deterministic
	// router (experiments.Spec.Volumes). Empty = {1}, the paper's
	// single-stack configuration.
	Volumes []int `json:"volumes"`
	// RouteSkews is the router-skew axis: the Zipf exponent of the
	// router's volume-popularity distribution (0 = uniform routing).
	// Empty = {0}. At one volume every skew routes identically, so skew
	// is inert at width 1: those cells canonicalize to skew 0 and
	// deduplicate (a single run per coordinate, replicate counts never
	// inflated), and the dropped combinations are reported in
	// Result.Skipped — a mixed-width grid like Volumes {1,4} ×
	// RouteSkews {0,1.2} runs in one invocation.
	RouteSkews []float64 `json:"route_skews"`
	// RouteVariant selects the ARRAY-LB controller's adaptation
	// mechanism, "weighted" (default) or "p2c". A scalar, not an axis;
	// it only affects ARRAY-LB cells.
	RouteVariant string `json:"route_variant,omitempty"`
	// Replicates is the number of seed replicates per cell (≥1). Replicate
	// r runs with seed sim.Stream(Seed, r): every scheme of a replicate
	// shares that seed (the controlled comparison), and the split depends
	// only on (Seed, r), never on scheduling.
	Replicates int `json:"replicates"`
	// Seed is the base seed (default 1).
	Seed int64 `json:"seed"`
	// Intervals overrides the per-run interval count (0 = the paper's
	// length for each workload); Interval the monitor interval in
	// nanoseconds of virtual time (0 = 200 ms).
	Intervals int           `json:"intervals"`
	Interval  time.Duration `json:"interval_ns"`
	// WarmupIntervals, when > 0, turns on incremental (warm-fork) sweeps:
	// the schemes of one controlled comparison — cells identical on every
	// axis except the scheme — share a single simulated prefix of this
	// many monitor intervals. One leader run (LBICA) executes the prefix,
	// the sibling cells fork its complete state at the barrier
	// (engine.Fork: engine, cache, queues, devices, RNG positions), and
	// every branch runs to completion independently. Results are
	// byte-identical to the default from-scratch execution; cells that
	// cannot share (multi-volume arrays, SIB, groups without a forkable
	// leader, a leader whose balancer already acted before the barrier)
	// silently fall back to scratch runs. Anything that distinguishes the
	// warmup prefix — workload, cache geometry, rate factor, burst
	// multiplier, volume count, route skew, replicate seed — keys the
	// grouping, so only true controlled comparisons ever share. 0 (the
	// default) runs every cell from scratch.
	//
	// Excluded from the JSON grid echo: warm-fork is an execution
	// strategy, not a grid axis, and the emitted sweep.json must stay
	// byte-for-byte independent of it.
	WarmupIntervals int `json:"-"`
	// WarmCacheDir, when non-empty, backs warm-fork sweeps with the
	// persistent checkpoint store rooted at that directory: each shared
	// warmup prefix is looked up there before being simulated and written
	// through after (experiments.RunWarmSharedCached), so repeated
	// invocations — narrowing a grid, adding replicates, re-running after
	// a crash — skip the warmup simulation entirely. Results stay
	// byte-identical to uncached execution; a corrupt or version-skewed
	// entry silently falls back to simulation and is overwritten. Requires
	// WarmupIntervals > 0 (the cache stores warm prefixes; with no warmup
	// there is nothing to persist).
	//
	// Excluded from the JSON grid echo for the same reason as
	// WarmupIntervals: an execution strategy must not change the emitted
	// sweep bytes.
	WarmCacheDir string `json:"-"`
	// CITolerance, when > 0, turns on cross-cell early termination: the
	// sweep stops launching further seed replicates for a grid coordinate
	// once, for every scheme at that coordinate, the 95% Student-t
	// confidence half-width over the completed replicates' headline
	// metric (QMeanUS, the mean per-interval maximum cache queue time) is
	// at most CITolerance × the metric's mean — a relative tolerance, so
	// one value works across workloads with different queue-time scales.
	// At least two replicates always run per coordinate. The decision is
	// taken over the replicate prefix in expansion order, so it — and the
	// emitted output — is byte-identical for every worker count; a
	// terminated coordinate's chain simply returns its runner slot early,
	// freeing it for unfinished coordinates. Terminated cells are marked
	// (Cell.EarlyTerminated) with their achieved half-width
	// (Cell.QCIHalfUS) and actual replicate count (Cell.Replicates).
	// 0 (the default) runs every replicate; the off-mode output is
	// byte-identical to sweeps that predate the knob.
	CITolerance float64 `json:"ci_tolerance,omitempty"`
}

// Normalize fills defaulted axes in place and returns the result: empty
// axes become the paper's evaluation axes, scheme and workload names are
// canonicalized, Replicates is clamped to ≥1 and Seed to non-zero.
func (g Grid) Normalize() Grid {
	if len(g.Workloads) == 0 {
		g.Workloads = append([]string(nil), experiments.Workloads...)
	} else {
		wls := make([]string, len(g.Workloads))
		for i, wl := range g.Workloads {
			wls[i] = strings.ToLower(strings.TrimSpace(wl))
		}
		g.Workloads = wls
	}
	if len(g.Schemes) == 0 {
		g.Schemes = append([]string(nil), experiments.Schemes...)
	} else {
		scs := make([]string, len(g.Schemes))
		for i, sc := range g.Schemes {
			scs[i] = strings.ToUpper(strings.TrimSpace(sc))
		}
		g.Schemes = scs
	}
	if len(g.CacheMults) == 0 {
		g.CacheMults = []float64{1}
	}
	if len(g.RateFactors) == 0 {
		g.RateFactors = []float64{1}
	}
	if len(g.BurstMults) == 0 {
		g.BurstMults = []float64{1}
	}
	if len(g.Volumes) == 0 {
		g.Volumes = []int{1}
	}
	if len(g.RouteSkews) == 0 {
		g.RouteSkews = []float64{0}
	}
	if g.Replicates < 1 {
		g.Replicates = 1
	}
	if g.Seed == 0 {
		g.Seed = 1
	}
	return g
}

// Validate reports the first invalid axis value. Unlike the experiments
// package (whose specs are code), grids arrive from CLI flags, so bad
// names must surface as errors, not panics. Duplicate axis values are
// rejected too: a repeated value would re-run identical simulations and
// silently inflate the cell's replicate count past Grid.Replicates.
//
// Scalar fields are checked before normalization: only the zero value
// means "use the default". A negative Replicates, Intervals or Interval
// used to be silently rewritten to its default, so the sweep ran (and
// labeled) a different experiment than the one the user asked for —
// negatives are now errors.
func (g Grid) Validate() error {
	if g.Replicates < 0 {
		return fmt.Errorf("sweep: negative replicate count %d (0 means default)", g.Replicates)
	}
	if g.Intervals < 0 {
		return fmt.Errorf("sweep: negative interval count %d (0 means the paper default)", g.Intervals)
	}
	if g.Interval < 0 {
		return fmt.Errorf("sweep: negative monitor interval %v (0 means the 200ms default)", g.Interval)
	}
	if g.WarmupIntervals < 0 {
		return fmt.Errorf("sweep: negative warmup interval count %d (0 disables warm-fork sharing)", g.WarmupIntervals)
	}
	if g.WarmCacheDir != "" && g.WarmupIntervals <= 0 {
		return fmt.Errorf("sweep: warm cache directory %q set without warmup intervals (the cache stores warm prefixes; set WarmupIntervals > 0)", g.WarmCacheDir)
	}
	// Same shape as the cache-mult check below: a bare `< 0` would wave
	// NaN through (every comparison false) into the termination decision.
	if !(g.CITolerance >= 0) || math.IsInf(g.CITolerance, 0) {
		return fmt.Errorf("sweep: invalid CI tolerance %v (want a finite value ≥ 0; 0 disables early termination)", g.CITolerance)
	}
	g = g.Normalize()
	for _, wl := range g.Workloads {
		// The workload catalog (paper trio + synthetic + burst-mix
		// families) is the source of truth for valid names.
		if err := experiments.ValidateWorkload(wl); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, sc := range g.Schemes {
		switch sc {
		case experiments.SchemeWB, experiments.SchemeSIB, experiments.SchemeLBICA, experiments.SchemeArrayLB:
		default:
			return fmt.Errorf("sweep: unknown scheme %q (want wb|sib|lbica|array-lb)", sc)
		}
	}
	if _, err := array.ParseVariant(g.RouteVariant); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	// Bounded open intervals, not mere positivity: NaN and ±Inf slip
	// through a `<= 0` check (both comparisons are false) and hang the
	// simulation, and a finite-but-absurd multiplier overflows the set
	// count downstream. The cache ceiling of 512× (a 128 GiB cache) is
	// exactly where experiments.RunContext's set-count clamp saturates at
	// the default geometry — above it, distinct multipliers would run
	// byte-identical simulations labeled as different cells.
	for _, cm := range g.CacheMults {
		if !(cm > 0 && cm <= 512) {
			return fmt.Errorf("sweep: cache multiplier %v outside (0, 512]", cm)
		}
	}
	for _, rf := range g.RateFactors {
		if !(rf > 0 && rf <= 1e4) {
			return fmt.Errorf("sweep: rate factor %v outside (0, 10000]", rf)
		}
	}
	// The burst ceiling mirrors the burst-mix family's ON-rate bound: a
	// 100× ON rate on the heaviest phase is already far past saturation.
	for _, bm := range g.BurstMults {
		if !(bm > 0 && bm <= 100) {
			return fmt.Errorf("sweep: burst multiplier %v outside (0, 100]", bm)
		}
	}
	for _, v := range g.Volumes {
		if v < 1 || v > array.MaxVolumes {
			return fmt.Errorf("sweep: volume count %d outside [1, %d]", v, array.MaxVolumes)
		}
	}
	// Skew over a width-1 volume entry is not an error: skew is inert at
	// one volume, so Expand canonicalizes those cells to skew 0 and
	// deduplicates them (the skipped combinations land in Result.Skipped).
	for _, rs := range g.RouteSkews {
		if !(rs >= 0 && rs <= array.MaxSkew) {
			return fmt.Errorf("sweep: route skew %v outside [0, %v]", rs, array.MaxSkew)
		}
	}
	for _, axis := range []struct{ name, dup string }{
		{"workload", dupString(g.Workloads)},
		{"scheme", dupString(g.Schemes)},
		{"cache multiplier", dupFloat(g.CacheMults)},
		{"rate factor", dupFloat(g.RateFactors)},
		{"burst multiplier", dupFloat(g.BurstMults)},
		{"volume count", dupInt(g.Volumes)},
		{"route skew", dupFloat(g.RouteSkews)},
	} {
		if axis.dup != "" {
			return fmt.Errorf("sweep: duplicate %s %s in grid axis", axis.name, axis.dup)
		}
	}
	return nil
}

// dupString returns the first repeated value ("" if none).
func dupString(vals []string) string {
	seen := make(map[string]bool, len(vals))
	for _, v := range vals {
		if seen[v] {
			return v
		}
		seen[v] = true
	}
	return ""
}

// dupInt returns the first repeated value formatted ("" if none).
func dupInt(vals []int) string {
	seen := make(map[int]bool, len(vals))
	for _, v := range vals {
		if seen[v] {
			return fmt.Sprintf("%d", v)
		}
		seen[v] = true
	}
	return ""
}

// dupFloat returns the first repeated value formatted ("" if none).
func dupFloat(vals []float64) string {
	seen := make(map[float64]bool, len(vals))
	for _, v := range vals {
		if seen[v] {
			return fmt.Sprintf("%v", v)
		}
		seen[v] = true
	}
	return ""
}

// effSkews returns the route-skew values that actually run at a given
// array width: the full axis when vol > 1, and the canonical single
// skew-0 cell when vol == 1 (skew is inert at one volume — every value
// would run the identical simulation, so the non-zero entries collapse
// instead of inflating the cell count).
func effSkews(vol int, skews []float64) []float64 {
	if vol > 1 {
		return skews
	}
	return zeroSkew[:]
}

var zeroSkew = [1]float64{0}

// SkippedCombos reports the (volume count, route skew) combinations the
// expansion drops as inert — human-readable, for Result.Skipped and the
// CLI log.
func (g Grid) SkippedCombos() []string {
	g = g.Normalize()
	has1 := false
	for _, v := range g.Volumes {
		if v == 1 {
			has1 = true
		}
	}
	if !has1 {
		return nil
	}
	var out []string
	for _, rs := range g.RouteSkews {
		if rs != 0 {
			out = append(out, fmt.Sprintf("volumes 1 × route skew %v: skew is inert at one volume; canonicalized to the skew-0 cell", rs))
		}
	}
	return out
}

// Size returns the number of runs the grid expands to — the product of
// the axis lengths (after defaulting), except that width-1 volume entries
// contribute a single canonical skew-0 cell however long the skew axis is
// (see effSkews). Always equal to len(Expand()).
func (g Grid) Size() int {
	g = g.Normalize()
	cells := 0
	for _, vol := range g.Volumes {
		cells += len(effSkews(vol, g.RouteSkews))
	}
	return len(g.Workloads) * len(g.Schemes) * len(g.CacheMults) * len(g.RateFactors) *
		len(g.BurstMults) * cells * g.Replicates
}

// Point is one expanded run: its grid coordinates plus the ready-to-run
// spec.
type Point struct {
	Workload   string
	Scheme     string
	CacheMult  float64
	RateFactor float64
	BurstMult  float64
	Volumes    int
	RouteSkew  float64
	Replicate  int
	Spec       experiments.Spec
}

// Expand enumerates the grid in deterministic order — workload-major, then
// cache multiplier, rate factor, burst multiplier, volume count, route
// skew, replicate, and scheme innermost, so the schemes of one controlled
// comparison are adjacent in the run order. Expansion is a pure function
// of the grid: the same Grid always yields the same points in the same
// order.
func (g Grid) Expand() []Point {
	g = g.Normalize()
	pts := make([]Point, 0, g.Size())
	for _, wl := range g.Workloads {
		for _, cm := range g.CacheMults {
			for _, rf := range g.RateFactors {
				for _, bm := range g.BurstMults {
					for _, vol := range g.Volumes {
						for _, rs := range effSkews(vol, g.RouteSkews) {
							for rep := 0; rep < g.Replicates; rep++ {
								seed := sim.Stream(g.Seed, rep)
								for _, sc := range g.Schemes {
									spec := experiments.Spec{
										Workload:   wl,
										Scheme:     sc,
										Seed:       seed,
										Intervals:  g.Intervals,
										Interval:   g.Interval,
										RateFactor: rf,
										CacheMult:  cm,
										BurstMult:  bm,
										Volumes:    vol,
										RouteSkew:  rs,
										// The cell pool already saturates the cores;
										// a second GOMAXPROCS-wide shard pool per array
										// cell would oversubscribe the CPU multiplicatively.
										// Output is byte-identical for any shard worker
										// count, so serial shards cost nothing but heat.
										ShardWorkers: 1,
									}
									if sc == experiments.SchemeArrayLB {
										spec.RouteVariant = g.RouteVariant
									}
									pts = append(pts, Point{
										Workload:   wl,
										Scheme:     sc,
										CacheMult:  cm,
										RateFactor: rf,
										BurstMult:  bm,
										Volumes:    vol,
										RouteSkew:  rs,
										Replicate:  rep,
										Spec:       spec,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return pts
}

// Run is the record of one finished simulation: the point's coordinates
// plus the scalar metrics the aggregation consumes. QMeanUS is the mean of
// the per-interval maximum cache queue times (the Fig. 4 metric, µs);
// DiskQMeanUS the disk-subsystem counterpart (Fig. 5).
type Run struct {
	Workload     string  `json:"workload"`
	Scheme       string  `json:"scheme"`
	CacheMult    float64 `json:"cache_mult"`
	RateFactor   float64 `json:"rate_factor"`
	BurstMult    float64 `json:"burst_mult"`
	Volumes      int     `json:"volumes"`
	RouteSkew    float64 `json:"route_skew"`
	Replicate    int     `json:"replicate"`
	Seed         int64   `json:"seed"`
	QMeanUS      float64 `json:"q_mean_us"`
	DiskQMeanUS  float64 `json:"disk_q_mean_us"`
	AvgLatencyUS float64 `json:"avg_latency_us"`
	HitRatio     float64 `json:"hit_ratio"`
	PolicyFlips  int     `json:"policy_flips"`
	Requests     uint64  `json:"requests"`
}

// Options tunes a sweep execution.
type Options struct {
	// Workers caps the runner pool (≤0 = GOMAXPROCS; 1 = the serial
	// baseline the determinism test compares against).
	Workers int
	// OnDone, when non-nil, observes completion (serialized, completion
	// order): done runs out of total.
	OnDone func(done, total int)
	// SeriesDir, when non-empty, exports each completed run's per-interval
	// series — cache/disk load, hit ratio, balancer group and policy in
	// force — as one CSV per cell into the directory (created if needed).
	// Files are written after the sweep finishes, in expansion order, so
	// their bytes are identical for every worker count.
	SeriesDir string
}

// Result is a finished (or interrupted) sweep: the normalized grid, every
// completed run in expansion order, and the per-cell aggregation.
type Result struct {
	Grid  Grid   `json:"grid"`
	Runs  []Run  `json:"runs"`
	Cells []Cell `json:"cells"`
	// Total is the grid size; Completed counts the runs that finished. On
	// an interrupted sweep Completed < Total and Runs/Cells cover only the
	// finished work — the partial report.
	Total     int `json:"total"`
	Completed int `json:"completed"`
	// Skipped lists the inert axis combinations the expansion collapsed
	// instead of running (currently: non-zero route skews at volume count
	// 1, canonicalized to the skew-0 cell).
	Skipped []string `json:"skipped,omitempty"`
	// Warm summarizes the warm-fork plan's outcomes (nil when
	// WarmupIntervals is 0): how many runs led a shared warmup, forked
	// one, or fell back to scratch — and why. Execution metadata, not
	// sweep output: excluded from the JSON report so warm and scratch
	// sweeps still emit byte-identical bytes.
	Warm *WarmStats `json:"-"`
}

// WarmStats counts a warm-fork sweep's per-run plan outcomes, so a
// regression to 0% sharing is visible instead of a silent slowdown.
type WarmStats struct {
	// Leaders ran (or restored) the shared warmup prefix themselves;
	// Forked reused a leader's prefix via a deep-copy fork; Scratch ran
	// from scratch.
	Leaders int
	Forked  int
	Scratch int
	// Fallbacks keys scratch runs by reason (the experiments.WarmReason*
	// constants: "no-leader", "sib", "balancer-acted", "multi-volume",
	// "fork-error").
	Fallbacks map[string]int
	// Persistent-cache tallies (all zero unless Grid.WarmCacheDir is
	// set), orthogonal to the plan-structure counts above: both a
	// leader's shared prefix and a scratch member's private one go
	// through the store. CacheHits runs restored their warmup prefix
	// from the store; CacheStores simulated it and published the
	// checkpoint; CacheCorrupt counts the stores that were fallbacks
	// from an unusable entry (truncated, checksum mismatch, version
	// skew, failed restore) — each such run is counted in both
	// CacheStores and CacheCorrupt.
	CacheHits    int
	CacheStores  int
	CacheCorrupt int
}

// observe folds one run's warm outcome into the counts. Kind and Cache
// are orthogonal: Leaders + Forked + Scratch always equals the number of
// warm-planned runs, cached or not, and the cache tallies count store
// traffic regardless of the run's place in the plan.
func (w *WarmStats) observe(o experiments.WarmOutcome) {
	switch o.Kind {
	case experiments.WarmLeader:
		w.Leaders++
	case experiments.WarmForked:
		w.Forked++
	case experiments.WarmScratch:
		w.Scratch++
		if w.Fallbacks == nil {
			w.Fallbacks = make(map[string]int)
		}
		w.Fallbacks[o.Reason]++
	}
	switch o.Cache {
	case experiments.WarmCacheHit:
		w.CacheHits++
	case experiments.WarmCacheStore:
		w.CacheStores++
	case experiments.WarmCacheCorrupt:
		w.CacheStores++
		w.CacheCorrupt++
	}
}

// runUnit executes one scheduling unit: a warm-fork group when
// WarmupIntervals is set (sharing members reuse the leader's prefix —
// restored from the checkpoint store when one is given — and outcomes
// are recorded), plain sequential scratch runs otherwise.
func runUnit(ctx context.Context, g Grid, store *checkpoint.Store, pts []Point, idx []int) ([]*engine.Results, []experiments.WarmOutcome) {
	specs := make([]experiments.Spec, len(idx))
	for k, i := range idx {
		specs[k] = pts[i].Spec
	}
	if g.WarmupIntervals > 0 {
		return experiments.RunWarmSharedCached(ctx, specs, g.WarmupIntervals, store)
	}
	rs := make([]*engine.Results, len(specs))
	for k, spec := range specs {
		if ctx.Err() != nil {
			break
		}
		rs[k] = experiments.RunContext(ctx, spec)
	}
	return rs, nil
}

// chainResult is one chain's outcome: the point indexes of the units it
// ran, in order, with their engine results, the warm-plan outcomes of
// warm-fork units, and whether the chain stopped early.
type chainResult struct {
	idx     []int
	res     []*engine.Results
	warm    []experiments.WarmOutcome
	stopped bool
}

// runChain walks one chain's units in order, reporting each finished
// unit's run count to progress. With a CI tolerance set, a chain's units
// are one coordinate's replicate groups, and it stops — freeing its
// runner slot for unfinished chains — once every scheme's confidence
// interval over the replicates so far is tight.
func runChain(ctx context.Context, g Grid, store *checkpoint.Store, pts []Point, chain [][]int, progress func(int)) (chainResult, error) {
	var out chainResult
	vals := make([][]float64, len(g.Schemes))
	for k, unit := range chain {
		res, warm := runUnit(ctx, g, store, pts, unit)
		if err := ctx.Err(); err != nil {
			// The interrupted unit — and, because a job error drops the
			// whole slot, the chain — is discarded: partial reports
			// contain only whole runs.
			return out, err
		}
		out.idx = append(out.idx, unit...)
		out.res = append(out.res, res...)
		out.warm = append(out.warm, warm...)
		progress(len(unit))
		if g.CITolerance > 0 {
			for s, r := range res {
				vals[s] = append(vals[s], r.CacheLoadMean()/1e3)
			}
			if k+1 < len(chain) && k+1 >= minCIReplicates && allTight(vals, g.CITolerance) {
				out.stopped = true
				break
			}
		}
	}
	return out, nil
}

// Execute expands the grid and fans the runs out across the bounded
// runner pool: one job per chain of scheduling units (planChains). The
// returned Result is byte-identical for every worker count (see the
// package comment): every job writes only its own points' slots, and an
// early-termination decision reads only its chain's own replicate prefix,
// in expansion order. With CITolerance set the output does NOT match the
// tolerance-off output whenever a chain actually terminates (that is the
// point); with no termination triggered the runs, cells and report bytes
// are identical apart from the per-cell CI annotations. On cancellation
// the error is non-nil and the Result still aggregates every run that
// completed — the CLI's SIGINT partial report.
func Execute(ctx context.Context, g Grid, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Validate before normalizing: Validate distinguishes "zero = use the
	// default" from invalid negatives, which normalization would erase.
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g = g.Normalize()
	store, err := openWarmStore(g)
	if err != nil {
		return nil, err
	}
	pts := g.Expand()
	chains := planChains(g, pts)
	var mu sync.Mutex
	donePts := 0
	progress := func(n int) {
		if opt.OnDone == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		donePts += n
		opt.OnDone(donePts, len(pts))
	}
	// Slots of runs that never finished stay nil: an interrupted chain
	// returns an error, and runner.Map drops a failed job's value.
	chainRes, err := runner.Map(ctx, len(chains), runner.Options{Workers: opt.Workers},
		func(ctx context.Context, c int) (chainResult, error) {
			return runChain(ctx, g, store, pts, chains[c], progress)
		})
	cells := make([]*engine.Results, len(pts))
	stopped := make(map[coordID]bool)
	res := &Result{Grid: g, Total: len(pts), Skipped: g.SkippedCombos()}
	if g.WarmupIntervals > 0 {
		res.Warm = &WarmStats{}
	}
	for _, cr := range chainRes {
		for k, i := range cr.idx {
			cells[i] = cr.res[k]
		}
		if cr.stopped {
			stopped[pointCoord(pts[cr.idx[0]])] = true
		}
		for _, o := range cr.warm {
			res.Warm.observe(o)
		}
	}
	for i, er := range cells {
		if er != nil {
			res.Runs = append(res.Runs, newRun(pts[i], er))
		}
	}
	res.Completed = len(res.Runs)
	res.Cells = Aggregate(res.Runs)
	if g.CITolerance > 0 {
		res.annotateCI(stopped)
	}
	if opt.SeriesDir != "" {
		// After the fan-out, in expansion order: the exported bytes depend
		// only on each run's own results, never on completion order, which
		// extends the worker-count determinism guarantee to the series
		// files. An interrupted sweep exports the runs that finished.
		err = errors.Join(err, ExportSeries(opt.SeriesDir, pts, cells))
	}
	return res, err
}

// openWarmStore opens the grid's persistent warm cache, or returns a nil
// store — RunWarmSharedCached's "no cache" mode — when none is
// configured. Opening re-validates the directory (created if missing,
// must be a writable directory) so a sweep constructed programmatically
// gets the same eager failure the CLI's flag validation gives.
func openWarmStore(g Grid) (*checkpoint.Store, error) {
	if g.WarmCacheDir == "" {
		return nil, nil
	}
	store, err := checkpoint.Open(g.WarmCacheDir)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	return store, nil
}

// minCIReplicates is the floor below which early termination never
// triggers: a confidence interval needs at least two observations.
const minCIReplicates = 2

// allTight reports whether every scheme's 95% confidence half-width over
// its completed replicates' QMeanUS values is within tol × the absolute
// mean. The comparison is false for n < 2 (half-width +Inf), so a
// one-replicate prefix never terminates.
func allTight(vals [][]float64, tol float64) bool {
	for _, v := range vals {
		mean := 0.0
		for _, x := range v {
			mean += x
		}
		mean /= float64(len(v))
		if !(stats.HalfWidth95(v) <= tol*math.Abs(mean)) {
			return false
		}
	}
	return true
}

// coordID identifies a grid coordinate — every axis except scheme and
// replicate, the two a termination decision spans.
type coordID struct {
	workload   string
	cacheMult  float64
	rateFactor float64
	burstMult  float64
	volumes    int
	routeSkew  float64
}

func pointCoord(p Point) coordID {
	return coordID{p.Workload, p.CacheMult, p.RateFactor, p.BurstMult, p.Volumes, p.RouteSkew}
}

// planChains partitions the expanded points into chains of scheduling
// units; one runner job walks one chain, unit by unit. Without a CI
// tolerance every planUnits unit is a chain of its own — the classic,
// fully parallel sweep. With one, the unit is a replicate group (one
// coordinate's points for one replicate, which a warm-fork sweep shares
// as one group too) and a chain holds one coordinate's groups in
// replicate order: Expand keeps replicate and scheme the two innermost
// loops, so each group lists the schemes in grid order.
func planChains(g Grid, pts []Point) [][][]int {
	var chains [][][]int
	if g.CITolerance <= 0 {
		for _, u := range planUnits(g, pts) {
			chains = append(chains, [][]int{u})
		}
		return chains
	}
	groups := spans(pts, func(a, b Point) bool {
		return pointCoord(a) == pointCoord(b) && a.Replicate == b.Replicate
	})
	for _, grp := range groups {
		if n := len(chains); n > 0 && pointCoord(pts[chains[n-1][0][0]]) == pointCoord(pts[grp[0]]) {
			chains[n-1] = append(chains[n-1], grp)
		} else {
			chains = append(chains, [][]int{grp})
		}
	}
	return chains
}

// spans partitions the point indexes into maximal runs of consecutive
// points that same joins.
func spans(pts []Point, same func(a, b Point) bool) [][]int {
	out := make([][]int, 0, len(pts))
	for i := range pts {
		if i > 0 && same(pts[i-1], pts[i]) {
			out[len(out)-1] = append(out[len(out)-1], i)
		} else {
			out = append(out, []int{i})
		}
	}
	return out
}

// annotateCI stamps every cell with its achieved confidence half-width
// and whether its coordinate terminated early — only called when
// CITolerance is set, so tolerance-off sweeps never populate the fields.
func (r *Result) annotateCI(stopped map[coordID]bool) {
	for ci := range r.Cells {
		c := &r.Cells[ci]
		c.EarlyTerminated = stopped[coordID{c.Workload, c.CacheMult, c.RateFactor, c.BurstMult, c.Volumes, c.RouteSkew}]
		var vals []float64
		for _, run := range r.Runs {
			if run.Workload == c.Workload && run.Scheme == c.Scheme && run.CacheMult == c.CacheMult &&
				run.RateFactor == c.RateFactor && run.BurstMult == c.BurstMult && run.Volumes == c.Volumes &&
				run.RouteSkew == c.RouteSkew {
				vals = append(vals, run.QMeanUS)
			}
		}
		// Fewer than two replicates carry no interval; zero (not the
		// mathematical +Inf) keeps the field JSON-encodable.
		if len(vals) >= minCIReplicates {
			c.QCIHalfUS = stats.HalfWidth95(vals)
		}
	}
}

// warmKey strips the fields that distinguish the schemes of one
// controlled comparison: everything left — workload, seed, intervals,
// rate, cache and burst multipliers, volume count, route skew — shapes
// the shared warmup prefix, so two specs with equal keys are the same
// simulation until a balancer first acts. RouteVariant is stripped too:
// it is set only on ARRAY-LB cells — inert at one volume, and at more
// the ARRAY-LB member runs scratch anyway (its controller diverges from
// the group's statically routed prefix at the first barrier).
func warmKey(s experiments.Spec) experiments.Spec {
	s.Scheme = ""
	s.RouteVariant = ""
	return s
}

// planUnits partitions the expanded points into scheduling units. With
// warm-fork sharing off every point is its own unit (the classic fully
// parallel sweep). With it on, maximal runs of consecutive points that
// agree on warmKey form one unit each — Expand keeps a comparison's
// schemes adjacent (scheme is the innermost loop), so the grouping is a
// single pass.
func planUnits(g Grid, pts []Point) [][]int {
	return spans(pts, func(a, b Point) bool {
		return g.WarmupIntervals > 0 && warmKey(a.Spec) == warmKey(b.Spec)
	})
}

func newRun(pt Point, er *engine.Results) Run {
	return Run{
		Workload:     pt.Workload,
		Scheme:       pt.Scheme,
		CacheMult:    pt.CacheMult,
		RateFactor:   pt.RateFactor,
		BurstMult:    pt.BurstMult,
		Volumes:      pt.Volumes,
		RouteSkew:    pt.RouteSkew,
		Replicate:    pt.Replicate,
		Seed:         pt.Spec.Seed,
		QMeanUS:      er.CacheLoadMean() / 1e3,
		DiskQMeanUS:  er.DiskLoadMean() / 1e3,
		AvgLatencyUS: float64(er.AppLatency.Mean()) / 1e3,
		HitRatio:     er.CacheStats.HitRatio(),
		PolicyFlips:  len(er.Timeline),
		Requests:     er.AppCompleted,
	}
}
