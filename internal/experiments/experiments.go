// Package experiments regenerates the paper's evaluation section: every
// figure (Figs. 4–7) plus the headline aggregates quoted in the abstract
// and §IV, from full simulation runs of the 3 workloads × 3 schemes
// matrix.
//
// It is also the repository's single run builder. Spec describes one run
// — the paper matrix cells, sweep grid points, warm-shared groups and every
// lbica facade option alike — and this package alone turns a Spec into
// engine stacks: volumeConfig derives a volume's engine configuration,
// newStack builds the stack, and RunVolumes, the warm planner and
// the single-run checkpoint functions all go through them.
package experiments

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"lbica/internal/array"
	"lbica/internal/block"
	"lbica/internal/cache"
	"lbica/internal/checkpoint"
	"lbica/internal/core"
	"lbica/internal/engine"
	"lbica/internal/ioqueue"
	"lbica/internal/runner"
	"lbica/internal/sib"
	"lbica/internal/sim"
	"lbica/internal/stats"
	"lbica/internal/trace"
	"lbica/internal/workload"
)

// Schemes under comparison.
const (
	SchemeWB    = "WB"
	SchemeSIB   = "SIB"
	SchemeLBICA = "LBICA"
	// SchemeArrayLB runs per-volume LBICA plus the array-level controller
	// (internal/array.NewAdaptive): adaptive weighted routing and hot-
	// block migration, re-decided at every monitor-interval barrier. At
	// Volumes == 1 there is nothing to balance across and the scheme
	// degenerates to plain LBICA (relabeled in the results).
	SchemeArrayLB = "ARRAY-LB"
)

// Static-policy schemes: no balancer, the cache pinned to one write
// policy for the whole run. They are not part of the paper's comparison
// (the sweep grid rejects them); the lbica facade and its policy-comparison
// example run them.
const (
	SchemeWT   = "WT"
	SchemeRO   = "RO"
	SchemeWO   = "WO"
	SchemeWTWO = "WTWO"
)

// staticPolicies maps each static-policy scheme to the policy it pins.
var staticPolicies = map[string]cache.Policy{
	SchemeWT: cache.WT, SchemeRO: cache.RO, SchemeWO: cache.WO, SchemeWTWO: cache.WTWO,
}

// Workloads of the evaluation.
const (
	WorkloadTPCC = "tpcc"
	WorkloadMail = "mail"
	WorkloadWeb  = "web"
)

// Workloads lists the evaluation workloads in paper order.
var Workloads = []string{WorkloadTPCC, WorkloadMail, WorkloadWeb}

// Schemes lists the schemes in paper order.
var Schemes = []string{SchemeWB, SchemeSIB, SchemeLBICA}

// MaxRateFactor bounds Spec.RateFactor: 10^4 times a workload's published
// IOPS is already far past saturation, and an unbounded factor shrinks
// every arrival gap to its one-nanosecond floor, so a run of seconds
// needs billions of requests.
const MaxRateFactor = 1e4

// MaxBurstMult bounds Spec.BurstMult, matching the burst-mix family's
// ON-rate bound: a 100× ON rate on the heaviest phase is already far past
// saturation.
const MaxBurstMult = 100

// Spec describes one run. It is the single run description every stack is
// built from — the paper matrix, sweep grids, warm-shared groups and the
// lbica facade alike — and it stays comparable (the sweep groups specs
// with ==), so variable-length inputs ride behind pointers.
type Spec struct {
	// Workload names a workload-catalog entry (workload.Default),
	// case-insensitively; Normalize lower-cases it. Ignored when Phases or
	// Replay supply the stream.
	Workload string
	Scheme   string
	Seed     int64
	// Intervals defaults to the paper's length for the workload (200;
	// 175 for web; 200 for a custom Phases schedule). Interval defaults to
	// 200 ms. RateFactor defaults to 1 and is at most MaxRateFactor. The
	// run's span, Intervals × Interval, is at most workload.MaxArrival, and
	// Intervals × Volumes at most array.MaxVolumeIntervals.
	Intervals  int
	Interval   time.Duration
	RateFactor float64
	// CacheMult scales the SSD cache capacity relative to the paper's
	// 256 MiB configuration by multiplying the set count (associativity is
	// untouched, so Eq. 1 queue dynamics per set are preserved). Defaults
	// to 1; the prewarm volume tracks the scaled capacity.
	CacheMult float64
	// BurstMult scales every bursting phase's ON-rate and ON/OFF duty
	// cycle (workload.Scale.BurstMult). Defaults to 1, the workload's
	// published burst shape, and is at most MaxBurstMult.
	BurstMult float64
	// Volumes is the array width: how many independent cache+disk stacks
	// the run shards the workload across (internal/array). Defaults to 1,
	// the paper's single-stack configuration, which bypasses the array
	// layer entirely.
	Volumes int
	// RoutePolicy selects how the array router splits the stream across
	// volumes: "uniform", "hash" or "zipf". Empty means "zipf" when
	// RouteSkew > 0 and "uniform" otherwise. Meaningful only when
	// Volumes > 1.
	RoutePolicy string
	// RouteSkew is the Zipf exponent of the router's volume-popularity
	// distribution (0 = uniform routing weights) — the skewed-routing
	// axis. Requires Volumes > 1 when non-zero. Under ARRAY-LB it sets
	// the controller's *initial* weights only; measurements take over
	// from the first interval barrier.
	RouteSkew float64
	// RouteVariant selects the ARRAY-LB controller's adaptation
	// mechanism: "weighted" (inverse-load weights, the default) or "p2c"
	// (power-of-two-choices). Meaningful only under SchemeArrayLB.
	RouteVariant string
	// ShardWorkers caps the array's volume-per-core fan-out (≤0 =
	// GOMAXPROCS; 1 = the serial baseline the determinism tests compare
	// against). Output is byte-identical for every value.
	ShardWorkers int
	// Thresholds overrides LBICA's census-classifier calibration
	// (core.Thresholds). The zero value is the paper's calibrated
	// defaults; zero fields inherit their default individually.
	Thresholds core.Thresholds

	// Name labels a custom (Phases) or replayed workload — the generator's
	// name, which the results carry — defaulting to "custom" and
	// "replay". It is also appended to the workload's RNG stream name.
	Name string
	// Phases, when non-nil, replaces the named workload with a custom
	// phase schedule, used as given (RateFactor and BurstMult do not
	// rescale it).
	Phases *[]workload.Phase
	// Replay, when non-nil, replays a recorded request stream instead of
	// generating one. An array routes it exactly like a generated stream;
	// the slice is only read.
	Replay *[]workload.Request

	// CacheMiB sizes the SSD cache (0 = 256 MiB) and CacheWays sets its
	// associativity (0 = 8); CacheMult then scales the set count.
	CacheMiB  int
	CacheWays int
	// Replacement selects the in-set victim policy: "lru" (the default,
	// also ""), "fifo" or "rand".
	Replacement string
	// DiskElevator dispatches the disk queue in LOOK order over a
	// distance-proportional seek model.
	DiskElevator bool
	// DisablePrewarm starts the cache cold.
	DisablePrewarm bool

	// Hooks, when non-nil, observes a single-volume run: it never shapes
	// the simulation, and an array run rejects it (per-volume streams
	// would interleave).
	Hooks *Hooks

	// restoreTarget builds a run only for a checkpoint to be decoded onto
	// (Spec.restoreRun). It is a build flag, not part of the run: the
	// restored state is the same with or without it.
	restoreTarget bool
}

// Hooks are a single-volume run's observers.
type Hooks struct {
	// Trace, when non-nil, receives every block-layer event.
	Trace trace.Recorder
	// Record, when non-nil, collects the application request stream as
	// the generator emits it (workload.SaveRequests writes it out).
	Record *[]workload.Request
}

// Normalize fills defaulted fields and returns the result. Only the zero
// value of a field means "use the default": an invalid spec panics —
// specs are code, and silently clamping a bad value would run a different
// experiment than the one the spec labels. Specs built from user input
// are checked with Validate first.
func (s Spec) Normalize() Spec {
	n, err := s.normalize()
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return n
}

// Validate reports the first invalid field: Normalize's checks as an
// error, for specs built from user input.
func (s Spec) Validate() error {
	_, err := s.normalize()
	return err
}

func (s Spec) normalize() (Spec, error) {
	if s.Intervals < 0 || s.Interval < 0 || s.RateFactor < 0 || s.CacheMult < 0 || s.BurstMult < 0 ||
		s.Volumes < 0 || s.CacheMiB < 0 || s.CacheWays < 0 {
		return s, fmt.Errorf("negative spec field (intervals %d, interval %v, rate %v, cache mult %v, burst mult %v, volumes %d, cache %d MiB, %d ways); zero means default, negatives are invalid",
			s.Intervals, s.Interval, s.RateFactor, s.CacheMult, s.BurstMult, s.Volumes, s.CacheMiB, s.CacheWays)
	}
	// `!(x <= max)`, not `x > max`: NaN fails every comparison.
	if !(s.RateFactor <= MaxRateFactor) {
		return s, fmt.Errorf("rate factor %v outside [0, %v] (0 means default)", s.RateFactor, MaxRateFactor)
	}
	if !(s.BurstMult <= MaxBurstMult) {
		return s, fmt.Errorf("burst multiplier %v outside [0, %v] (0 means default)", s.BurstMult, MaxBurstMult)
	}
	if s.Volumes == 0 {
		s.Volumes = 1
	}
	if s.Volumes == 1 && (s.RouteSkew != 0 || s.RoutePolicy != "") {
		return s, fmt.Errorf("spec routes a single-volume run (policy %q, skew %v); routing needs Volumes > 1", s.RoutePolicy, s.RouteSkew)
	}
	if s.Volumes > 1 && s.Hooks != nil {
		return s, fmt.Errorf("trace and record hooks need a single volume (per-volume streams would interleave)")
	}
	if s.Scheme == SchemeArrayLB {
		if s.RoutePolicy != "" {
			return s, fmt.Errorf("spec sets RoutePolicy %q under ARRAY-LB; the controller owns routing (RouteSkew seeds its initial weights)", s.RoutePolicy)
		}
		if _, err := array.ParseVariant(s.RouteVariant); err != nil {
			return s, err
		}
	} else if s.RouteVariant != "" {
		return s, fmt.Errorf("spec sets RouteVariant %q under scheme %q; variants apply to ARRAY-LB only", s.RouteVariant, s.Scheme)
	}
	acfg, err := s.arrayConfig()
	if err == nil {
		err = acfg.Validate()
	}
	if err != nil {
		return s, err
	}
	if err := s.Thresholds.Validate(); err != nil {
		return s, err
	}
	if _, static := staticPolicies[s.Scheme]; !static {
		switch s.Scheme {
		case SchemeWB, SchemeSIB, SchemeLBICA, SchemeArrayLB:
		default:
			return s, fmt.Errorf("unknown scheme %q", s.Scheme)
		}
	}
	s.Workload = strings.ToLower(s.Workload)
	switch {
	case s.Phases != nil && s.Replay != nil:
		return s, fmt.Errorf("spec sets both a phase schedule and a replay stream")
	case s.Phases == nil && s.Replay == nil:
		if _, err := workload.Default.Resolve(s.Workload); err != nil {
			return s, err
		}
	case s.Phases != nil:
		if err := workload.ValidatePhases(*s.Phases); err != nil {
			return s, err
		}
	default:
		if err := workload.ValidateRequests(*s.Replay); err != nil {
			return s, err
		}
	}
	if s.Replacement != "" {
		if _, err := cache.ParseReplacement(s.Replacement); err != nil {
			return s, err
		}
	}
	if _, _, err := s.cacheGeometry(); err != nil {
		return s, err
	}
	s.Thresholds = s.Thresholds.Normalize()
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Intervals == 0 {
		s.Intervals = PaperIntervals(s.Workload)
		if s.Phases != nil {
			s.Intervals = 200 // a custom schedule has no paper length
		}
	}
	if s.Interval == 0 {
		s.Interval = 200 * time.Millisecond
	}
	if s.RateFactor == 0 {
		s.RateFactor = 1
	}
	if s.CacheMult == 0 {
		s.CacheMult = 1
	}
	if s.BurstMult == 0 {
		s.BurstMult = 1
	}
	// Both run-length bounds divide rather than multiply, so neither
	// product can overflow; Volumes is in [1, array.MaxVolumes] and
	// Intervals ≥ 1 here.
	if s.Interval > workload.MaxArrival/time.Duration(s.Intervals) {
		return s, fmt.Errorf("run of %d intervals × %v ends past the %v clock bound", s.Intervals, s.Interval, workload.MaxArrival)
	}
	if s.Intervals > array.MaxVolumeIntervals/s.Volumes {
		return s, fmt.Errorf("run of %d intervals × %d volumes exceeds the %d volume-interval bound", s.Intervals, s.Volumes, array.MaxVolumeIntervals)
	}
	if s.Phases == nil && s.Replay == nil {
		if err := workload.Default.CheckScale(s.Workload, s.scale()); err != nil {
			return s, fmt.Errorf("rate factor %v and burst multiplier %v on %s: %w", s.RateFactor, s.BurstMult, s.Workload, err)
		}
	}
	return s, nil
}

// scale is the workload.Scale a normalized spec builds its named workload
// at.
func (s Spec) scale() workload.Scale {
	return workload.Scale{
		Interval:   s.Interval,
		Intervals:  s.Intervals,
		RateFactor: s.RateFactor,
		BurstMult:  s.BurstMult,
	}
}

// cacheGeometry resolves CacheMiB and CacheWays against the default
// 256 MiB, 8-way cache and scales the set count by CacheMult: the one
// place a spec's cache geometry is computed, checked by normalize and
// read by volumeConfig. A cache that rounds below one set, or whose lines
// over all volumes exceed array.MaxCacheLines, is an error, never a clamp:
// a clamped cache is not the one the spec labels, and an unbounded one
// fails to allocate.
func (s Spec) cacheGeometry() (sets, ways int, err error) {
	d := cache.DefaultConfig()
	blocks, ways := d.Sets*d.Ways, d.Ways
	if s.CacheMiB > 0 {
		if s.CacheMiB > math.MaxInt/256 {
			return 0, 0, fmt.Errorf("cache of %d MiB overflows the block count", s.CacheMiB)
		}
		blocks = s.CacheMiB * 1024 / 4 // 4 KiB blocks
	}
	if s.CacheWays > 0 {
		ways = s.CacheWays
	}
	if blocks < ways {
		return 0, 0, fmt.Errorf("cache of %d MiB cannot hold %d ways", blocks*4/1024, ways)
	}
	f := float64(blocks / ways)
	if mult := cmp.Or(s.CacheMult, 1); mult != 1 {
		f = math.Round(f * mult)
	}
	if !(f >= 1) {
		return 0, 0, fmt.Errorf("cache multiplier %v leaves %.0f sets; a cache needs at least 1", s.CacheMult, f)
	}
	if lines := f * float64(ways) * float64(s.Volumes); lines > array.MaxCacheLines {
		return 0, 0, fmt.Errorf("cache of %.0f sets × %d ways × %d volumes = %.0f lines exceeds the %d-line bound",
			f, ways, s.Volumes, lines, array.MaxCacheLines)
	}
	return int(f), ways, nil
}

// WorkloadCatalog returns the catalog's names (exact entries, then the
// legacy aliases) and the parameterized family patterns, for CLI help
// text.
func WorkloadCatalog() (names, patterns []string) {
	return append(workload.Default.Names(), workload.Default.Aliases()...), workload.Default.Patterns()
}

// PaperIntervals returns the interval count the paper plots for a
// workload.
func PaperIntervals(wl string) int {
	if wl == WorkloadWeb {
		return 175
	}
	return 200
}

// NewGenerator builds a normalized spec's workload generator: the replay
// stream or custom phase schedule when the spec carries one, otherwise
// spec.Workload resolved through the catalog (workload.Default) — the
// paper trio, the synthetic entries, the legacy aliases and the
// parameterized synth/burst-mix families all come through here. It panics
// on unknown names: specs are code, not user input — validate names from
// users with Spec.Validate first.
func NewGenerator(spec Spec) workload.Generator {
	if spec.Replay != nil {
		return workload.NewReplay(cmp.Or(spec.Name, "replay"), *spec.Replay)
	}
	g := sim.NewRNG(spec.Seed, "workload:"+spec.Workload+spec.Name)
	if spec.Phases != nil {
		return workload.NewPhaseGen(cmp.Or(spec.Name, "custom"), *spec.Phases, g)
	}
	b, err := workload.Default.Resolve(spec.Workload)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return b(spec.scale(), g)
}

// NewBalancerWithThresholds builds the scheme's balancer (nil for the WB
// baseline) with an explicit LBICA classifier calibration (zero fields
// inherit the paper defaults). The thresholds only affect the LBICA
// scheme; WB and the static-policy schemes have no balancer and SIB no
// census classifier.
func NewBalancerWithThresholds(scheme string, th core.Thresholds) engine.Balancer {
	switch scheme {
	case SchemeWB, SchemeWT, SchemeRO, SchemeWO, SchemeWTWO:
		return nil
	case SchemeSIB:
		return sib.New(sib.DefaultConfig())
	case SchemeLBICA, SchemeArrayLB:
		// ARRAY-LB keeps the intra-volume balancer: each volume still runs
		// LBICA; the array controller adds the cross-volume layer on top.
		cfg := core.DefaultConfig()
		cfg.Thresholds = th.Normalize()
		return core.New(cfg)
	default:
		panic(fmt.Sprintf("experiments: unknown scheme %q", scheme))
	}
}

// newScheme builds a fresh balancer instance for the spec's scheme (array
// volumes each get their own) plus the write policy the cache starts in:
// the pinned policy for a static scheme, WB otherwise — SIB included,
// whose Attach switches the cache to WT+WO itself.
func (s Spec) newScheme() (engine.Balancer, cache.Policy) {
	if p, ok := staticPolicies[s.Scheme]; ok {
		return nil, p
	}
	return NewBalancerWithThresholds(s.Scheme, s.Thresholds), cache.WB
}

// arrayConfig resolves the spec's array fields. RoutePolicy defaults to
// "zipf" when a skew is set and "uniform" otherwise.
func (s Spec) arrayConfig() (array.Config, error) {
	pol, err := array.ParsePolicy(s.RoutePolicy)
	if s.RoutePolicy == "" && s.RouteSkew > 0 {
		pol = array.Zipf
	}
	return array.Config{Volumes: s.Volumes, Policy: pol, Skew: s.RouteSkew, Workers: s.ShardWorkers}, err
}

// volumeConfig derives volume vol's engine configuration from a normalized
// spec — the one place spec fields become engine knobs. A single-volume
// run keeps the run seed, so its output matches the paper harness's
// goldens; each array volume is its own hardware, drawing its devices and
// its replacement stream from Stream(seed, vol).
func (s Spec) volumeConfig(vol int) engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Seed = s.Seed
	if s.Volumes > 1 {
		cfg.Seed = sim.Stream(s.Seed, vol)
	}
	cfg.Volume = vol
	cfg.MonitorEvery = s.Interval
	if s.Replacement != "" {
		cfg.Cache.Replacement, _ = cache.ParseReplacement(s.Replacement) // validated in Normalize
		cfg.Cache.ReplacementSeed = cfg.Seed
	}
	if s.DiskElevator {
		cfg.HDDDiscipline = ioqueue.LookDispatch
		cfg.HDD.DistanceSeek = true
	}
	cfg.Cache.Sets, cfg.Cache.Ways, _ = s.cacheGeometry() // validated in Normalize
	cfg.PrewarmBlocks = cfg.Cache.Sets * cfg.Cache.Ways
	if s.DisablePrewarm || s.restoreTarget {
		cfg.PrewarmBlocks = 0
	}
	if s.Hooks != nil {
		cfg.Trace = s.Hooks.Trace
	}
	return cfg
}

// newStack builds volume vol's stack over gen: the one place a spec
// becomes an engine.Stack, for single stacks, array volumes and warm
// leaders alike.
func (s Spec) newStack(vol int, gen workload.Generator) *engine.Stack {
	bal, policy := s.newScheme()
	cfg := s.volumeConfig(vol)
	cfg.Cache.InitialPolicy = policy
	return engine.New(cfg, gen, bal)
}

// singleStack builds a single-volume spec's only stack, which also carries
// the record hook.
func (s Spec) singleStack() *engine.Stack {
	gen := NewGenerator(s)
	if s.Hooks != nil && s.Hooks.Record != nil {
		gen = workload.NewTee(gen, s.Hooks.Record)
	}
	return s.newStack(0, gen)
}

// feedStack builds array volume vol's stack over gen, the controller's
// feed for it (array.FeedBuildFunc).
func (s Spec) feedStack(vol int, gen workload.Generator) (*engine.Stack, error) {
	return s.newStack(vol, gen), nil
}

// label stamps the spec's scheme on a run's results: an ARRAY-LB volume
// runs LBICA, and a static-policy stack has no balancer (which names
// itself WB), so the stack's own name is not the run's.
func (s Spec) label(res *engine.Results) *engine.Results {
	res.Scheme = s.Scheme
	return res
}

// Run executes one workload × scheme simulation.
func Run(spec Spec) *engine.Results {
	return RunContext(context.Background(), spec)
}

// RunContext is Run with cooperative cancellation: a cancelled ctx stops
// the simulation at the next event boundary and returns the partial
// results accumulated so far.
//
// When spec.Volumes > 1 the run is a multi-volume array: each volume is a
// full stack with its own balancer instance, fed its routed sub-stream by
// one controller that pulls and routes the base stream once at every
// interval barrier, stepped volume-per-core (spec.ShardWorkers) and merged
// order-independently — the returned Results are the array-level
// reduction (see array.Merge), byte-identical for every worker count. A
// cancellation drops volumes that had not completed; the merged partial
// covers the volumes that finished.
func RunContext(ctx context.Context, spec Spec) *engine.Results {
	res, _ := RunVolumes(ctx, spec)
	return res
}

// RunVolumes is RunContext that also returns, for an array run, each
// volume's own results indexed by volume (a nil slot is a volume a
// cancellation stopped before it completed); nil for a single stack.
func RunVolumes(ctx context.Context, spec Spec) (*engine.Results, []*engine.Results) {
	r := spec.Normalize().newRun()
	r.start(ctx)
	return r.finish(ctx)
}

// builtRun is a normalized spec's run: the single stack at one volume, the
// array controller otherwise. newRun builds it unstarted; RunVolumes, the
// warm planner, the store's scratch members and the single-run
// checkpoints all start it (or decode a barrier checkpoint onto it), step
// it and finish it. The array constructors cannot fail: the spec was
// validated in Normalize and feedStack never fails.
type builtRun struct {
	s   Spec
	st  *engine.Stack
	arr *array.Controlled
}

// newRun builds a normalized spec's run.
func (s Spec) newRun() *builtRun {
	r := &builtRun{s: s}
	var err error
	switch {
	case s.Volumes == 1:
		// The single-stack path is exactly the pre-array pipeline — no
		// router, no feed, the run seed untouched — so Volumes: 1 output
		// stays byte-identical to the paper harness's goldens. ARRAY-LB
		// with one volume has nothing to balance across: it runs as plain
		// LBICA and is relabeled.
		r.st = s.singleStack()
	case s.Scheme == SchemeArrayLB:
		variant, _ := array.ParseVariant(s.RouteVariant) // validated in Normalize
		ccfg := array.ControllerConfig{Volumes: s.Volumes, Skew: s.RouteSkew, Seed: s.Seed,
			Variant: variant, Workers: s.ShardWorkers}
		r.arr, err = array.NewAdaptive(ccfg, s.Intervals, s.Interval, NewGenerator(s), s.feedStack)
	default:
		// A static array: one base stream, pulled and routed once by the
		// spec's router into per-volume feeds. The workload keeps the run
		// seed; each volume's hardware draws from its own volume seed.
		acfg, _ := s.arrayConfig() // validated in Normalize
		r.arr, err = array.NewStatic(acfg, s.Seed, s.Intervals, s.Interval, NewGenerator(s), s.feedStack)
	}
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return r
}

// restoreRun builds a normalized spec's run for a checkpoint decode, which
// is all it is built for: the warm plan's members, a store hit and
// RunRestored. It skips the prewarm, whose work decode throws away:
// DecodeState overwrites every cache line, the tick, the counters and the
// statistics Prewarm sets, and HotBlocks has no side effects.
func (s Spec) restoreRun() *builtRun {
	s.restoreTarget = true
	return s.newRun()
}

// start arms the run at time zero.
func (r *builtRun) start(ctx context.Context) {
	if r.st != nil {
		r.st.Start(ctx, r.s.Intervals)
		return
	}
	r.arr.Start(ctx)
}

// stepTo advances a started run to the barrier that closes the given
// interval.
func (r *builtRun) stepTo(ctx context.Context, interval int) {
	if r.st != nil {
		r.st.StepTo(time.Duration(interval) * r.s.Interval)
		return
	}
	r.arr.StepTo(ctx, interval)
}

// encode checkpoints a run parked at a barrier: one stack payload, or the
// controller's payloads (array.Controlled.Encode).
func (r *builtRun) encode() ([][]byte, error) {
	if r.arr != nil {
		return r.arr.Encode()
	}
	p, err := checkpoint.EncodeStack(r.st)
	if err != nil {
		return nil, err
	}
	return [][]byte{p}, nil
}

// decode restores payloads written by encode onto the unstarted run.
func (r *builtRun) decode(ctx context.Context, payloads [][]byte) error {
	if r.arr != nil {
		return r.arr.Decode(ctx, payloads)
	}
	if len(payloads) != 1 {
		return fmt.Errorf("checkpoint holds %d payloads for one stack", len(payloads))
	}
	return checkpoint.DecodeStack(ctx, r.st, payloads[0])
}

// acted reports whether any of the run's balancers has observably acted
// (engine.Stack.BalancerActed).
func (r *builtRun) acted() bool {
	if r.arr != nil {
		return r.arr.BalancerActed()
	}
	return r.st.BalancerActed()
}

// finish runs the remainder, collects the results — merged and, for an
// array, each volume's (a nil slot is a volume a cancellation stopped) —
// under the spec's scheme, and releases the stacks, so the next run built
// reuses their cache line arrays.
func (r *builtRun) finish(ctx context.Context) (*engine.Results, []*engine.Results) {
	if r.st != nil {
		r.st.Drain()
		res := r.st.Collect()
		r.st.Release()
		return r.s.label(res), nil
	}
	ares, _ := r.arr.Finish(ctx)
	for _, v := range ares.PerVolume {
		if v != nil {
			r.s.label(v)
		}
	}
	return r.s.label(ares.Merged), ares.PerVolume
}

// Matrix holds the 3×3 evaluation results indexed [workload][scheme].
type Matrix map[string]map[string]*engine.Results

// MatrixSpecs enumerates the evaluation matrix in paper order (workload-
// major) — the fixed job order the runner fans out over. Every cell uses
// the same run seed: the per-component stream names inside a run already
// isolate the cells, and a shared seed is what lets the three schemes see
// an identical workload (the paper's controlled comparison).
func MatrixSpecs(seed int64, rateFactor float64) []Spec {
	specs := make([]Spec, 0, len(Workloads)*len(Schemes))
	for _, wl := range Workloads {
		for _, sc := range Schemes {
			specs = append(specs, Spec{Workload: wl, Scheme: sc, Seed: seed, RateFactor: rateFactor})
		}
	}
	return specs
}

// runSpecs fans specs out across the runner pool and assembles the matrix
// once every cell has finished. Each job writes only its own result slot,
// and each cell's randomness derives from its spec alone, so the matrix is
// bit-identical for any worker count.
func runSpecs(ctx context.Context, specs []Spec, opt runner.Options) (Matrix, error) {
	// The matrix is keyed by (workload, scheme) only; a second run of the
	// same cell (e.g. a seed sweep) would silently overwrite the first.
	// Rejected before any simulation runs — seed sweeps belong in
	// lbica.RunAll, which returns results by spec index.
	seen := make(map[[2]string]bool, len(specs))
	for _, spec := range specs {
		cell := [2]string{spec.Workload, spec.Scheme}
		if seen[cell] {
			return nil, fmt.Errorf("experiments: duplicate cell %s/%s in spec batch", spec.Workload, spec.Scheme)
		}
		seen[cell] = true
	}
	cells, err := runner.Map(ctx, len(specs), opt,
		func(ctx context.Context, i int) (*engine.Results, error) {
			return RunContext(ctx, specs[i]), ctx.Err()
		})
	if err != nil {
		return nil, err
	}
	m := make(Matrix, len(Workloads))
	for i, spec := range specs {
		if m[spec.Workload] == nil {
			m[spec.Workload] = make(map[string]*engine.Results, len(Schemes))
		}
		m[spec.Workload][spec.Scheme] = cells[i]
	}
	return m, nil
}

// RunSpecs executes an explicit batch of specs through the runner pool
// (workers ≤ 0 = GOMAXPROCS) and assembles the Matrix, calling onDone
// (serialized; may be nil) after each cell. Results are bit-identical for
// every worker count, including the workers == 1 serial baseline.
func RunSpecs(ctx context.Context, specs []Spec, workers int, onDone func(done, total int)) (Matrix, error) {
	opt := runner.Options{Workers: workers}
	if onDone != nil {
		opt.OnDone = func(_, done, total int) { onDone(done, total) }
	}
	return runSpecs(ctx, specs, opt)
}

// RunMatrix executes the full evaluation across GOMAXPROCS workers.
func RunMatrix(seed int64, rateFactor float64) Matrix {
	m, err := RunMatrixContext(context.Background(), seed, rateFactor, 0)
	if err != nil {
		// Only reachable via ctx cancellation, impossible with Background.
		panic(fmt.Sprintf("experiments: matrix failed: %v", err))
	}
	return m
}

// RunMatrixContext executes the paper's evaluation matrix through the
// runner pool with an explicit worker cap and cancellation.
func RunMatrixContext(ctx context.Context, seed int64, rateFactor float64, workers int) (Matrix, error) {
	return RunSpecs(ctx, MatrixSpecs(seed, rateFactor), workers, nil)
}

// Fig4 returns the Fig. 4 series for one workload: per-interval I/O cache
// load (max latency, µs) under each scheme.
func Fig4(m Matrix, wl string) *stats.SeriesSet {
	ss := stats.NewSeriesSet("fig4-" + wl + "-cache-load")
	for _, sc := range Schemes {
		res := m[wl][sc]
		s := ss.Get(sc)
		for _, smp := range res.Samples {
			s.Append(smp.Interval, smp.End, us(smp.CacheLoad))
		}
	}
	return ss
}

// Fig5 returns the Fig. 5 series for one workload: per-interval disk-
// subsystem load (max latency, µs) under each scheme.
func Fig5(m Matrix, wl string) *stats.SeriesSet {
	ss := stats.NewSeriesSet("fig5-" + wl + "-disk-load")
	for _, sc := range Schemes {
		res := m[wl][sc]
		s := ss.Get(sc)
		for _, smp := range res.Samples {
			s.Append(smp.Interval, smp.End, us(smp.DiskLoad))
		}
	}
	return ss
}

// Fig6Row is one interval of the LBICA decision timeline (Fig. 6): both
// loads plus the burst flag, census mix, and the policy in force.
type Fig6Row struct {
	Interval   int
	CacheLoad  float64 // µs
	DiskLoad   float64 // µs
	Burst      bool
	R, W, P, E float64 // census percentages at the interval's queue peak
	Group      string
	Policy     string
}

// Fig6 reconstructs the decision timeline from an LBICA run.
func Fig6(res *engine.Results) []Fig6Row {
	policyAt := make([]string, len(res.Samples))
	groupAt := make([]string, len(res.Samples))
	cur, curGroup := "WB", ""
	ti := 0
	for i := range res.Samples {
		for ti < len(res.Timeline) && res.Timeline[ti].Interval <= i {
			cur = res.Timeline[ti].Policy.String()
			curGroup = res.Timeline[ti].Group
			ti++
		}
		policyAt[i] = cur
		groupAt[i] = curGroup
	}
	rows := make([]Fig6Row, len(res.Samples))
	for i, smp := range res.Samples {
		total := float64(smp.Arrivals.Total())
		pct := func(n int) float64 {
			if total == 0 {
				return 0
			}
			return 100 * float64(n) / total
		}
		rows[i] = Fig6Row{
			Interval:  smp.Interval,
			CacheLoad: us(smp.CacheLoad),
			DiskLoad:  us(smp.DiskLoad),
			Burst:     smp.Bottleneck,
			R:         pct(smp.Arrivals[block.AppRead]),
			W:         pct(smp.Arrivals[block.AppWrite]),
			P:         pct(smp.Arrivals[block.Promote]),
			E:         pct(smp.Arrivals[block.Evict]),
			Group:     groupAt[i],
			Policy:    policyAt[i],
		}
	}
	return rows
}

// WriteFig6CSV renders the timeline.
func WriteFig6CSV(w io.Writer, rows []Fig6Row) error {
	if _, err := fmt.Fprintln(w, "interval,cache_load_us,disk_load_us,burst,r_pct,w_pct,p_pct,e_pct,group,policy"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%d,%.1f,%.1f,%t,%.1f,%.1f,%.1f,%.1f,%s,%s\n",
			r.Interval, r.CacheLoad, r.DiskLoad, r.Burst, r.R, r.W, r.P, r.E, r.Group, r.Policy); err != nil {
			return err
		}
	}
	return nil
}

// Fig7Row is one bar group of Fig. 7: average end-to-end latency per
// workload per scheme.
type Fig7Row struct {
	Workload string
	AvgUS    map[string]float64
}

// Fig7 computes the average-latency comparison.
func Fig7(m Matrix) []Fig7Row {
	rows := make([]Fig7Row, 0, len(Workloads))
	for _, wl := range Workloads {
		row := Fig7Row{Workload: wl, AvgUS: map[string]float64{}}
		for _, sc := range Schemes {
			row.AvgUS[sc] = us(m[wl][sc].AppLatency.Mean())
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteFig7CSV renders the bars.
func WriteFig7CSV(w io.Writer, rows []Fig7Row) error {
	if _, err := fmt.Fprintln(w, "workload,wb_avg_us,sib_avg_us,lbica_avg_us"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%.1f,%.1f,%.1f\n",
			r.Workload, r.AvgUS[SchemeWB], r.AvgUS[SchemeSIB], r.AvgUS[SchemeLBICA]); err != nil {
			return err
		}
	}
	return nil
}

// Headlines are the paper's quoted aggregates.
type Headlines struct {
	// Per-workload cache-load reduction (mean of per-interval cache load),
	// percent, LBICA vs each baseline. Positive = LBICA lower.
	CacheLoadReductionVsWB  map[string]float64
	CacheLoadReductionVsSIB map[string]float64
	// Per-workload average-latency improvement, percent.
	LatencyImprovementVsWB  map[string]float64
	LatencyImprovementVsSIB map[string]float64
	// Averages across workloads.
	AvgCacheLoadReductionVsWB  float64
	AvgCacheLoadReductionVsSIB float64
	AvgLatencyImprovementVsWB  float64
	AvgLatencyImprovementVsSIB float64
	// Peak (best single workload) values.
	MaxCacheLoadReductionVsWB float64
	MaxLatencyImprovementVsWB float64
}

// ComputeHeadlines aggregates the matrix into the paper's headline
// numbers.
func ComputeHeadlines(m Matrix) Headlines {
	h := Headlines{
		CacheLoadReductionVsWB:  map[string]float64{},
		CacheLoadReductionVsSIB: map[string]float64{},
		LatencyImprovementVsWB:  map[string]float64{},
		LatencyImprovementVsSIB: map[string]float64{},
	}
	for _, wl := range Workloads {
		wb, sb, lb := m[wl][SchemeWB], m[wl][SchemeSIB], m[wl][SchemeLBICA]
		h.CacheLoadReductionVsWB[wl] = stats.PercentChange(wb.CacheLoadMean(), lb.CacheLoadMean())
		h.CacheLoadReductionVsSIB[wl] = stats.PercentChange(sb.CacheLoadMean(), lb.CacheLoadMean())
		h.LatencyImprovementVsWB[wl] = stats.PercentChange(float64(wb.AppLatency.Mean()), float64(lb.AppLatency.Mean()))
		h.LatencyImprovementVsSIB[wl] = stats.PercentChange(float64(sb.AppLatency.Mean()), float64(lb.AppLatency.Mean()))
	}
	n := float64(len(Workloads))
	for _, wl := range Workloads {
		h.AvgCacheLoadReductionVsWB += h.CacheLoadReductionVsWB[wl] / n
		h.AvgCacheLoadReductionVsSIB += h.CacheLoadReductionVsSIB[wl] / n
		h.AvgLatencyImprovementVsWB += h.LatencyImprovementVsWB[wl] / n
		h.AvgLatencyImprovementVsSIB += h.LatencyImprovementVsSIB[wl] / n
		if v := h.CacheLoadReductionVsWB[wl]; v > h.MaxCacheLoadReductionVsWB {
			h.MaxCacheLoadReductionVsWB = v
		}
		if v := h.LatencyImprovementVsWB[wl]; v > h.MaxLatencyImprovementVsWB {
			h.MaxLatencyImprovementVsWB = v
		}
	}
	return h
}

// WriteHeadlines renders the aggregates as a markdown-ish table.
func WriteHeadlines(w io.Writer, h Headlines) error {
	var sb strings.Builder
	sb.WriteString("| workload | cache-load vs WB | cache-load vs SIB | latency vs WB | latency vs SIB |\n")
	sb.WriteString("|----------|-----------------:|------------------:|--------------:|---------------:|\n")
	for _, wl := range Workloads {
		fmt.Fprintf(&sb, "| %-8s | %15.1f%% | %16.1f%% | %12.1f%% | %13.1f%% |\n",
			wl, h.CacheLoadReductionVsWB[wl], h.CacheLoadReductionVsSIB[wl],
			h.LatencyImprovementVsWB[wl], h.LatencyImprovementVsSIB[wl])
	}
	fmt.Fprintf(&sb, "| %-8s | %15.1f%% | %16.1f%% | %12.1f%% | %13.1f%% |\n",
		"average", h.AvgCacheLoadReductionVsWB, h.AvgCacheLoadReductionVsSIB,
		h.AvgLatencyImprovementVsWB, h.AvgLatencyImprovementVsSIB)
	_, err := io.WriteString(w, sb.String())
	return err
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
