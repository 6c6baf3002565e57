// Package experiments regenerates the paper's evaluation section: every
// figure (Figs. 4–7) plus the headline aggregates quoted in the abstract
// and §IV, from full simulation runs of the 3 workloads × 3 schemes
// matrix.
//
// It is also the repository's single run builder. Spec describes one run
// — the paper matrix cells, sweep grid points, warm-fork groups and every
// lbica facade option alike — and this package alone turns a Spec into
// engine stacks: volumeConfig derives a volume's engine configuration,
// newStack builds the stack, and RunVolumes, the warm-fork planner and
// the single-run checkpoint functions all go through them.
package experiments

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"lbica/internal/array"
	"lbica/internal/block"
	"lbica/internal/cache"
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
	// (internal/array.RunControlled): adaptive weighted routing and hot-
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

// Spec describes one run. It is the single run description every stack is
// built from — the paper matrix, sweep grids, warm-fork groups and the
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
	// 200 ms. RateFactor defaults to 1.
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
	// published burst shape.
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
	// generating one. Every array volume routes the same requests, exactly
	// like a generated stream; the slice is only read.
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
	return s, nil
}

// cacheGeometry resolves CacheMiB and CacheWays against the default
// 256 MiB, 8-way cache (CacheMult scales the result in volumeConfig).
func (s Spec) cacheGeometry() (sets, ways int, err error) {
	d := cache.DefaultConfig()
	blocks, ways := d.Sets*d.Ways, d.Ways
	if s.CacheMiB > 0 {
		blocks = s.CacheMiB * 1024 / 4 // 4 KiB blocks
	}
	if s.CacheWays > 0 {
		ways = s.CacheWays
	}
	if blocks < ways {
		return 0, 0, fmt.Errorf("cache of %d MiB cannot hold %d ways", blocks*4/1024, ways)
	}
	return blocks / ways, ways, nil
}

// ValidateWorkload reports whether name resolves in the workload catalog
// (the paper trio plus the synthetic and burst-mix families) — the
// non-panicking twin of NewGenerator's lookup, for validating user input
// such as sweep axes and CLI flags.
func ValidateWorkload(name string) error {
	_, err := workload.Default.Resolve(name)
	return err
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
// users with ValidateWorkload or Spec.Validate first.
func NewGenerator(spec Spec) workload.Generator {
	if spec.Replay != nil {
		return workload.NewReplay(cmp.Or(spec.Name, "replay"), *spec.Replay)
	}
	g := sim.NewRNG(spec.Seed, "workload:"+spec.Workload+spec.Name)
	if spec.Phases != nil {
		return workload.NewPhaseGen(cmp.Or(spec.Name, "custom"), *spec.Phases, g)
	}
	scale := workload.Scale{
		Interval:   spec.Interval,
		Intervals:  spec.Intervals,
		RateFactor: spec.RateFactor,
		BurstMult:  spec.BurstMult,
	}
	b, err := workload.Default.Resolve(spec.Workload)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return b(scale, g)
}

// NewBalancer builds the scheme's balancer (nil for the WB baseline) with
// the paper's calibrated thresholds.
func NewBalancer(scheme string) engine.Balancer {
	return NewBalancerWithThresholds(scheme, core.DefaultThresholds())
}

// NewBalancerWithThresholds is NewBalancer with an explicit LBICA
// classifier calibration (zero fields inherit the paper defaults). The
// thresholds only affect the LBICA scheme; WB and the static-policy
// schemes have no balancer and SIB no census classifier.
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
	if s.CacheMult != 1 {
		// Clamped in float space before the int conversion: an absurd
		// multiplier would otherwise overflow to min-int and silently
		// become the smallest possible cache. 1<<22 sets is a 128 GiB
		// cache at the default geometry — past any meaningful sweep.
		f := math.Round(float64(cfg.Cache.Sets) * s.CacheMult)
		cfg.Cache.Sets = int(math.Min(math.Max(f, 1), 1<<22))
	}
	cfg.PrewarmBlocks = cfg.Cache.Sets * cfg.Cache.Ways
	if s.DisablePrewarm {
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

// routedStack builds volume vol of a statically routed spec — at one
// volume, the run's only stack, which also carries the record hook. Every
// volume replays its own copy of the base stream (the workload keeps the
// run seed) and keeps what its router assigns it: the sibling routers
// consume their RNG in lockstep, so they agree on every request.
func (s Spec) routedStack(vol int) *engine.Stack {
	gen := NewGenerator(s)
	switch {
	case s.Volumes > 1:
		acfg, _ := s.arrayConfig() // validated in Normalize
		gen = array.VolumeGen(gen, acfg.NewRouter(s.Seed), vol)
	case s.Hooks != nil && s.Hooks.Record != nil:
		gen = workload.NewTee(gen, s.Hooks.Record)
	}
	return s.newStack(vol, gen)
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
// full stack with its own balancer instance, fed its routed sub-stream,
// sharded volume-per-core through the runner pool (spec.ShardWorkers) and
// merged order-independently — the returned Results are the array-level
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
	spec = spec.Normalize()
	var ares *array.Results
	switch {
	case spec.Volumes == 1:
		// The single-stack path is exactly the pre-array pipeline — no
		// router, no filter, the run seed untouched — so Volumes: 1 output
		// stays byte-identical to the paper harness's goldens. ARRAY-LB
		// with one volume has nothing to balance across: it runs as plain
		// LBICA and is relabeled.
		return spec.label(spec.routedStack(0).RunContext(ctx, spec.Intervals)), nil
	case spec.Scheme == SchemeArrayLB:
		// One base stream, routed by the controller itself; per-volume
		// hardware still draws from its own volume seed. The config was
		// validated in Normalize, so only a cancellation can fail — and
		// a cancelled run returns the partial results that exist.
		c, err := newControlled(ctx, spec)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		ares, _ = c.Finish(ctx)
	default:
		acfg, _ := spec.arrayConfig() // validated in Normalize
		ares, _ = array.Run(ctx, acfg, spec.Intervals, func(vol int) (*engine.Stack, error) {
			return spec.routedStack(vol), nil
		})
	}
	for _, r := range ares.PerVolume {
		if r != nil {
			spec.label(r)
		}
	}
	return spec.label(ares.Merged), ares.PerVolume
}

// newControlled assembles the ARRAY-LB controlled array for a normalized
// spec — shared by RunVolumes and the fork property tests, so a forked
// controller faces exactly the volumes a scratch run builds.
func newControlled(ctx context.Context, spec Spec) (*array.Controlled, error) {
	variant, _ := array.ParseVariant(spec.RouteVariant) // validated in Normalize
	ccfg := array.ControllerConfig{
		Volumes: spec.Volumes,
		Skew:    spec.RouteSkew,
		Seed:    spec.Seed,
		Variant: variant,
		Workers: spec.ShardWorkers,
	}
	return array.NewControlled(ctx, ccfg, spec.Intervals, spec.Interval, NewGenerator(spec),
		func(vol int, gen workload.Generator) (*engine.Stack, error) {
			return spec.newStack(vol, gen), nil
		})
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
	wls := make([]string, len(Workloads))
	copy(wls, Workloads)
	sort.Strings(wls)
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
