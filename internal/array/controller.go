package array

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"lbica/internal/engine"
	"lbica/internal/sim"
	"lbica/internal/workload"
)

// Variant selects the array controller's adaptive routing mechanism.
type Variant uint8

// Routing variants of the array-lb controller.
const (
	// Weighted recomputes a volume-popularity distribution every monitor
	// interval from measured per-volume load — KnapsackLB-style inverse-
	// load weighting, smoothed by an EMA and floored so no volume starves.
	Weighted Variant = iota
	// PowerOfTwo draws two candidate volumes per request and routes to the
	// one with the lower load estimate (measured interval load, scaled by
	// how many requests this interval already routed there).
	PowerOfTwo
)

var variantNames = [...]string{"weighted", "p2c"}

func (v Variant) String() string {
	if int(v) < len(variantNames) {
		return variantNames[v]
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// ParseVariant resolves an adaptive-routing variant name ("" = weighted).
func ParseVariant(s string) (Variant, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "weighted":
		return Weighted, nil
	case "p2c", "power-of-two":
		return PowerOfTwo, nil
	default:
		return Weighted, fmt.Errorf("array: unknown route variant %q (want weighted|p2c)", s)
	}
}

// ControllerConfig describes an array-lb run: the array shape, the
// initial routing draw and the adaptation mechanism.
type ControllerConfig struct {
	// Volumes is the array width (≥ 1).
	Volumes int
	// Skew is the Zipf exponent of the *initial* routing weights — the
	// controller starts from the same skewed draw static Zipf routing
	// would use (0 = uniform start) and adapts from the first measured
	// interval on. This keeps the hot-shard regime comparable: array-lb
	// at skew 1.2 faces the same interval-0 imbalance static routing does.
	Skew float64
	// Seed derives the controller's router RNG (stream "array:router",
	// the same stream static routing draws from).
	Seed int64
	// Variant selects the adaptation mechanism (default Weighted).
	Variant Variant
	// Workers caps the shard pool (≤0 = GOMAXPROCS; 1 = the serial
	// baseline the determinism test compares against).
	Workers int
}

// The controller's adaptation constants.
const (
	// topK caps how many hot blocks migrate per decision.
	topK = 32
	// smoothing is the EMA coefficient applied to per-volume load
	// estimates; higher reacts faster.
	smoothing = 0.5
	// minShare floors every volume's routing weight at minShare/Volumes,
	// so adaptation never starves a volume of traffic — a starved volume
	// measures zero load and could otherwise never rejoin. It must stay
	// below 1 (observe relies on n·floor < 1).
	minShare = 0.25
	// migrateRatio is the migration trigger: hot blocks move only while
	// the bottleneck volume's load estimate exceeds migrateRatio × the
	// coldest volume's.
	migrateRatio = 1.25
	// maxPins caps the routing pin table the migrations accumulate. At the
	// cap, migration stops; routing adaptation continues.
	maxPins = 4096
)

// Validate reports the first invalid field.
func (c ControllerConfig) Validate() error {
	if c.Volumes < 1 || c.Volumes > MaxVolumes {
		return fmt.Errorf("array: volume count %d outside [1, %d]", c.Volumes, MaxVolumes)
	}
	if !(c.Skew >= 0 && c.Skew <= MaxSkew) {
		return fmt.Errorf("array: route skew %v outside [0, %v]", c.Skew, MaxSkew)
	}
	return nil
}

// adaptiveRouter is array-lb's router: like a static run's Router it
// exists once per run, but it carries mutable state — weights, load
// estimates, migration pins — that the barrier updates, and it never has
// sibling copies to keep in lockstep.
type adaptiveRouter struct {
	n       int
	variant Variant
	rng     *sim.RNG

	weights []float64 // Weighted: normalized volume shares
	cdf     []float64 // Weighted: cumulative weights for the draw
	est     []float64 // EMA load estimate per volume (µs-scale floats)
	primed  bool      // est holds at least one observation
	routed  []uint64  // PowerOfTwo: requests routed this interval

	pins map[int64]int // block → volume, set by hot-block migration
}

func newAdaptiveRouter(cfg ControllerConfig) *adaptiveRouter {
	rt := &adaptiveRouter{
		n:       cfg.Volumes,
		variant: cfg.Variant,
		rng:     sim.NewRNG(cfg.Seed, "array:router"),
		weights: make([]float64, cfg.Volumes),
		cdf:     make([]float64, cfg.Volumes),
		est:     make([]float64, cfg.Volumes),
		routed:  make([]uint64, cfg.Volumes),
		pins:    make(map[int64]int),
	}
	// Start from the static Zipf draw's distribution (uniform at skew 0):
	// interval 0 has no measurements, and matching the static router's
	// starting point makes before/after comparisons read cleanly.
	sum := 0.0
	for v := 0; v < rt.n; v++ {
		rt.weights[v] = 1 / math.Pow(float64(v+1), cfg.Skew)
		sum += rt.weights[v]
	}
	for v := range rt.weights {
		rt.weights[v] /= sum
	}
	rt.rebuildCDF()
	return rt
}

func (rt *adaptiveRouter) rebuildCDF() {
	sum := 0.0
	for v, w := range rt.weights {
		sum += w
		rt.cdf[v] = sum
	}
	for v := range rt.cdf {
		rt.cdf[v] /= sum
	}
}

// route assigns one request: pinned blocks go to their pin (no RNG
// consumed), everything else through the variant's draw.
func (rt *adaptiveRouter) route(req workload.Request) int {
	if len(rt.pins) > 0 {
		if v, ok := rt.pins[req.Extent.LBA/workload.BlockSectors]; ok {
			rt.routed[v]++
			return v
		}
	}
	var v int
	switch rt.variant {
	case PowerOfTwo:
		a := rt.rng.Intn(rt.n)
		b := rt.rng.Intn(rt.n)
		v = a
		// Least loaded of the two: measured estimate scaled by this
		// interval's routed count (+1 so a zero estimate still orders);
		// ties go to the lower index.
		sa := (rt.est[a] + 1) * float64(rt.routed[a]+1)
		sb := (rt.est[b] + 1) * float64(rt.routed[b]+1)
		if sb < sa || (sb == sa && b < a) {
			v = b
		}
	default: // Weighted
		u := rt.rng.Float64()
		lo, hi := 0, rt.n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if rt.cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		v = lo
	}
	rt.routed[v]++
	return v
}

// observe folds one interval's measured per-volume loads into the EMA
// estimates and, for the Weighted variant, recomputes the routing weights
// as floored, normalized inverse loads.
func (rt *adaptiveRouter) observe(loads []float64) {
	for v := range rt.est {
		if !rt.primed {
			rt.est[v] = loads[v]
		} else {
			rt.est[v] = (1-smoothing)*rt.est[v] + smoothing*loads[v]
		}
	}
	rt.primed = true
	for v := range rt.routed {
		rt.routed[v] = 0
	}
	if rt.variant != Weighted {
		return
	}
	// Inverse-load weights. The epsilon keeps an idle volume finite; the
	// floor keeps a slow volume from starving out of the measurement loop.
	const eps = 1.0
	sum := 0.0
	for v := range rt.weights {
		rt.weights[v] = 1 / (rt.est[v] + eps)
		sum += rt.weights[v]
	}
	for v := range rt.weights {
		rt.weights[v] /= sum
	}
	// Clamp to the floor exactly: floored volumes keep floor after the
	// final normalization, so the remaining mass is redistributed over the
	// unfloored weights only (iterating in case the scale-down pushes a
	// previously safe weight under the floor). minShare < 1 guarantees
	// n·floor < 1, so the unfloored mass never goes negative.
	floor := minShare / float64(rt.n)
	for {
		above, nBelow := 0.0, 0
		for _, w := range rt.weights {
			if w <= floor {
				nBelow++
			} else {
				above += w
			}
		}
		if nBelow == 0 || above == 0 {
			break
		}
		scale := (1 - float64(nBelow)*floor) / above
		again := false
		for v, w := range rt.weights {
			if w <= floor {
				rt.weights[v] = floor
			} else {
				rt.weights[v] = w * scale
				if rt.weights[v] < floor {
					again = true
				}
			}
		}
		if !again {
			break
		}
	}
	rt.rebuildCDF()
}

// adapt is array-lb's barrier: with every volume parked at the interval
// barrier, read each volume's last closed sample, fold the loads into the
// router, migrate hot blocks, and start the next interval's arrival
// counts — serially, on the controller goroutine.
func (c *Controlled) adapt() {
	for v, st := range c.stacks {
		c.loads[v] = 0
		if s := st.Monitor().Samples(); len(s) > 0 {
			last := s[len(s)-1]
			c.loads[v] = float64(last.CacheLoad+last.DiskLoad) / float64(time.Microsecond)
		}
	}
	c.rt.observe(c.loads)
	migrateHot(c.rt, c.stacks, c.counts)
	for v := range c.counts {
		clear(c.counts[v])
	}
}

// hotCount ranks a volume's blocks by interval arrival count for the
// migration pick (count descending, block ascending — a total order, so
// the pick is deterministic).
type hotCount struct {
	block int64
	count uint64
}

// migrateHot moves the bottleneck volume's hottest unpinned blocks to the
// coldest volume while the imbalance exceeds the trigger ratio, pinning
// each moved block's routing to its new home (the DistCache shape: keep
// independent per-volume balancing, flatten the fleet with a small
// migrated hot set). Only clean resident lines move; the migration is
// metadata-only, like prewarming — the clean line's bytes already exist
// on the backing store, so no simulated transfer is issued.
func migrateHot(rt *adaptiveRouter, stacks []*engine.Stack, counts []map[int64]uint64) {
	if len(stacks) < 2 || len(rt.pins) >= maxPins {
		return
	}
	hotV, coldV := 0, 0
	for v := 1; v < len(rt.est); v++ {
		if rt.est[v] > rt.est[hotV] {
			hotV = v
		}
		if rt.est[v] < rt.est[coldV] {
			coldV = v
		}
	}
	if hotV == coldV || rt.est[hotV] <= migrateRatio*rt.est[coldV] {
		return
	}
	ranked := make([]hotCount, 0, len(counts[hotV]))
	for b, c := range counts[hotV] {
		if _, pinned := rt.pins[b]; pinned {
			continue
		}
		ranked = append(ranked, hotCount{block: b, count: c})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].count != ranked[j].count {
			return ranked[i].count > ranked[j].count
		}
		return ranked[i].block < ranked[j].block
	})
	moved := 0
	for _, hc := range ranked {
		if moved >= topK || len(rt.pins) >= maxPins {
			break
		}
		if !stacks[hotV].MigrateOut(hc.block) {
			continue // not resident clean on the bottleneck; skip
		}
		stacks[coldV].MigrateIn(hc.block)
		rt.pins[hc.block] = coldV
		moved++
	}
}
