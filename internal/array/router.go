// Package array is the multi-volume layer: one simulation hosting N
// volumes, each a full cache+SSD-queue+disk-subsystem stack with its own
// load-balancer instance, fed by a deterministic router that splits the
// application stream across the volumes. Volumes share no mutable state,
// so the array steps volume-per-core and the merged results are byte-
// identical for any worker count, including the serial baseline.
//
// The paper evaluates one SSD-cache/disk stack; an array is the
// production shape — a fleet of such stacks behind a request router, the
// regime where load balancing across a *population* of caches (DistCache,
// NSDI '19) differs qualitatively from balancing one. The router policies
// cover that design space: Uniform spreads requests independently of
// content, Hash pins each block to a volume (the affine layout a
// consistent-hashing frontend produces), and Zipf skews volume popularity
// (the hot-shard regime proximity-aware allocation studies).
//
// # One array path
//
// Every array runs as a Controlled run (controlled.go): the controller
// owns the single base workload generator and the run's one router, and
// at each monitor-interval barrier it pulls the next interval's requests
// once, routes each into its volume's feed, and lets the volumes step to
// the barrier in parallel. A static run (NewStatic) routes through one
// Router that never reweights. Run and VolumeGen are the reference path
// its differential tests compare against: there every volume builds its
// own sibling Router and replays a copy of the whole stream, and the
// siblings draw in lockstep.
//
// Every Controlled run has a codec (ckpt.go): parked at a barrier, it
// encodes its controller state and every volume's stack, and a run built
// unstarted from the same configuration decodes them and finishes
// byte-identical to the uninterrupted run.
//
// # The array-lb controller
//
// NewAdaptive replaces the static router with a closed-loop controller
// (controller.go): at each barrier it also reads every volume's measured
// load, reweights the router from smoothed inverse loads (or routes
// power-of-two-choices under the PowerOfTwo variant), and migrates the
// hottest clean cache lines off the bottleneck volume, pinning their
// routing at the destination. Its checkpoint carries the router's
// weights, load estimates and pins.
//
// Determinism contract: the base generator and the router are touched
// only on the controller goroutine. Each round it routes the next
// interval's requests serially into per-volume feeds, lets the volumes
// step to the barrier in parallel, then — with every volume quiescent —
// observes loads, reweights, and migrates serially. Because everything
// stochastic or order-sensitive happens on one goroutine at a barrier,
// merged results are byte-identical for every worker count, including
// the serial baseline.
//
// Migrated-line merge semantics: a migration moves a clean line between
// two volumes' caches mid-run. Per-volume stats count MigratedOut at the
// source and MigratedIn at the destination; an arrival that finds the
// block already resident still counts MigratedIn, so across the array
// the two sums always reconcile. Merge is order-independent — the
// merged report carries the summed migration counts, and any
// permutation of per-volume results merges to the identical report.
package array

import (
	"fmt"
	"strings"

	"lbica/internal/sim"
	"lbica/internal/workload"
)

// Policy selects how the router assigns requests to volumes.
type Policy uint8

// Routing policies.
const (
	// Uniform routes each request to a uniformly random volume,
	// independent of its address — the load-spreading frontend.
	Uniform Policy = iota
	// Hash routes by block address: every request for a block always
	// lands on the same volume (consistent-hashing affinity), so a
	// volume's cache only ever sees its own address shard.
	Hash
	// Zipf routes each request to a volume drawn from a Zipf-skewed
	// popularity distribution over volumes (volume 0 hottest): the
	// imbalanced-fleet regime where some volumes run hot while others
	// idle. Skew 0 degenerates to Uniform weights.
	Zipf
)

var policyNames = [...]string{"uniform", "hash", "zipf"}

func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy resolves a routing-policy name ("" = uniform).
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "uniform":
		return Uniform, nil
	case "hash":
		return Hash, nil
	case "zipf":
		return Zipf, nil
	default:
		return Uniform, fmt.Errorf("array: unknown routing policy %q (want uniform|hash|zipf)", s)
	}
}

// Router deterministically assigns a request stream to volumes. A static
// array run has one, built from (seed, n, policy, skew); the stochastic
// policies draw one value per request from a dedicated "array:router" RNG
// stream, leaving every other stream of the run untouched. On the
// reference path every volume builds its own copy, and sibling routers
// over copies of the same stream make identical decisions in lockstep.
type Router struct {
	n      int
	policy Policy
	rng    *sim.RNG
	zipf   *sim.Zipfian // Zipf volume popularity, drawing from rng
}

// NewRouter builds a router over n volumes. skew is the Zipf exponent of
// the volume-popularity distribution (Zipf policy only; 0 = uniform
// weights).
func NewRouter(seed int64, n int, policy Policy, skew float64) *Router {
	if n < 1 {
		n = 1
	}
	r := &Router{n: n, policy: policy}
	switch policy {
	case Uniform, Zipf:
		r.rng = sim.NewRNG(seed, "array:router")
	}
	if policy == Zipf {
		r.zipf = sim.NewZipf(r.rng, n, skew)
	}
	return r
}

// Volumes returns the array width.
func (r *Router) Volumes() int { return r.n }

// Route assigns one request to a volume. For the stochastic policies this
// consumes exactly one RNG draw per call, whatever the outcome — the
// lockstep contract sibling routers rely on.
func (r *Router) Route(req workload.Request) int {
	if r.n == 1 {
		// Still consume the draw: a 1-volume router must stay in lockstep
		// with nothing, but skipping the draw would make Route's RNG
		// consumption depend on n, complicating reasoning for no gain.
		switch r.policy {
		case Uniform:
			r.rng.Intn(1)
		case Zipf:
			r.rng.Float64()
		}
		return 0
	}
	switch r.policy {
	case Hash:
		// Requests are assigned by their starting 4 KiB block — the same
		// granularity the generators build LBAs from, so RouteBlock on a
		// HotBlocks block number and on a request agree.
		return r.RouteBlock(req.Extent.LBA / workload.BlockSectors)
	case Zipf:
		return r.zipf.Next()
	default:
		return r.rng.Intn(r.n)
	}
}

// RouteBlock is the Hash policy's pure routing function on a 4 KiB block
// number — exposed so affine prewarm filtering can ask "could this block
// ever be routed here?" without synthesizing a request.
func (r *Router) RouteBlock(block int64) int {
	// SplitMix64-style finalizer: adjacent blocks land on unrelated
	// volumes, so striding workloads still spread.
	x := uint64(block) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(r.n))
}

// VolumeGen wraps a bit-identical copy of the array's base workload
// stream so volume vol sees exactly its routed sub-stream, in arrival
// order. rt must be vol's own Router instance (routers are stateful).
// Under the Hash policy the prewarm set is filtered to blocks that can
// route here, overfetched by the array width so the volume still fills
// its quota.
//
// VolumeGen and Run are the reference path: every volume replays the
// whole base stream, where a static Controlled run (NewStatic) pulls and
// routes it once, with identical results.
func VolumeGen(gen workload.Generator, rt *Router, vol int) workload.Generator {
	f := workload.NewFilter(gen, func(req workload.Request) bool {
		return rt.Route(req) == vol
	})
	if rt.policy == Hash {
		f.WithHotFilter(func(block int64) bool { return rt.RouteBlock(block) == vol }, rt.n)
	}
	return f
}
