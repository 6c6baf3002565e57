package experiments

import (
	"context"

	"lbica/internal/checkpoint"
	"lbica/internal/engine"
)

// Warm-plan outcome kinds: how one member of a warm-shared scheme group
// actually ran (WarmOutcome.Kind).
const (
	// WarmLeader simulated the shared warmup prefix itself and then ran
	// to completion.
	WarmLeader = "leader"
	// WarmForked was restored from the leader's checkpoint payload at the
	// warmup barrier and ran only the remainder.
	WarmForked = "forked"
	// WarmScratch ran from scratch; WarmOutcome.Reason says why.
	WarmScratch = "scratch"
)

// Scratch fallback reasons (WarmOutcome.Reason; empty for leader/forked
// members).
const (
	// WarmReasonNoLeader: the group has no leader scheme, the
	// warmup is zero or not shorter than the run, or the group is a
	// single spec — nothing to share.
	WarmReasonNoLeader = "no-leader"
	// WarmReasonSIB: SIB diverges from every other scheme at t=0 (WT+WO
	// policy pin plus periodic queue scans that stall the SSD), so there
	// is no common prefix to reuse.
	WarmReasonSIB = "sib"
	// WarmReasonBalancerActed: a WB member can only reuse the leader's
	// prefix while the leader's balancer has not observably acted; it
	// had, so the prefixes diverged.
	WarmReasonBalancerActed = "balancer-acted"
	// WarmReasonMultiVolume: a multi-volume ARRAY-LB member adapts its
	// routing at every interval barrier, so its prefix diverges from the
	// statically routed leader's from the first barrier on.
	WarmReasonMultiVolume = "multi-volume"
	// WarmReasonForkError: the leader's prefix could not be encoded or
	// restored onto the member (a traced run, a generator without a
	// checkpoint codec); the member ran from scratch instead.
	WarmReasonForkError = "fork-error"
)

// WarmOutcome records how one member of a warm-shared group ran: its
// Kind (leader, forked, scratch) and, for scratch members, the Reason
// sharing was impossible. RunWarmShared returns one per spec, so sweeps
// can report their warm-plan hit rate instead of falling back silently.
type WarmOutcome struct {
	Kind   string
	Reason string
	// Cache is the run's persistent-store traffic ("" without a store,
	// and for forked members, which restore the leader's prefix):
	// WarmCacheHit,
	// WarmCacheStore, or WarmCacheCorrupt. Orthogonal to Kind — both the
	// group leader's shared prefix and a scratch member's private one go
	// through the store.
	Cache string
}

// warmLeaderIndex picks the group's warmup leader, or -1 when the group
// cannot share: sharing needs at least two specs, a warmup strictly
// shorter than the run, and a leader scheme. A plain LBICA
// member is preferred — at one volume ARRAY-LB runs as LBICA relabeled
// and may lead too, but then the relabel stays the special case rather
// than the leader's. A multi-volume ARRAY-LB cannot lead (or share): its
// controller reweights routing at every interval barrier, so its prefix
// diverges from every statically routed scheme's.
func warmLeaderIndex(specs []Spec, warmupIntervals int) int {
	if warmupIntervals <= 0 || len(specs) < 2 {
		return -1
	}
	if ns := specs[0].Normalize(); warmupIntervals >= ns.Intervals {
		return -1
	}
	arrayLB := -1
	for i, s := range specs {
		if s.Scheme == SchemeLBICA {
			return i
		}
		if arrayLB < 0 && s.Scheme == SchemeArrayLB && s.Normalize().Volumes == 1 {
			arrayLB = i
		}
	}
	return arrayLB
}

// RunWarmShared executes a group of specs that differ only by scheme,
// simulating their common warmup prefix once: a leader (LBICA — or
// ARRAY-LB, which at one volume is LBICA relabeled) runs to the warmup
// barrier, each other scheme's run is restored from its state there, and
// every branch then runs to completion independently. At Volumes > 1 the
// leader is the full statically routed array — all N volume stacks step
// to the barrier and are captured together, so a member restores one
// array-wide snapshot. Results are returned in spec order and are
// byte-identical to running each spec from scratch:
//
//   - An LBICA member (or at one volume an ARRAY-LB member) restores the
//     leader's balancer state — identical by construction, since the
//     schemes share the same per-volume balancer and the whole prefix.
//   - A WB member restores with the balancer dropped, valid only while no
//     leader balancer has observably acted (engine.BalancerActed); a
//     balancer that already bypassed or switched policy means the
//     prefixes diverged, and the WB cell falls back to a scratch run.
//   - SIB members, multi-volume ARRAY-LB members (the adaptive
//     controller diverges from static routing at the first barrier),
//     and any failed restore fall back to a scratch run, which stores
//     and restores its own prefix through the store when one is given.
//
// When the group cannot share at all every member runs from scratch,
// making RunWarmShared a drop-in replacement for per-spec RunContext
// calls. The returned outcomes record, per spec, how it ran and why a
// scratch member could not share.
//
// A non-nil store backs the runs with a persistent checkpoint store:
// before simulating a warmup prefix — the group leader's shared one, or a
// scratch member's private one — the run checks the store for a
// checkpoint of that exact prefix (warmCacheKey) and restores it instead;
// after simulating a prefix no cache held, it writes the checkpoint
// through for future invocations. Results remain byte-identical to
// scratch runs, and a store entry that is missing, corrupt, truncated, or
// version-skewed silently degrades to simulation (surfaced in the
// member's WarmOutcome.Cache, never as an error).
func RunWarmShared(ctx context.Context, specs []Spec, warmupIntervals int, store *checkpoint.Store) ([]*engine.Results, []WarmOutcome) {
	out := make([]*engine.Results, len(specs))
	plan := make([]WarmOutcome, len(specs))
	leaderIdx := warmLeaderIndex(specs, warmupIntervals)
	if leaderIdx < 0 {
		for i, s := range specs {
			out[i], plan[i] = runMemberCached(ctx, s, warmupIntervals, store, WarmReasonNoLeader)
		}
		return out, plan
	}
	runWarmPlan(ctx, specs, leaderIdx, warmupIntervals, store, out, plan)
	return out, plan
}

// runWarmPlan is the warm plan over the leader's run — one stack at
// Volumes == 1, the statically routed LBICA array otherwise. The leader
// steps to the warmup barrier (or is restored from one store entry), and
// the prefix is shared as its checkpoint payloads: loaded from the store,
// or encoded once at the barrier. The leader then runs to completion
// before any member is built, so only one run's stacks are live at a
// time. Each sharing member builds its own run through the single builder
// and decodes the payloads onto it — a WB member with the leader's
// balancer dropped — which is the path a store hit takes. The payloads are
// dropped once the last member has decoded them, before the scratch
// members run.
func runWarmPlan(ctx context.Context, specs []Spec, leaderIdx, warmupIntervals int, store *checkpoint.Store, out []*engine.Results, plan []WarmOutcome) {
	lead := specs[leaderIdx].Normalize()
	lead.Scheme, lead.RouteVariant = SchemeLBICA, ""
	leader, payloads, lcache := prepareWarm(ctx, lead, warmupIntervals, store)
	acted := leader.acted()
	// Decided at the barrier: which members restore from the prefix.
	shared := 0
	for i, s := range specs {
		if i == leaderIdx {
			continue
		}
		if plan[i] = memberOutcome(s.Normalize(), acted); plan[i].Kind == WarmForked {
			shared++
		}
	}
	if shared > 0 && payloads == nil {
		payloads, _ = leader.encode()
	}
	// The leader ran the LBICA balancer; a one-volume ARRAY-LB leader
	// reports under its own scheme.
	res, _ := leader.finish(ctx)
	out[leaderIdx] = specs[leaderIdx].label(res)
	plan[leaderIdx] = WarmOutcome{Kind: WarmLeader, Cache: lcache}

	for i, s := range specs {
		if i == leaderIdx || plan[i].Kind != WarmForked {
			continue
		}
		r := s.Normalize().restoreRun()
		err := r.decode(ctx, payloads)
		if shared--; shared == 0 {
			payloads = nil // the last member has decoded them
		}
		if err != nil {
			plan[i] = WarmOutcome{Kind: WarmScratch, Reason: WarmReasonForkError}
			continue
		}
		out[i], _ = r.finish(ctx)
	}
	for i, s := range specs {
		if i != leaderIdx && plan[i].Kind == WarmScratch {
			out[i], plan[i] = runMemberCached(ctx, s, warmupIntervals, store, plan[i].Reason)
		}
	}
}

// memberOutcome is how a normalized non-leader member can run against the
// leader's prefix: restored from it (WarmForked) or from scratch, with the
// reason.
func memberOutcome(s Spec, acted bool) WarmOutcome {
	switch {
	case s.Scheme == SchemeArrayLB && s.Volumes > 1:
		return WarmOutcome{Kind: WarmScratch, Reason: WarmReasonMultiVolume}
	case s.Scheme == SchemeWB && acted:
		return WarmOutcome{Kind: WarmScratch, Reason: WarmReasonBalancerActed}
	case s.Scheme == SchemeWB, s.Scheme == SchemeLBICA, s.Scheme == SchemeArrayLB:
		return WarmOutcome{Kind: WarmForked}
	default:
		return WarmOutcome{Kind: WarmScratch, Reason: WarmReasonSIB}
	}
}
