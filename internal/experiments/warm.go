package experiments

import (
	"context"

	"lbica/internal/array"
	"lbica/internal/checkpoint"
	"lbica/internal/engine"
)

// Warm-plan outcome kinds: how one member of a warm-shared scheme group
// actually ran (WarmOutcome.Kind).
const (
	// WarmLeader simulated the shared warmup prefix itself and then ran
	// to completion.
	WarmLeader = "leader"
	// WarmForked was deep-copied from the leader at the warmup barrier
	// and ran only the remainder.
	WarmForked = "forked"
	// WarmScratch ran from scratch; WarmOutcome.Reason says why.
	WarmScratch = "scratch"
)

// Scratch fallback reasons (WarmOutcome.Reason; empty for leader/forked
// members).
const (
	// WarmReasonNoLeader: the group has no forkable leader scheme, the
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
	// WarmReasonForkError: the fork itself failed (non-cloneable
	// generator); the member ran from scratch instead.
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
	// and for forked members, which copy in-memory state): WarmCacheHit,
	// WarmCacheStore, or WarmCacheCorrupt. Orthogonal to Kind — both the
	// group leader's shared prefix and a scratch member's private one go
	// through the store.
	Cache string
}

// warmLeaderIndex picks the group's warmup leader, or -1 when the group
// cannot share: sharing needs at least two specs, a warmup strictly
// shorter than the run, and a forkable leader scheme. A plain LBICA
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

// CanShareWarmup reports whether a group of specs differing only by
// scheme can share one simulated warmup prefix of warmupIntervals via
// stack forking (see RunWarmShared).
func CanShareWarmup(specs []Spec, warmupIntervals int) bool {
	return warmLeaderIndex(specs, warmupIntervals) >= 0
}

// RunWarmShared executes a group of specs that differ only by scheme,
// simulating their common warmup prefix once: a leader (LBICA — or
// ARRAY-LB, which at one volume is LBICA relabeled) runs to the warmup
// barrier, each other scheme's run is forked from it there, and every
// branch then runs to completion independently. At Volumes > 1 the
// leader is the full statically routed array — all N volume stacks step
// to the barrier and are forked together, atomically from the sibling's
// point of view (no stack advances between the per-volume forks).
// Results are returned in spec order and are byte-identical to running
// each spec from scratch:
//
//   - An LBICA member (or at one volume an ARRAY-LB member) forks the
//     leader's balancer state — identical by construction, since the
//     schemes share the same per-volume balancer and the whole prefix.
//   - A WB member forks with the balancer dropped, valid only while no
//     leader balancer has observably acted (engine.BalancerActed); a
//     balancer that already bypassed or switched policy means the
//     prefixes diverged, and the WB cell falls back to a scratch run.
//   - SIB members, multi-volume ARRAY-LB members (the adaptive
//     controller diverges from static routing at the first barrier),
//     and any fork failure fall back to a scratch run.
//
// When the group cannot share at all (CanShareWarmup false) every member
// runs from scratch, making RunWarmShared a drop-in replacement for
// per-spec RunContext calls. The returned outcomes record, per spec, how
// it ran and why a scratch member could not share.
func RunWarmShared(ctx context.Context, specs []Spec, warmupIntervals int) ([]*engine.Results, []WarmOutcome) {
	return RunWarmSharedCached(ctx, specs, warmupIntervals, nil)
}

// runWarmSingle is the single-stack warm plan: one leader stack (from
// the checkpoint store when possible), one fork per sharing sibling, and
// a store-backed private prefix for every member the fork planner must
// exclude (runMemberCached).
func runWarmSingle(ctx context.Context, specs []Spec, spec Spec, leaderIdx, warmupIntervals int, store *checkpoint.Store, out []*engine.Results, plan []WarmOutcome) {
	lead := spec
	lead.Scheme, lead.RouteVariant = SchemeLBICA, ""
	leaders, lcache := prepareWarmStacks(ctx, spec, SchemeLBICA, warmupIntervals, store, func() []*engine.Stack {
		return []*engine.Stack{lead.routedStack(0)}
	})
	leader := leaders[0]

	finish := func(st *engine.Stack, s Spec) *engine.Results {
		st.Drain()
		return s.label(st.Collect())
	}

	for i, s := range specs {
		if i == leaderIdx {
			continue
		}
		switch s.Scheme {
		case SchemeWB:
			if leader.BalancerActed() {
				out[i], plan[i] = runMemberCached(ctx, s, warmupIntervals, store, WarmReasonBalancerActed)
				continue
			}
			if f, err := leader.Fork(ctx, engine.DropBalancer); err == nil {
				out[i] = finish(f, s)
				plan[i] = WarmOutcome{Kind: WarmForked}
				continue
			}
			out[i], plan[i] = runMemberCached(ctx, s, warmupIntervals, store, WarmReasonForkError)
		case SchemeLBICA, SchemeArrayLB:
			if f, err := leader.Fork(ctx, nil); err == nil {
				out[i] = finish(f, s)
				plan[i] = WarmOutcome{Kind: WarmForked}
				continue
			}
			out[i], plan[i] = runMemberCached(ctx, s, warmupIntervals, store, WarmReasonForkError)
		default:
			out[i], plan[i] = runMemberCached(ctx, s, warmupIntervals, store, WarmReasonSIB)
		}
	}
	out[leaderIdx] = finish(leader, specs[leaderIdx])
	plan[leaderIdx] = WarmOutcome{Kind: WarmLeader, Cache: lcache}
}

// runWarmArray is the multi-volume warm plan: the leader is the full
// statically routed LBICA array. All N volume stacks (wired exactly as
// RunContext wires them, via routedStack, or restored together from one
// store entry) step to the warmup barrier; a sharing sibling forks every
// volume there before any stack advances further, so the sibling sees one
// atomic array-wide snapshot.
func runWarmArray(ctx context.Context, specs []Spec, spec Spec, leaderIdx, warmupIntervals int, store *checkpoint.Store, out []*engine.Results, plan []WarmOutcome) {
	stacks, lcache := prepareWarmStacks(ctx, spec, SchemeLBICA, warmupIntervals, store, func() []*engine.Stack {
		sts := make([]*engine.Stack, spec.Volumes)
		for v := range sts {
			sts[v] = spec.routedStack(v)
		}
		return sts
	})
	acted := false
	for _, st := range stacks {
		if st.BalancerActed() {
			acted = true
			break
		}
	}

	finish := func(sts []*engine.Stack, s Spec) *engine.Results {
		per := make([]*engine.Results, len(sts))
		for v, st := range sts {
			st.Drain()
			res := st.Collect()
			res.Volume = v
			// Same partial rule as array.Run: a cancellation that still let
			// the volume close every interval changed nothing; volumes
			// stopped short are dropped.
			if ctx.Err() != nil && len(res.Samples) < spec.Intervals {
				continue
			}
			per[v] = res
		}
		return s.label(array.Merge(per))
	}

	forkAll := func(balFor func(*engine.Stack) engine.Balancer) ([]*engine.Stack, error) {
		forked := make([]*engine.Stack, len(stacks))
		for v, st := range stacks {
			f, err := st.Fork(ctx, balFor)
			if err != nil {
				return nil, err
			}
			forked[v] = f
		}
		return forked, nil
	}

	for i, s := range specs {
		if i == leaderIdx {
			continue
		}
		switch s.Scheme {
		case SchemeWB:
			if acted {
				out[i] = RunContext(ctx, s)
				plan[i] = WarmOutcome{Kind: WarmScratch, Reason: WarmReasonBalancerActed}
				continue
			}
			if forked, err := forkAll(engine.DropBalancer); err == nil {
				out[i] = finish(forked, s)
				plan[i] = WarmOutcome{Kind: WarmForked}
				continue
			}
			out[i] = RunContext(ctx, s)
			plan[i] = WarmOutcome{Kind: WarmScratch, Reason: WarmReasonForkError}
		case SchemeLBICA:
			if forked, err := forkAll(nil); err == nil {
				out[i] = finish(forked, s)
				plan[i] = WarmOutcome{Kind: WarmForked}
				continue
			}
			out[i] = RunContext(ctx, s)
			plan[i] = WarmOutcome{Kind: WarmScratch, Reason: WarmReasonForkError}
		case SchemeArrayLB:
			out[i] = RunContext(ctx, s)
			plan[i] = WarmOutcome{Kind: WarmScratch, Reason: WarmReasonMultiVolume}
		default:
			out[i] = RunContext(ctx, s)
			plan[i] = WarmOutcome{Kind: WarmScratch, Reason: WarmReasonSIB}
		}
	}
	out[leaderIdx] = finish(stacks, specs[leaderIdx])
	plan[leaderIdx] = WarmOutcome{Kind: WarmLeader, Cache: lcache}
}
