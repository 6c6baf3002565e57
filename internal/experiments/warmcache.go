package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"lbica/internal/checkpoint"
	"lbica/internal/engine"
)

// Persistent warm-cache traffic annotations (WarmOutcome.Cache): how one
// run's warmup prefix interacted with an on-disk checkpoint store. They
// are orthogonal to the plan-structure kinds — a leader and a scratch
// member can each hit or store, without changing how the group shared.
const (
	// WarmCacheHit: the warmup prefix was restored from an on-disk
	// checkpoint instead of being simulated.
	WarmCacheHit = "cache-hit"
	// WarmCacheStore: the warmup prefix was simulated and the checkpoint
	// published for future invocations.
	WarmCacheStore = "cache-store"
	// WarmCacheCorrupt: a WarmCacheStore whose store entry existed but
	// was unusable (truncated, checksum mismatch, format skew, or a
	// failed restore): the prefix was simulated and the bad entry
	// overwritten — the sweep degrades, it never fails.
	WarmCacheCorrupt = "cache-corrupt"
)

// warmCacheKey is the canonical content address of a warmup prefix: every
// normalized spec field that shapes the first warmupIntervals intervals,
// plus the checkpoint format version. scheme names the balancer that
// drives the prefix — SchemeLBICA for a group's shared leader prefix (the
// leader always runs the LBICA balancer, even when the nominal leader
// member is a one-volume ARRAY-LB), a scratch member's own scheme for its
// private prefix. Execution-only fields (ShardWorkers, RouteVariant) are
// absent: they never shape simulated state. A custom schedule and a
// replay stream key by content, not by pointer. A hooked run keys apart
// from an unhooked one: its trace and recording start at time zero, so it
// must never resume from another run's prefix.
//
// Intervals is part of the key even though the prefix stops at the warmup
// barrier: the stack is armed for the full run, so the total tick budget
// is serialized state.
func warmCacheKey(spec Spec, scheme string, warmupIntervals int) string {
	s := spec.Normalize()
	t := s.Thresholds
	return fmt.Sprintf(
		"v%d|wl=%s|name=%s|phases=%s|replay=%s|scheme=%s|seed=%d|iv=%d|step=%d|rate=%g|cache=%g|burst=%g|vol=%d|rp=%s|rs=%g|th=%g,%g,%g,%g,%d|geom=%d,%d,%s|elev=%t|cold=%t|hooks=%t|warm=%d",
		checkpoint.FormatVersion, s.Workload, s.Name, contentDigest(s.Phases), contentDigest(s.Replay),
		scheme, s.Seed, s.Intervals, int64(s.Interval),
		s.RateFactor, s.CacheMult, s.BurstMult,
		s.Volumes, s.RoutePolicy, s.RouteSkew,
		t.DominantPair, t.MemberMin, t.PromoteAlone, t.ReadAlone, t.MinQueued,
		s.CacheMiB, s.CacheWays, s.Replacement, s.DiskElevator, s.DisablePrewarm, s.Hooks != nil,
		warmupIntervals)
}

// contentDigest addresses a schedule or stream by its content ("-" when
// the spec has none).
func contentDigest[T any](p *[]T) string {
	if p == nil {
		return "-"
	}
	sum := sha256.Sum256(fmt.Appendf(nil, "%v", *p))
	return hex.EncodeToString(sum[:])
}

// prepareWarmStacks produces stacks standing at the warmup barrier,
// consulting the store first when one is given. build must return freshly
// constructed, not-yet-started stacks (one per volume); the scratch path
// starts them and steps them to the barrier, the hit path restores them
// in place. Restore failures of any kind fall back to the scratch path
// and overwrite the entry. The returned annotation is the run's cache
// traffic (WarmOutcome.Cache): WarmCacheHit, WarmCacheStore,
// WarmCacheCorrupt, or "" when the store held nothing usable and the
// publish failed too (or there is no store at all).
func prepareWarmStacks(ctx context.Context, spec Spec, scheme string, warmupIntervals int, store *checkpoint.Store, build func() []*engine.Stack) ([]*engine.Stack, string) {
	corrupt := false
	var key string
	if store != nil {
		key = warmCacheKey(spec, scheme, warmupIntervals)
		payloads, err := store.Load(key)
		switch {
		case err != nil:
			corrupt = true
		case payloads != nil:
			stacks := build()
			if len(payloads) != len(stacks) {
				corrupt = true
				break
			}
			ok := true
			for v, st := range stacks {
				if err := checkpoint.DecodeStack(ctx, st, payloads[v]); err != nil {
					corrupt = true
					ok = false
					break
				}
			}
			if ok {
				return stacks, WarmCacheHit
			}
		}
	}

	// Scratch: simulate the prefix, then publish it for the next
	// invocation. A failed encode or write leaves the run untouched —
	// the cache is strictly an accelerator. A cancelled prefix halted
	// short of the barrier and is never published: every later
	// invocation would restore it.
	stacks := build()
	barrier := time.Duration(warmupIntervals) * spec.Interval
	for _, st := range stacks {
		st.Start(ctx, spec.Intervals)
	}
	for _, st := range stacks {
		st.StepTo(barrier)
	}
	if store != nil && ctx.Err() == nil {
		payloads := make([][]byte, len(stacks))
		ok := true
		for v, st := range stacks {
			p, err := checkpoint.EncodeStack(st)
			if err != nil {
				ok = false
				break
			}
			payloads[v] = p
		}
		if ok && store.Save(key, payloads) == nil {
			if corrupt {
				return stacks, WarmCacheCorrupt
			}
			return stacks, WarmCacheStore
		}
	}
	return stacks, ""
}

// runMemberCached runs one scratch member — a run that cannot reuse its
// group leader's prefix — backed by the same persistent store: the
// member's own warmup prefix, under its own scheme, is restored when a
// checkpoint exists and simulated-then-published when not. Sharing
// within an invocation needs cross-scheme prefix equality, but sharing
// across invocations only needs same-spec determinism, so even the
// schemes the fork planner must exclude (an acted balancer, SIB's
// scans, a group with no forkable leader) amortize their prefixes over
// repeated sweeps. Falls back to plain RunContext — outcome unchanged —
// when there is no store, the warmup is not strictly inside the run, or
// the member is multi-volume (the adaptive controller's wiring has no
// checkpoint codec, and static arrays fork from the leader instead).
func runMemberCached(ctx context.Context, s Spec, warmupIntervals int, store *checkpoint.Store, reason string) (*engine.Results, WarmOutcome) {
	o := WarmOutcome{Kind: WarmScratch, Reason: reason}
	ns := s.Normalize()
	if store == nil || ns.Volumes > 1 || warmupIntervals <= 0 || warmupIntervals >= ns.Intervals {
		return RunContext(ctx, s), o
	}
	stacks, cache := prepareWarmStacks(ctx, ns, ns.Scheme, warmupIntervals, store, func() []*engine.Stack {
		return []*engine.Stack{ns.routedStack(0)}
	})
	o.Cache = cache
	st := stacks[0]
	st.Drain()
	return ns.label(st.Collect()), o
}

// RunSaving runs a single-volume spec to completion exactly like
// RunContext, pausing at the saveAt-th interval barrier to hand save the
// stack's complete encoded state (checkpoint.EncodeStack). A cancellation
// before the barrier skips the save — a halted mid-interval state is not
// a resumable prefix; an encode or save error ends the run.
func RunSaving(ctx context.Context, spec Spec, saveAt int, save func(payload []byte) error) (*engine.Results, error) {
	spec = spec.Normalize()
	if spec.Volumes > 1 {
		return nil, fmt.Errorf("checkpointed runs need a single volume (got %d)", spec.Volumes)
	}
	st := spec.routedStack(0)
	st.Start(ctx, spec.Intervals)
	st.StepTo(time.Duration(saveAt) * spec.Interval)
	if ctx.Err() == nil {
		payload, err := checkpoint.EncodeStack(st)
		if err != nil {
			return nil, fmt.Errorf("encoding checkpoint: %w", err)
		}
		if err := save(payload); err != nil {
			return nil, err
		}
	}
	st.Drain()
	return spec.label(st.Collect()), nil
}

// RunRestored resumes a single-volume spec from a payload RunSaving handed
// out for the same spec and runs it to completion; the results are
// byte-identical to the uninterrupted run's.
func RunRestored(ctx context.Context, spec Spec, payload []byte) (*engine.Results, error) {
	spec = spec.Normalize()
	if spec.Volumes > 1 {
		return nil, fmt.Errorf("checkpointed runs need a single volume (got %d)", spec.Volumes)
	}
	st := spec.routedStack(0)
	if err := checkpoint.DecodeStack(ctx, st, payload); err != nil {
		return nil, err
	}
	st.Drain()
	return spec.label(st.Collect()), nil
}

// RunWarmSharedCached is RunWarmShared backed by a persistent checkpoint
// store: before simulating a warmup prefix — the group leader's shared
// one, or a scratch member's private one — the run checks the store for
// a checkpoint of that exact prefix (keyed by the normalized spec,
// driving scheme and warmup length) and restores it instead; after
// simulating a prefix no cache held, it writes the checkpoint through
// for future invocations. Results remain byte-identical to scratch runs
// — the restore property is pinned by the checkpoint package's
// equivalence tests — and a store entry that is missing, corrupt,
// truncated, or version-skewed silently degrades to simulation
// (surfaced in the member's WarmOutcome.Cache, never as an error). A
// nil store is exactly RunWarmShared.
func RunWarmSharedCached(ctx context.Context, specs []Spec, warmupIntervals int, store *checkpoint.Store) ([]*engine.Results, []WarmOutcome) {
	out := make([]*engine.Results, len(specs))
	plan := make([]WarmOutcome, len(specs))
	leaderIdx := warmLeaderIndex(specs, warmupIntervals)
	if leaderIdx < 0 {
		for i, s := range specs {
			out[i], plan[i] = runMemberCached(ctx, s, warmupIntervals, store, WarmReasonNoLeader)
		}
		return out, plan
	}
	spec := specs[leaderIdx].Normalize()
	if spec.Volumes <= 1 {
		runWarmSingle(ctx, specs, spec, leaderIdx, warmupIntervals, store, out, plan)
	} else {
		runWarmArray(ctx, specs, spec, leaderIdx, warmupIntervals, store, out, plan)
	}
	return out, plan
}
