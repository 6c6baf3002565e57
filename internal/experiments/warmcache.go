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

// prepareWarm produces spec's run standing at the warmup barrier,
// consulting the store first when one is given: the scratch path starts
// the run and steps it to the barrier, the hit path restores it in place.
// Restore failures of any kind fall back to the scratch path and
// overwrite the entry. It also returns the prefix's payloads when it has
// them — loaded on a hit, encoded for the store on a publish — and nil
// otherwise. The annotation is the run's cache traffic
// (WarmOutcome.Cache): WarmCacheHit, WarmCacheStore, WarmCacheCorrupt, or
// "" when the store held nothing usable and the publish failed too (or
// there is no store at all).
func prepareWarm(ctx context.Context, spec Spec, scheme string, warmupIntervals int, store *checkpoint.Store) (warmRun, [][]byte, string) {
	corrupt := false
	var key string
	if store != nil {
		key = warmCacheKey(spec, scheme, warmupIntervals)
		payloads, err := store.Load(key)
		switch {
		case err != nil:
			corrupt = true
		case payloads != nil:
			r := spec.newWarmRun()
			if r.decode(ctx, payloads) == nil {
				return r, payloads, WarmCacheHit
			}
			corrupt = true
		}
	}

	// Scratch: simulate the prefix, then publish it for the next
	// invocation. A failed encode or write leaves the run untouched —
	// the cache is strictly an accelerator. A cancelled prefix halted
	// short of the barrier and is never published: every later
	// invocation would restore it.
	r := spec.newWarmRun()
	r.startTo(ctx, spec, warmupIntervals)
	if store == nil || ctx.Err() != nil {
		return r, nil, ""
	}
	payloads, err := r.encode()
	switch {
	case err != nil || store.Save(key, payloads) != nil:
		return r, payloads, ""
	case corrupt:
		return r, payloads, WarmCacheCorrupt
	default:
		return r, payloads, WarmCacheStore
	}
}

// runMemberCached runs one scratch member — a run that cannot reuse its
// group leader's prefix — backed by the same persistent store: the
// member's own warmup prefix, under its own scheme, is restored when a
// checkpoint exists and simulated-then-published when not. Sharing
// within an invocation needs cross-scheme prefix equality, but sharing
// across invocations only needs same-spec determinism, so even the
// schemes the warm plan must exclude (an acted balancer, SIB's scans, a
// group with no leader) amortize their prefixes over repeated sweeps.
// Falls back to plain RunContext — outcome unchanged — when there is no
// store, the warmup is not strictly inside the run, or the member is
// multi-volume (an array-lb controller has no checkpoint codec, and static
// arrays restore from the leader instead).
func runMemberCached(ctx context.Context, s Spec, warmupIntervals int, store *checkpoint.Store, reason string) (*engine.Results, WarmOutcome) {
	o := WarmOutcome{Kind: WarmScratch, Reason: reason}
	ns := s.Normalize()
	if store == nil || ns.Volumes > 1 || warmupIntervals <= 0 || warmupIntervals >= ns.Intervals {
		return RunContext(ctx, s), o
	}
	r, _, cache := prepareWarm(ctx, ns, ns.Scheme, warmupIntervals, store)
	o.Cache = cache
	return r.finish(ctx, ns), o
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
	st := spec.singleStack()
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
	return spec.label(finishStack(st)), nil
}

// RunRestored resumes a single-volume spec from a payload RunSaving handed
// out for the same spec and runs it to completion; the results are
// byte-identical to the uninterrupted run's.
func RunRestored(ctx context.Context, spec Spec, payload []byte) (*engine.Results, error) {
	spec = spec.Normalize()
	if spec.Volumes > 1 {
		return nil, fmt.Errorf("checkpointed runs need a single volume (got %d)", spec.Volumes)
	}
	st := spec.singleStack()
	if err := checkpoint.DecodeStack(ctx, st, payload); err != nil {
		return nil, err
	}
	return spec.label(finishStack(st)), nil
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
	runWarmPlan(ctx, specs, specs[leaderIdx].Normalize(), leaderIdx, warmupIntervals, store, out, plan)
	return out, plan
}
