package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"lbica/internal/array"
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

// warmCacheKey is the canonical content address of a run's prefix: every
// normalized spec field that shapes the first warmupIntervals intervals,
// plus the checkpoint format version. It keys the store's entries and the
// single-run checkpoint files alike. The scheme is the balancer that
// drives the prefix — SchemeLBICA for a group's shared leader prefix (the
// planner keys the leader's LBICA spec even when the nominal leader member
// is a one-volume ARRAY-LB), a scratch member's own scheme for its private
// prefix. The routing variant is keyed only for a multi-volume ARRAY-LB
// run, as "|rv=" before the warmup length: weighted and p2c controllers
// route apart from the first barrier on, while at one volume the variant
// is inert, so every other key is the one earlier versions wrote.
// ShardWorkers is absent: it never shapes simulated state. A custom
// schedule and a replay stream key by content, not by pointer. A hooked
// run keys apart from an unhooked one: its trace and recording start at
// time zero, so it must never resume from another run's prefix.
//
// Intervals is part of the key even though the prefix stops at the warmup
// barrier: the stack is armed for the full run, so the total tick budget
// is serialized state.
func warmCacheKey(spec Spec, warmupIntervals int) string {
	s := spec.Normalize()
	t := s.Thresholds
	variant := ""
	if s.Scheme == SchemeArrayLB && s.Volumes > 1 {
		v, _ := array.ParseVariant(s.RouteVariant) // validated in Normalize
		variant = "|rv=" + v.String()
	}
	return fmt.Sprintf(
		"v%d|wl=%s|name=%s|phases=%s|replay=%s|scheme=%s|seed=%d|iv=%d|step=%d|rate=%g|cache=%g|burst=%g|vol=%d|rp=%s|rs=%g|th=%g,%g,%g,%g,%d|geom=%d,%d,%s|elev=%t|cold=%t|hooks=%t%s"+warmKeySuffix+"%d",
		checkpoint.FormatVersion, s.Workload, s.Name, contentDigest(s.Phases), contentDigest(s.Replay),
		s.Scheme, s.Seed, s.Intervals, int64(s.Interval),
		s.RateFactor, s.CacheMult, s.BurstMult,
		s.Volumes, s.RoutePolicy, s.RouteSkew,
		t.DominantPair, t.MemberMin, t.PromoteAlone, t.ReadAlone, t.MinQueued,
		s.CacheMiB, s.CacheWays, s.Replacement, s.DiskElevator, s.DisablePrewarm, s.Hooks != nil, variant,
		warmupIntervals)
}

// warmKeySuffix ends every warmCacheKey, followed by the prefix length.
const warmKeySuffix = "|warm="

// contentDigest addresses a schedule or stream by its content ("-" when
// the spec has none).
func contentDigest[T any](p *[]T) string {
	if p == nil {
		return "-"
	}
	sum := sha256.Sum256(fmt.Appendf(nil, "%v", *p))
	return hex.EncodeToString(sum[:])
}

// prepareWarm produces a normalized spec's run standing at the warmup
// barrier, consulting the store first when one is given: the scratch path
// starts the run and steps it to the barrier, the hit path restores it in
// place. Restore failures of any kind fall back to the scratch path and
// overwrite the entry. It also returns the prefix's payloads when it has
// them — loaded on a hit, encoded for the store on a publish — and nil
// otherwise. The annotation is the run's cache traffic
// (WarmOutcome.Cache): WarmCacheHit, WarmCacheStore, WarmCacheCorrupt, or
// "" when the store held nothing usable and the publish failed too (or
// there is no store at all).
func prepareWarm(ctx context.Context, spec Spec, warmupIntervals int, store *checkpoint.Store) (*builtRun, [][]byte, string) {
	corrupt := false
	var key string
	if store != nil {
		key = warmCacheKey(spec, warmupIntervals)
		payloads, err := store.Load(key)
		switch {
		case err != nil:
			corrupt = true
		case payloads != nil:
			r := spec.restoreRun()
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
	r := spec.newRun()
	r.start(ctx)
	r.stepTo(ctx, warmupIntervals)
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
// group with no leader, a multi-volume ARRAY-LB) amortize their prefixes
// over repeated sweeps. Falls back to plain RunContext — outcome
// unchanged — when there is no store or the warmup is not strictly inside
// the run.
func runMemberCached(ctx context.Context, s Spec, warmupIntervals int, store *checkpoint.Store, reason string) (*engine.Results, WarmOutcome) {
	o := WarmOutcome{Kind: WarmScratch, Reason: reason}
	ns := s.Normalize()
	if store == nil || warmupIntervals <= 0 || warmupIntervals >= ns.Intervals {
		return RunContext(ctx, s), o
	}
	r, _, cache := prepareWarm(ctx, ns, warmupIntervals, store)
	o.Cache = cache
	res, _ := r.finish(ctx)
	return res, o
}

// RunSaving runs spec to completion exactly like RunVolumes, pausing at
// the saveAt-th interval barrier to write the run's complete state to a
// checkpoint file at path (atomically), keyed by warmCacheKey. A
// cancellation before the barrier skips the save — a halted mid-interval
// state is not a resumable prefix; an encode or write error ends the run.
func RunSaving(ctx context.Context, spec Spec, saveAt int, path string) (*engine.Results, []*engine.Results, error) {
	spec = spec.Normalize()
	r := spec.newRun()
	r.start(ctx)
	r.stepTo(ctx, saveAt)
	if ctx.Err() == nil {
		payloads, err := r.encode()
		if err == nil {
			err = checkpoint.WriteFile(path, warmCacheKey(spec, saveAt), payloads)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("writing checkpoint: %w", err)
		}
	}
	res, perVolume := r.finish(ctx)
	return res, perVolume, nil
}

// RunRestored resumes spec from the checkpoint file RunSaving wrote at
// path for the same spec and runs it to completion; the results are
// byte-identical to the uninterrupted run's. A file whose key is not
// spec's prefix at some barrier — another run's, or one written in an
// older format — is refused before anything is decoded.
func RunRestored(ctx context.Context, spec Spec, path string) (*engine.Results, []*engine.Results, error) {
	spec = spec.Normalize()
	key, payloads, err := checkpoint.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	at := -1 // the saved barrier, read back from the key
	if i := strings.LastIndex(key, warmKeySuffix); i >= 0 {
		at, _ = strconv.Atoi(key[i+len(warmKeySuffix):])
	}
	if key != warmCacheKey(spec, at) {
		return nil, nil, fmt.Errorf("checkpoint %s was saved for a different run configuration", path)
	}
	r := spec.restoreRun()
	if err := r.decode(ctx, payloads); err != nil {
		return nil, nil, fmt.Errorf("restoring checkpoint %s: %w", path, err)
	}
	res, perVolume := r.finish(ctx)
	return res, perVolume, nil
}
