package experiments

import (
	"context"
	"os"
	"reflect"
	"testing"
	"time"

	"lbica/internal/block"
	"lbica/internal/checkpoint"
	"lbica/internal/workload"
)

func openStore(t *testing.T) *checkpoint.Store {
	t.Helper()
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func leaderOf(t *testing.T, specs []Spec, warmup int) int {
	t.Helper()
	idx := warmLeaderIndex(specs, warmup)
	if idx < 0 {
		t.Fatal("group unexpectedly unshareable")
	}
	return idx
}

// TestRunWarmSharedCachedRoundTrip is the tentpole's persistence
// contract: the first invocation over an empty store simulates each
// warmup prefix and publishes it (Cache annotation cache-store), the
// second restores it (cache-hit), and both invocations — single-volume
// and multi-volume — return results byte-identical to the uncached
// planner, which is itself pinned byte-identical to scratch runs. At one
// volume the scratch members (here SIB, whose prefix can never fork from
// the leader's) go through the store with their own private prefixes; at
// more than one the scratch members are multi-volume runs the cache does
// not cover, so their annotation stays empty.
func TestRunWarmSharedCachedRoundTrip(t *testing.T) {
	ctx := context.Background()
	const warmup, intervals = 10, 40
	for _, volumes := range []int{1, 2} {
		skew := 0.0
		if volumes > 1 {
			skew = 1.2
		}
		specs := warmGroup("tpcc", volumes, skew, intervals)
		leaderIdx := leaderOf(t, specs, warmup)
		want, _ := RunWarmShared(ctx, specs, warmup)
		store := openStore(t)

		first, plan1 := RunWarmSharedCached(ctx, specs, warmup, store)
		if got := plan1[leaderIdx]; got != (WarmOutcome{Kind: WarmLeader, Cache: WarmCacheStore}) {
			t.Errorf("%d volumes, first run leader outcome %+v, want leader/cache-store", volumes, got)
		}
		second, plan2 := RunWarmSharedCached(ctx, specs, warmup, store)
		if got := plan2[leaderIdx]; got != (WarmOutcome{Kind: WarmLeader, Cache: WarmCacheHit}) {
			t.Errorf("%d volumes, second run leader outcome %+v, want leader/cache-hit", volumes, got)
		}
		for i, s := range specs {
			mustEqual(t, first[i], want[i], s.Scheme+" (store pass)")
			mustEqual(t, second[i], want[i], s.Scheme+" (hit pass)")
			if s.Scheme != SchemeSIB {
				continue
			}
			wantCache := ""
			if volumes == 1 {
				wantCache = WarmCacheStore
			}
			if got := plan1[i]; got != (WarmOutcome{Kind: WarmScratch, Reason: WarmReasonSIB, Cache: wantCache}) {
				t.Errorf("%d volumes, first run SIB outcome %+v", volumes, got)
			}
			if volumes == 1 {
				wantCache = WarmCacheHit
			}
			if got := plan2[i]; got != (WarmOutcome{Kind: WarmScratch, Reason: WarmReasonSIB, Cache: wantCache}) {
				t.Errorf("%d volumes, second run SIB outcome %+v", volumes, got)
			}
		}
	}
}

// A corrupt store entry must degrade to simulation — Cache annotation
// cache-corrupt, results untouched — and the rewritten entry must serve
// the next invocation as a clean hit.
func TestRunWarmSharedCachedCorruptFallback(t *testing.T) {
	ctx := context.Background()
	const warmup, intervals = 10, 40
	specs := warmGroup("tpcc", 1, 0, intervals)
	leaderIdx := leaderOf(t, specs, warmup)
	want, _ := RunWarmShared(ctx, specs, warmup)
	store := openStore(t)

	if _, plan := RunWarmSharedCached(ctx, specs, warmup, store); plan[leaderIdx].Cache != WarmCacheStore {
		t.Fatalf("seed run leader outcome %+v", plan[leaderIdx])
	}
	key := warmCacheKey(specs[leaderIdx].Normalize(), SchemeLBICA, warmup)
	path := store.Path(key)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	got, plan := RunWarmSharedCached(ctx, specs, warmup, store)
	if wantOut := (WarmOutcome{Kind: WarmLeader, Cache: WarmCacheCorrupt}); plan[leaderIdx] != wantOut {
		t.Errorf("corrupt-entry leader outcome %+v, want %+v", plan[leaderIdx], wantOut)
	}
	for i, s := range specs {
		mustEqual(t, got[i], want[i], s.Scheme+" (corrupt fallback)")
	}

	// The fallback overwrote the bad entry: next invocation hits clean.
	if _, plan := RunWarmSharedCached(ctx, specs, warmup, store); plan[leaderIdx] != (WarmOutcome{Kind: WarmLeader, Cache: WarmCacheHit}) {
		t.Errorf("post-overwrite leader outcome %+v, want leader/cache-hit", plan[leaderIdx])
	}
}

// A truncated payload inside a structurally valid container (checksum
// recomputed) must be rejected by the stack decoder and degrade the same
// way.
func TestRunWarmSharedCachedDecodeFailureFallback(t *testing.T) {
	ctx := context.Background()
	const warmup, intervals = 10, 40
	specs := warmGroup("tpcc", 1, 0, intervals)
	leaderIdx := leaderOf(t, specs, warmup)
	store := openStore(t)

	if _, plan := RunWarmSharedCached(ctx, specs, warmup, store); plan[leaderIdx].Cache != WarmCacheStore {
		t.Fatalf("seed run leader outcome %+v", plan[leaderIdx])
	}
	key := warmCacheKey(specs[leaderIdx].Normalize(), SchemeLBICA, warmup)
	_, payloads, err := checkpoint.ReadFile(store.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the entry with the payload cut in half: the container is
	// self-consistent, so only DecodeStack can notice.
	short := payloads[0][:len(payloads[0])/2]
	if err := checkpoint.WriteFile(store.Path(key), key, [][]byte{short}); err != nil {
		t.Fatal(err)
	}

	want, _ := RunWarmShared(ctx, specs, warmup)
	got, plan := RunWarmSharedCached(ctx, specs, warmup, store)
	if wantOut := (WarmOutcome{Kind: WarmLeader, Cache: WarmCacheCorrupt}); plan[leaderIdx] != wantOut {
		t.Errorf("short-payload leader outcome %+v, want %+v", plan[leaderIdx], wantOut)
	}
	for i, s := range specs {
		mustEqual(t, got[i], want[i], s.Scheme+" (decode fallback)")
	}
}

// A sweep interrupted during a warmup must not publish the halted prefix:
// a later invocation would restore it and silently run nothing.
func TestCancelledWarmupIsNotPublished(t *testing.T) {
	store := openStore(t)
	specs := []Spec{
		{Workload: "tpcc", Scheme: SchemeWB, Seed: 3, Intervals: 20},
		{Workload: "tpcc", Scheme: SchemeLBICA, Seed: 3, Intervals: 20},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, plan := RunWarmSharedCached(ctx, specs, 10, store); plan[1].Cache != "" {
		t.Fatalf("cancelled leader reported store traffic %q", plan[1].Cache)
	}
	got, plan := RunWarmSharedCached(context.Background(), specs, 10, store)
	if plan[1].Cache != WarmCacheStore {
		t.Errorf("leader after an interrupted sweep: cache %q, want %q", plan[1].Cache, WarmCacheStore)
	}
	for i, s := range specs {
		mustEqual(t, got[i], RunContext(context.Background(), s), s.Scheme+" after an interrupted sweep")
	}
}

// The cache key must separate every spec field that shapes the prefix: a
// store seeded for one spec must miss for a neighbouring one. The fields
// come from reflection, so a field added to Spec fails this test until it
// is either perturbed here (and keyed) or allowlisted as never shaping
// simulated state.
func TestWarmCacheKeySeparatesSpecs(t *testing.T) {
	base := Spec{Workload: "tpcc", Scheme: SchemeLBICA, Seed: 11, Intervals: 40}
	phases := []workload.Phase{{Name: "p", Duration: time.Second, BaseIOPS: 1000, WorkingSetBlocks: 4096}}
	phases2 := []workload.Phase{{Name: "p", Duration: time.Second, BaseIOPS: 1200, WorkingSetBlocks: 4096}}
	reqs := []workload.Request{{At: time.Millisecond, Op: block.Read, Extent: block.Extent{LBA: 8, Sectors: 8}}}
	reqs2 := []workload.Request{{At: time.Millisecond, Op: block.Write, Extent: block.Extent{LBA: 8, Sectors: 8}}}
	onArray := func(s *Spec) { s.Volumes = 3 }
	perturb := map[string]struct{ from, to func(*Spec) }{
		"Workload":       {nil, func(s *Spec) { s.Workload = "mail" }},
		"Seed":           {nil, func(s *Spec) { s.Seed = 12 }},
		"Intervals":      {nil, func(s *Spec) { s.Intervals = 41 }},
		"Interval":       {nil, func(s *Spec) { s.Interval = 100 * time.Millisecond }},
		"RateFactor":     {nil, func(s *Spec) { s.RateFactor = 1.5 }},
		"CacheMult":      {nil, func(s *Spec) { s.CacheMult = 0.5 }},
		"BurstMult":      {nil, func(s *Spec) { s.BurstMult = 2 }},
		"Volumes":        {nil, func(s *Spec) { s.Volumes = 2 }},
		"RoutePolicy":    {onArray, func(s *Spec) { s.RoutePolicy = "hash" }},
		"RouteSkew":      {onArray, func(s *Spec) { s.RouteSkew = 1.2 }},
		"Thresholds":     {nil, func(s *Spec) { s.Thresholds.MinQueued = 48 }},
		"Name":           {nil, func(s *Spec) { s.Name = "x" }},
		"Phases":         {func(s *Spec) { s.Phases = &phases }, func(s *Spec) { s.Phases = &phases2 }},
		"Replay":         {func(s *Spec) { s.Replay = &reqs }, func(s *Spec) { s.Replay = &reqs2 }},
		"CacheMiB":       {nil, func(s *Spec) { s.CacheMiB = 128 }},
		"CacheWays":      {nil, func(s *Spec) { s.CacheWays = 4 }},
		"Replacement":    {nil, func(s *Spec) { s.Replacement = "fifo" }},
		"DiskElevator":   {nil, func(s *Spec) { s.DiskElevator = true }},
		"DisablePrewarm": {nil, func(s *Spec) { s.DisablePrewarm = true }},
		"Hooks":          {nil, func(s *Spec) { s.Hooks = &Hooks{} }},
	}
	// Scheme is passed to the key separately (the driving balancer, below);
	// ShardWorkers and RouteVariant are execution-only.
	allow := map[string]func(*Spec){
		"Scheme":       func(s *Spec) { s.Scheme = SchemeArrayLB },
		"ShardWorkers": func(s *Spec) { s.ShardWorkers = 4 },
		"RouteVariant": func(s *Spec) { s.Scheme, s.RouteVariant = SchemeArrayLB, "p2c" },
	}
	baseKey := warmCacheKey(base, SchemeLBICA, 10)
	typ := reflect.TypeOf(Spec{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if set, ok := allow[name]; ok {
			s := base
			set(&s)
			if k := warmCacheKey(s, SchemeLBICA, 10); k != baseKey {
				t.Errorf("allowlisted field %s moved the cache key", name)
			}
			continue
		}
		p, ok := perturb[name]
		if !ok {
			t.Errorf("Spec field %s is neither perturbed nor allowlisted: key it in warmCacheKey and add it here", name)
			continue
		}
		from := base
		if p.from != nil {
			p.from(&from)
		}
		to := from
		p.to(&to)
		if warmCacheKey(from, SchemeLBICA, 10) == warmCacheKey(to, SchemeLBICA, 10) {
			t.Errorf("perturbing %s leaves the cache key unchanged", name)
		}
	}
	// A schedule or stream keys by content: equal copies share the entry.
	a, b := base, base
	a.Phases, b.Phases = &phases, &[]workload.Phase{phases[0]}
	if warmCacheKey(a, SchemeLBICA, 10) != warmCacheKey(b, SchemeLBICA, 10) {
		t.Error("equal phase schedules at different addresses key differently")
	}
	if k2 := warmCacheKey(base, SchemeLBICA, 11); k2 == baseKey {
		t.Error("warmup length not part of the cache key")
	}
	// The driving scheme keys the prefix: a scratch member's private
	// prefix (its own balancer) must never collide with the shared
	// leader prefix (always the LBICA balancer) for the same spec.
	if k := warmCacheKey(base, SchemeSIB, 10); k == baseKey {
		t.Error("driving scheme not part of the cache key")
	}
}
