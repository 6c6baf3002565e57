package array

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"lbica/internal/block"
	"lbica/internal/core"
	"lbica/internal/engine"
	"lbica/internal/sim"
	"lbica/internal/workload"
)

// controlledBuild assembles small tpcc/LBICA volumes over the
// controller's per-volume feeds.
func controlledBuild(seed int64) FeedBuildFunc {
	return func(vol int, gen workload.Generator) (*engine.Stack, error) {
		ec := engine.DefaultConfig()
		ec.Seed = sim.Stream(seed, vol)
		ec.Volume = vol
		ec.Cache.Sets = 256 // small cache keeps the test fast
		ec.PrewarmBlocks = ec.Cache.Sets * ec.Cache.Ways
		return engine.New(ec, gen, core.New(core.DefaultConfig())), nil
	}
}

// newAdaptive builds an unstarted array-lb run over small tpcc/LBICA
// volumes.
func newAdaptive(t *testing.T, cfg ControllerConfig, seed int64, intervals int) *Controlled {
	t.Helper()
	base := workload.TPCC(workload.Scale{Intervals: intervals}, sim.NewRNG(seed, "workload:tpcc"))
	c, err := NewAdaptive(cfg, intervals, engine.DefaultConfig().MonitorEvery, base, controlledBuild(seed))
	if err != nil {
		t.Fatalf("NewAdaptive: %v", err)
	}
	return c
}

func runControlled(t *testing.T, cfg ControllerConfig, seed int64, intervals int) *Results {
	t.Helper()
	ctx := context.Background()
	c := newAdaptive(t, cfg, seed, intervals)
	c.Start(ctx)
	res, err := c.Finish(ctx)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return res
}

func TestParseVariant(t *testing.T) {
	for in, want := range map[string]Variant{
		"": Weighted, "weighted": Weighted, " P2C ": PowerOfTwo, "power-of-two": PowerOfTwo,
	} {
		got, err := ParseVariant(in)
		if err != nil || got != want {
			t.Errorf("ParseVariant(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseVariant("nope"); err == nil {
		t.Error("ParseVariant accepted an unknown variant")
	}
	if Weighted.String() != "weighted" || PowerOfTwo.String() != "p2c" {
		t.Error("variant names do not round-trip")
	}
}

func TestControllerConfigValidate(t *testing.T) {
	for name, bad := range map[string]ControllerConfig{
		"zero volumes":   {Volumes: 0},
		"absurd width":   {Volumes: MaxVolumes + 1},
		"negative skew":  {Volumes: 2, Skew: -1},
		"oversized skew": {Volumes: 2, Skew: MaxSkew + 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, bad)
		}
	}
	if err := (ControllerConfig{Volumes: 3, Skew: 1.2}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// The tentpole determinism guarantee: the controlled run's output is
// byte-identical for every worker count, for both routing variants —
// controller decisions happen serially at the interval barrier, so the
// shard pool must not be observable.
func TestRunControlledParallelMatchesSerial(t *testing.T) {
	for _, variant := range []Variant{Weighted, PowerOfTwo} {
		cfg := ControllerConfig{Volumes: 3, Skew: 1.2, Seed: 7, Variant: variant}
		serial := cfg
		serial.Workers = 1
		want := runControlled(t, serial, 7, 6)
		for _, workers := range []int{0, 2, 3, 8} {
			par := cfg
			par.Workers = workers
			if got := runControlled(t, par, 7, 6); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: workers=%d run differs from the serial baseline", variant, workers)
			}
		}
		if want.Merged.AppCompleted == 0 || len(want.Merged.Samples) != 6 {
			t.Fatalf("%v: controlled run incomplete: %+v", variant, want.Merged)
		}
	}
}

// Under the hot-shard regime (skewed initial weights) the controller must
// flatten the array: the bottleneck volume's mean cache load stays at or
// below the static Zipf router's, and the per-volume request split is
// strictly more even.
func TestRunControlledFlattensHotShard(t *testing.T) {
	const intervals, seed = 8, 7
	static := runArray(t, Config{Volumes: 3, Policy: Zipf, Skew: 1.2, Workers: 1}, seed, intervals)
	controlled := runControlled(t, ControllerConfig{Volumes: 3, Skew: 1.2, Seed: seed, Workers: 1}, seed, intervals)

	// Merged per-interval loads are per-volume maxima, so CacheLoadMean is
	// the bottleneck volume's mean cache load — the flattening metric.
	if got, want := controlled.Merged.CacheLoadMean(), static.Merged.CacheLoadMean(); got > want {
		t.Errorf("array-lb bottleneck cache load %.1f exceeds static routing's %.1f", got, want)
	}
	spread := func(res *Results) (max, min uint64) {
		min = ^uint64(0)
		for _, r := range res.PerVolume {
			if r.AppSubmitted > max {
				max = r.AppSubmitted
			}
			if r.AppSubmitted < min {
				min = r.AppSubmitted
			}
		}
		return
	}
	sMax, sMin := spread(static)
	cMax, cMin := spread(controlled)
	if sMax-sMin <= cMax-cMin {
		t.Errorf("controller did not even the split: static %d..%d vs controlled %d..%d",
			sMin, sMax, cMin, cMax)
	}
}

// Every request of the base stream lands on exactly one volume — the
// controlled router partitions the stream just like the static ones.
func TestControlledVolumesPartitionTheStream(t *testing.T) {
	const intervals, seed = 6, 5
	res := runControlled(t, ControllerConfig{Volumes: 3, Skew: 1.2, Seed: seed, Workers: 1}, seed, intervals)
	base := workload.TPCC(workload.Scale{Intervals: intervals}, sim.NewRNG(seed, "workload:tpcc"))
	total := uint64(0)
	for {
		if _, ok := base.Next(); !ok {
			break
		}
		total++
	}
	var got uint64
	for v, r := range res.PerVolume {
		if r == nil {
			t.Fatalf("volume %d missing", v)
		}
		got += r.AppSubmitted
	}
	if got != total {
		t.Errorf("volumes submitted %d requests, base stream has %d", got, total)
	}
}

// The merge reducer stays permutation-invariant over controlled results —
// now carrying migrated-line stats — and the migration counters reconcile:
// summed MigratedOut equals summed MigratedIn (every extracted line lands
// somewhere), and a skewed run actually migrates.
func TestControlledMergeCarriesMigrations(t *testing.T) {
	res := runControlled(t, ControllerConfig{Volumes: 3, Skew: 1.2, Seed: 3, Workers: 1}, 3, 8)
	var out, in uint64
	for _, r := range res.PerVolume {
		out += r.CacheStats.MigratedOut
		in += r.CacheStats.MigratedIn
	}
	if out == 0 {
		t.Error("hot-shard run migrated nothing; the migration lever is dead")
	}
	if out != in {
		t.Errorf("migrations unbalanced: %d out, %d in", out, in)
	}
	if res.Merged.CacheStats.MigratedOut != out || res.Merged.CacheStats.MigratedIn != in {
		t.Errorf("merge dropped migration stats: merged %d/%d, want %d/%d",
			res.Merged.CacheStats.MigratedOut, res.Merged.CacheStats.MigratedIn, out, in)
	}
	want := Merge(res.PerVolume)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		perm := append([]*engine.Results(nil), res.PerVolume...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if got := Merge(perm); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: permuted merge of controlled results differs", trial)
		}
	}
}

// Pinned blocks bypass the draw deterministically; unpinned requests
// still follow the variant's distribution.
func TestAdaptiveRouterPins(t *testing.T) {
	rt := newAdaptiveRouter(ControllerConfig{Volumes: 4, Seed: 1})
	rt.pins[7] = 2
	req := workload.Request{Extent: block.Extent{LBA: 7 * workload.BlockSectors, Sectors: 8}}
	for i := 0; i < 100; i++ {
		if v := rt.route(req); v != 2 {
			t.Fatalf("pinned block routed to %d, want 2", v)
		}
	}
}

// Inverse-load reweighting must shift traffic away from a measured
// bottleneck: after observing one volume far hotter than the rest, its
// weight drops below uniform and the coldest volume's rises above it.
func TestAdaptiveRouterReweights(t *testing.T) {
	rt := newAdaptiveRouter(ControllerConfig{Volumes: 3, Seed: 1})
	rt.observe([]float64{900, 100, 100})
	uniform := 1.0 / 3
	if rt.weights[0] >= uniform {
		t.Errorf("bottleneck weight %.3f not below uniform %.3f", rt.weights[0], uniform)
	}
	if rt.weights[1] <= uniform || rt.weights[2] <= uniform {
		t.Errorf("cold weights %.3f/%.3f not above uniform", rt.weights[1], rt.weights[2])
	}
	// The floor keeps even a saturated volume in the measurement loop.
	rt.observe([]float64{1e9, 1, 1})
	if rt.weights[0] < minShare/3-1e-12 {
		t.Errorf("weight %.4f fell through the minShare floor", rt.weights[0])
	}
}

// A pre-cancelled controlled run surfaces the error and keeps only whole
// volumes, mirroring Run's partial-result contract.
func TestRunControlledCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := workload.TPCC(workload.Scale{Intervals: 4}, sim.NewRNG(1, "workload:tpcc"))
	c, err := NewControlled(ctx, ControllerConfig{Volumes: 3, Seed: 1, Workers: 1}, 4,
		engine.DefaultConfig().MonitorEvery, base, controlledBuild(1))
	if err != nil {
		t.Fatalf("NewControlled: %v", err)
	}
	res, err := c.Finish(ctx)
	if err == nil {
		t.Fatal("cancelled Finish returned nil error")
	}
	for v, r := range res.PerVolume {
		if r != nil {
			t.Errorf("volume %d present despite pre-cancelled context", v)
		}
	}
}

// Requests at exactly the interval boundary belong to the next round —
// they must be routed after the controller's decision, not before it.
func TestBoundaryRequestRoutesNextRound(t *testing.T) {
	every := engine.DefaultConfig().MonitorEvery
	feed := &boundaryGen{reqs: []workload.Request{
		{At: every / 2, Extent: block.Extent{LBA: 0, Sectors: 8}},
		{At: every, Extent: block.Extent{LBA: 8, Sectors: 8}}, // exactly on the boundary
	}}
	var mu []time.Duration // arrival times routed before the first barrier
	rt := newAdaptiveRouter(ControllerConfig{Volumes: 2, Seed: 1, Workers: 1})
	pending, ok := feed.Next()
	for ok && pending.At < every {
		rt.route(pending)
		mu = append(mu, pending.At)
		pending, ok = feed.Next()
	}
	if len(mu) != 1 || mu[0] != every/2 {
		t.Fatalf("round 1 routed %v; the boundary request leaked in", mu)
	}
}

type boundaryGen struct {
	reqs []workload.Request
	pos  int
}

func (g *boundaryGen) Name() string { return "boundary" }

func (g *boundaryGen) Next() (workload.Request, bool) {
	if g.pos >= len(g.reqs) {
		return workload.Request{}, false
	}
	r := g.reqs[g.pos]
	g.pos++
	return r, true
}
