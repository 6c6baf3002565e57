package array

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"lbica/internal/ckpt"
	"lbica/internal/core"
	"lbica/internal/engine"
	"lbica/internal/iostat"
	"lbica/internal/sim"
	"lbica/internal/workload"
)

// smallSets keeps the test volumes' caches small: 2,048 lines, far below
// tpcc's working set, so hash routing's affine prewarm filter decides
// what each volume holds.
const smallSets = 256

// feedBuild assembles small tpcc volumes: LBICA when lbica is set, the
// balancer-less WB baseline otherwise.
func feedBuild(seed int64, lbica bool) FeedBuildFunc {
	return func(vol int, gen workload.Generator) (*engine.Stack, error) {
		ec := engine.DefaultConfig()
		ec.Seed = sim.Stream(seed, vol)
		ec.Volume = vol
		ec.Cache.Sets = smallSets
		ec.PrewarmBlocks = ec.Cache.Sets * ec.Cache.Ways
		var bal engine.Balancer
		if lbica {
			bal = core.New(core.DefaultConfig())
		}
		return engine.New(ec, gen, bal), nil
	}
}

func tpccBase(seed int64, intervals int) workload.Generator {
	return workload.TPCC(workload.Scale{Intervals: intervals}, sim.NewRNG(seed, "workload:tpcc"))
}

// countingGen counts every Next and HotBlocks on the generator it wraps;
// copies of the base stream can share one pair of counters.
type countingGen struct {
	workload.Generator
	calls, hot *int
}

func (g countingGen) Next() (workload.Request, bool) {
	*g.calls++
	return g.Generator.Next()
}

func (g countingGen) HotBlocks(n int) []int64 {
	*g.hot++
	return g.Generator.(interface{ HotBlocks(int) []int64 }).HotBlocks(n)
}

func newStatic(t *testing.T, cfg Config, seed int64, intervals int, base workload.Generator, build FeedBuildFunc) *Controlled {
	t.Helper()
	c, err := NewStatic(cfg, seed, intervals, engine.DefaultConfig().MonitorEvery, base, build)
	if err != nil {
		t.Fatalf("NewStatic: %v", err)
	}
	return c
}

// runStatic runs a static Controlled array start to finish.
func runStatic(t *testing.T, cfg Config, seed int64, intervals int, base workload.Generator) *Results {
	t.Helper()
	ctx := context.Background()
	c := newStatic(t, cfg, seed, intervals, base, feedBuild(seed, true))
	c.Start(ctx)
	res, err := c.Finish(ctx)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return res
}

// runReference runs the same array on the reference path: Run, every
// volume replaying its own copy of the base stream through VolumeGen.
func runReference(t *testing.T, cfg Config, seed int64, intervals int, newBase func() workload.Generator) *Results {
	t.Helper()
	build := feedBuild(seed, true)
	res, err := Run(context.Background(), cfg, intervals, func(vol int) (*engine.Stack, error) {
		return build(vol, VolumeGen(newBase(), cfg.NewRouter(seed), vol))
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// The differential contract of route once: a static Controlled run is
// byte-identical, volume by volume, to the reference path for every
// routing policy, array width and worker count.
func TestStaticVolumesMatchReference(t *testing.T) {
	const seed, intervals = 9, 8
	for _, pc := range []struct {
		policy Policy
		skew   float64
	}{{Uniform, 0}, {Hash, 0}, {Zipf, 1.2}} {
		for _, volumes := range []int{2, 3, 8} {
			for _, workers := range []int{1, 0, 3} {
				cfg := Config{Volumes: volumes, Policy: pc.policy, Skew: pc.skew, Workers: workers}
				name := fmt.Sprintf("%v/v%d/w%d", pc.policy, volumes, workers)
				want := runReference(t, cfg, seed, intervals, func() workload.Generator { return tpccBase(seed, intervals) })
				got := runStatic(t, cfg, seed, intervals, tpccBase(seed, intervals))
				for v := range want.PerVolume {
					if !reflect.DeepEqual(got.PerVolume[v], want.PerVolume[v]) {
						t.Fatalf("%s: volume %d differs from the reference path", name, v)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: merged results differ from the reference path", name)
				}
				if want.Merged.AppCompleted == 0 {
					t.Fatalf("%s: the run completed nothing", name)
				}
			}
		}
	}
}

// Hash routing keeps its affine prewarm filter on the static path: with a
// cache far smaller than the working set, no volume holds a hot block
// that routes elsewhere, though the unfiltered hottest set is full of
// them.
func TestStaticHashPrewarmIsAffine(t *testing.T) {
	const seed, intervals, volumes = 9, 4, 3
	cfg := Config{Volumes: volumes, Policy: Hash}
	c := newStatic(t, cfg, seed, intervals, tpccBase(seed, intervals), feedBuild(seed, true))
	rt := cfg.NewRouter(seed)
	n := c.stacks[0].Cache().Capacity()
	hot := tpccBase(seed, intervals).(interface{ HotBlocks(int) []int64 }).HotBlocks(n)
	for v, st := range c.stacks {
		if st.Cache().ValidCount() == 0 {
			t.Fatalf("volume %d prewarmed nothing", v)
		}
		elsewhere := 0
		for _, b := range hot {
			if rt.RouteBlock(b) == v {
				continue
			}
			elsewhere++
			if st.Cache().Contains(b) {
				t.Fatalf("volume %d prewarmed block %d, which routes to volume %d", v, b, rt.RouteBlock(b))
			}
		}
		if elsewhere == 0 {
			t.Fatalf("volume %d: every hot block routes here; the filter changed nothing", v)
		}
	}
}

// Route once, counted: a static V-volume run pulls the base stream once
// per request, plus the final pull that ends it; the reference path pulls
// it V times over. Every volume of a controlled run, static or array-lb,
// prewarms from one HotBlocks list.
func TestStaticArrayPullsBaseOnce(t *testing.T) {
	const seed, intervals, volumes = 3, 4, 8
	n := 0
	for g := tpccBase(seed, intervals); ; n++ {
		if _, ok := g.Next(); !ok {
			break
		}
	}
	cfg := Config{Volumes: volumes, Policy: Zipf, Skew: 1.2, Workers: 1}
	static, hot := 0, 0
	runStatic(t, cfg, seed, intervals, countingGen{tpccBase(seed, intervals), &static, &hot})
	if static != n+1 || hot != 1 {
		t.Errorf("static array made %d Next calls for %d requests and %d HotBlocks calls, want %d and 1", static, n, hot, n+1)
	}
	reference, refHot := 0, 0
	runReference(t, cfg, seed, intervals, func() workload.Generator {
		return countingGen{tpccBase(seed, intervals), &reference, &refHot}
	})
	if reference != volumes*(n+1) {
		t.Errorf("reference path made %d Next calls for %d requests, want %d", reference, n, volumes*(n+1))
	}
	lbCalls, lbHot := 0, 0
	if _, err := NewControlled(context.Background(), ControllerConfig{Volumes: volumes, Seed: seed, Workers: 1}, intervals,
		engine.DefaultConfig().MonitorEvery, countingGen{tpccBase(seed, intervals), &lbCalls, &lbHot}, feedBuild(seed, true)); err != nil {
		t.Fatal(err)
	}
	if lbHot != 1 {
		t.Errorf("array-lb run made %d HotBlocks calls for %d volumes, want 1", lbHot, volumes)
	}
}

// A static array stepped to a barrier and encoded decodes onto a fresh,
// unstarted controller — as LBICA, and as WB with the balancer dropped —
// and each finishes byte-identical to its scratch run.
func TestStaticArrayCodecRoundTrip(t *testing.T) {
	ctx := context.Background()
	const seed, intervals, barrier = 4, 6, 2
	cfg := Config{Volumes: 3, Policy: Zipf, Skew: 1.2, Workers: 1}
	newRun := func(lbica bool) *Controlled {
		return newStatic(t, cfg, seed, intervals, tpccBase(seed, intervals), feedBuild(seed, lbica))
	}
	scratch := func(lbica bool) *Results {
		c := newRun(lbica)
		c.Start(ctx)
		res, err := c.Finish(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	leader := newRun(true)
	leader.Start(ctx)
	if err := leader.StepTo(ctx, barrier); err != nil {
		t.Fatal(err)
	}
	if leader.BalancerActed() {
		t.Fatalf("the balancer acted by interval %d; no window to drop it", barrier)
	}
	payloads, err := leader.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(payloads) != 1+cfg.Volumes {
		t.Fatalf("Encode gave %d payloads, want %d", len(payloads), 1+cfg.Volumes)
	}
	for _, lbica := range []bool{true, false} {
		r := newRun(lbica)
		if err := r.Decode(ctx, payloads); err != nil {
			t.Fatalf("Decode (lbica %t): %v", lbica, err)
		}
		// The restored run re-encodes to the same bytes: decoding drew
		// nothing from the base stream.
		if lbica {
			re, err := r.Encode()
			if err != nil || !reflect.DeepEqual(re, payloads) {
				t.Fatalf("re-encoded checkpoint differs (err %v)", err)
			}
		}
		got, err := r.Finish(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, scratch(lbica)) {
			t.Errorf("restored run (lbica %t) differs from its scratch run", lbica)
		}
	}
	got, err := leader.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, scratch(true)) {
		t.Error("the encoded leader's own finish differs from its scratch run")
	}
}

// Damaged or mismatched checkpoints are errors, never panics: a payload
// set of the wrong size, a truncated or bit-flipped controller payload, a
// feed still holding requests at encode, and a static checkpoint decoded
// onto an array-lb run.
func TestStaticArrayCodecErrors(t *testing.T) {
	ctx := context.Background()
	const seed, intervals = 4, 6
	cfg := Config{Volumes: 3, Policy: Uniform, Workers: 1}
	newRun := func() *Controlled {
		return newStatic(t, cfg, seed, intervals, tpccBase(seed, intervals), feedBuild(seed, true))
	}
	leader := newRun()
	leader.Start(ctx)
	leader.StepTo(ctx, 1)
	payloads, err := leader.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ctl := payloads[0]
	with := func(p []byte) [][]byte { return append([][]byte{p}, payloads[1:]...) }
	decode := func(what string, ps [][]byte) (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: Decode panicked: %v", what, r)
			}
		}()
		return newRun().Decode(ctx, ps)
	}

	flipped := append([]byte(nil), ctl...)
	flipped[6] ^= 0x20 // inside the section tag
	for what, ps := range map[string][][]byte{
		"no payloads":        nil,
		"stacks missing":     payloads[:2],
		"extra payload":      append(append([][]byte(nil), payloads...), ctl),
		"truncated":          with(ctl[:len(ctl)/2]),
		"trailing byte":      with(append(append([]byte(nil), ctl...), 0)),
		"flipped section":    with(flipped),
		"swapped payloads":   append([][]byte{payloads[1], payloads[0]}, payloads[2:]...),
		"truncated volume 2": append(append([][]byte(nil), payloads[:3]...), payloads[3][:100]),
	} {
		if err := decode(what, ps); err == nil {
			t.Errorf("%s: Decode accepted a damaged checkpoint", what)
		}
	}
	// Any single bit flip in the controller payload is an error or a
	// restore, never a panic.
	for i := range ctl {
		p := append([]byte(nil), ctl...)
		p[i] ^= 1 << (i % 8)
		decode(fmt.Sprintf("bit flip at byte %d", i), with(p))
	}
	// A different run shape is refused.
	other := newStatic(t, cfg, seed, intervals+1, tpccBase(seed, intervals+1), feedBuild(seed, true))
	if err := other.Decode(ctx, payloads); err == nil {
		t.Error("a checkpoint of a 6-interval run decoded onto a 7-interval run")
	}

	// Mid-interval: requests routed into the feeds but not yet consumed.
	mid := newRun()
	mid.Start(ctx)
	mid.routeBefore(engine.DefaultConfig().MonitorEvery)
	if _, err := mid.Encode(); err == nil {
		t.Error("Encode accepted feeds still holding requests")
	}

	lb := newAdaptive(t, ControllerConfig{Volumes: 3, Seed: seed, Workers: 1}, seed, intervals)
	if err := lb.Decode(ctx, payloads); err == nil {
		t.Error("an array-lb run decoded a static checkpoint")
	}
}

// An array-lb run restored at any barrier finishes byte-identical to its
// scratch run, per-volume results included, for both variants and worker
// counts, and re-encodes to the payloads it was restored from. On
// TestControlledMergeCarriesMigrations' seed-3 hot shard, some barrier
// holds pins and the restored run adds more after it; the run is 10
// intervals long because p2c first migrates at barrier 8.
func TestControlledCodecRestoresAtEveryBarrier(t *testing.T) {
	ctx := context.Background()
	const seed, intervals = 3, 10
	for _, variant := range []Variant{Weighted, PowerOfTwo} {
		for _, workers := range []int{1, 0} {
			name := fmt.Sprintf("%v/w%d", variant, workers)
			cfg := ControllerConfig{Volumes: 3, Skew: 1.2, Seed: seed, Variant: variant, Workers: workers}
			want := runControlled(t, cfg, seed, intervals)
			leader := newAdaptive(t, cfg, seed, intervals)
			leader.Start(ctx)
			migratedPastPins := false
			for barrier := 0; barrier <= intervals; barrier++ {
				if err := leader.StepTo(ctx, barrier); err != nil {
					t.Fatal(err)
				}
				payloads, err := leader.Encode()
				if err != nil {
					t.Fatalf("%s: Encode at barrier %d: %v", name, barrier, err)
				}
				r := newAdaptive(t, cfg, seed, intervals)
				if err := r.Decode(ctx, payloads); err != nil {
					t.Fatalf("%s: Decode at barrier %d: %v", name, barrier, err)
				}
				if re, err := r.Encode(); err != nil || !reflect.DeepEqual(re, payloads) {
					t.Fatalf("%s: barrier %d re-encodes differently (err %v)", name, barrier, err)
				}
				pinned := len(r.rt.pins)
				got, err := r.Finish(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: run restored at barrier %d differs from its scratch run", name, barrier)
				}
				migratedPastPins = migratedPastPins || (pinned > 0 && len(r.rt.pins) > pinned)
			}
			if !migratedPastPins {
				t.Errorf("%s: no barrier held pins that the restored run added to", name)
			}
			// Encoding at every barrier left the leader's own run intact.
			if got, err := leader.Finish(ctx); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: the encoded leader's own finish differs from its scratch run (err %v)", name, err)
			}
		}
	}
}

// Damaged or mismatched array-lb checkpoints are errors: a checkpoint of
// another width or variant, pins out of block order, a pin naming a
// volume outside the array, more than maxPins pins, an encode taken
// mid-interval, and an array-lb checkpoint decoded onto a static run.
func TestAdaptiveArrayCodecErrors(t *testing.T) {
	ctx := context.Background()
	const seed, intervals, barrier = 3, 8, 5
	cfg := ControllerConfig{Volumes: 3, Skew: 1.2, Seed: seed, Workers: 1}
	// encodeAt steps a run to the barrier, lets mutate damage its router,
	// and encodes it.
	encodeAt := func(mutate func(*adaptiveRouter)) ([][]byte, *adaptiveRouter) {
		c := newAdaptive(t, cfg, seed, intervals)
		c.Start(ctx)
		if err := c.StepTo(ctx, barrier); err != nil {
			t.Fatal(err)
		}
		if len(c.rt.pins) < 2 {
			t.Fatalf("%d pins at barrier %d; the hot shard migrated too little", len(c.rt.pins), barrier)
		}
		mutate(c.rt)
		payloads, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return payloads, c.rt
	}
	payloads, rt := encodeAt(func(*adaptiveRouter) {})
	decode := func(cfg ControllerConfig, ps [][]byte) error {
		return newAdaptive(t, cfg, seed, intervals).Decode(ctx, ps)
	}

	wide := cfg
	wide.Volumes = 4
	if err := decode(wide, append(append([][]byte(nil), payloads...), payloads[3])); err == nil {
		t.Error("a 3-volume checkpoint decoded onto a 4-volume run")
	}
	p2c := cfg
	p2c.Variant = PowerOfTwo
	if err := decode(p2c, payloads); err == nil {
		t.Error("a weighted checkpoint decoded onto a p2c run")
	}

	// Swap the two lowest pins' (block, volume) pairs in place.
	blocks := slices.Sorted(maps.Keys(rt.pins))
	first, second := blocks[0], blocks[1]
	pair := func(b int64) []byte {
		enc := ckpt.NewEncoder(16)
		enc.I64(b)
		enc.Int(rt.pins[b])
		return enc.Data()
	}
	ordered := append(pair(first), pair(second)...)
	at := bytes.Index(payloads[0], ordered)
	if at < 0 {
		t.Fatal("the two lowest pins are not adjacent in the controller payload")
	}
	swapped := bytes.Clone(payloads[0])
	copy(swapped[at:], append(pair(second), pair(first)...))
	if err := decode(cfg, append([][]byte{swapped}, payloads[1:]...)); err == nil {
		t.Error("pins out of block order decoded")
	}

	for what, mutate := range map[string]func(*adaptiveRouter){
		"a pin on volume 3 of 3": func(rt *adaptiveRouter) { rt.pins[1<<40] = 3 },
		"maxPins+1 pins": func(rt *adaptiveRouter) {
			for b := int64(1 << 40); len(rt.pins) <= maxPins; b++ {
				rt.pins[b] = 0
			}
		},
	} {
		if damaged, _ := encodeAt(mutate); decode(cfg, damaged) == nil {
			t.Errorf("%s decoded", what)
		}
	}

	mid := newAdaptive(t, cfg, seed, intervals)
	mid.Start(ctx)
	mid.StepTo(ctx, barrier)
	mid.routeBefore(time.Duration(barrier+1) * engine.DefaultConfig().MonitorEvery)
	if _, err := mid.Encode(); err == nil {
		t.Error("Encode accepted a run with requests routed into the next interval")
	}

	static := newStatic(t, Config{Volumes: 3, Policy: Zipf, Skew: 1.2, Workers: 1}, seed, intervals,
		tpccBase(seed, intervals), controlledBuild(seed))
	if err := static.Decode(ctx, payloads); err == nil {
		t.Error("a static run decoded an array-lb checkpoint")
	}
}

// waitGoroutines waits for the goroutine count to fall back to want: a
// joined worker has signalled its exit but may not have unwound yet.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the call, %d before", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// hookBuild is feedBuild with a monitor hook on one volume, run at each of
// its interval closes.
func hookBuild(seed int64, vol int, hook func(iostat.Sample)) FeedBuildFunc {
	build := feedBuild(seed, true)
	return func(v int, gen workload.Generator) (*engine.Stack, error) {
		st, err := build(v, gen)
		if err == nil && v == vol {
			st.Monitor().OnClose(hook)
		}
		return st, err
	}
}

// A volume that panics mid-step re-panics on the caller, after every
// shard worker has exited.
func TestShardPoolRepanicsOnCaller(t *testing.T) {
	ctx := context.Background()
	const seed, intervals = 2, 4
	c := newStatic(t, Config{Volumes: 3, Workers: 3}, seed, intervals, tpccBase(seed, intervals),
		hookBuild(seed, 1, func(iostat.Sample) { panic("volume 1 failed") }))
	c.Start(ctx)
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if r := recover(); r != "volume 1 failed" {
				t.Fatalf("recovered %v, want the volume's panic", r)
			}
		}()
		c.StepTo(ctx, intervals)
		t.Fatal("StepTo returned despite a panicking volume")
	}()
	waitGoroutines(t, before)
}

// A context cancelled mid-StepTo makes it return ctx.Err() — sticky on
// the next call — and Finish keeps only whole volumes, as Run does.
func TestShardPoolCancelMidStep(t *testing.T) {
	const seed, intervals = 2, 4
	for _, workers := range []int{1, 3} {
		// Mid-run: volume 0 cancels at its second interval close, so no
		// volume closes every interval.
		ctx, cancel := context.WithCancel(context.Background())
		closes := 0
		c := newStatic(t, Config{Volumes: 3, Workers: workers}, seed, intervals, tpccBase(seed, intervals),
			hookBuild(seed, 0, func(iostat.Sample) {
				if closes++; closes == 2 {
					cancel()
				}
			}))
		c.Start(ctx)
		if err := c.StepTo(ctx, intervals); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: StepTo returned %v, want context.Canceled", workers, err)
		}
		if err := c.StepTo(ctx, intervals); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: the error is not sticky: %v", workers, err)
		}
		// The cut round is no barrier: the run did not advance past it.
		if c.next != 2 {
			t.Errorf("workers %d: next round %d after a cut second round, want 2", workers, c.next)
		}
		res, err := c.Finish(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: Finish returned %v", workers, err)
		}
		for v, r := range res.PerVolume {
			if r != nil {
				t.Errorf("workers %d: volume %d kept after closing %d of %d intervals", workers, v, len(r.Samples), intervals)
			}
		}
		if res.Merged == nil {
			t.Fatalf("workers %d: nil merged results", workers)
		}
	}

	// At the last barrier, serially: volume 1 cancels as it closes the
	// final interval, after volume 0 finished its round and before
	// volume 2 ran its own. The two whole volumes are kept and the cut
	// one is dropped.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	closes := 0
	c := newStatic(t, Config{Volumes: 3, Workers: 1}, seed, intervals, tpccBase(seed, intervals),
		hookBuild(seed, 1, func(iostat.Sample) {
			if closes++; closes == intervals {
				cancel()
			}
		}))
	c.Start(ctx)
	res, err := c.Finish(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Finish returned %v, want context.Canceled", err)
	}
	for v, r := range res.PerVolume {
		if kept := r != nil; kept != (v < 2) {
			t.Errorf("volume %d kept = %t", v, kept)
		}
		if r != nil && len(r.Samples) != intervals {
			t.Errorf("volume %d kept with %d of %d intervals", v, len(r.Samples), intervals)
		}
	}
}

// No shard worker outlives the StepTo or Finish call that started it.
func TestShardPoolLeavesNoGoroutines(t *testing.T) {
	ctx := context.Background()
	const seed, intervals = 2, 4
	before := runtime.NumGoroutine()
	c := newStatic(t, Config{Volumes: 4, Workers: 4}, seed, intervals, tpccBase(seed, intervals), feedBuild(seed, true))
	c.Start(ctx)
	if err := c.StepTo(ctx, 2); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
	if _, err := c.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}
