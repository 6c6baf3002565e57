package checkpoint_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"lbica/internal/array"
	"lbica/internal/cache"
	"lbica/internal/checkpoint"
	"lbica/internal/engine"
	"lbica/internal/experiments"
	"lbica/internal/sim"
	"lbica/internal/workload"
)

func ckptSpec(wl, scheme string) experiments.Spec {
	return experiments.Spec{Workload: wl, Scheme: scheme, Seed: 7, Intervals: 60}.Normalize()
}

func buildStack(spec experiments.Spec) *engine.Stack {
	cfg := engine.DefaultConfig()
	cfg.Seed = spec.Seed
	cfg.MonitorEvery = spec.Interval
	return engine.New(cfg, experiments.NewGenerator(spec), experiments.NewBalancerWithThresholds(spec.Scheme, spec.Thresholds))
}

func runScratch(spec experiments.Spec) *engine.Results {
	st := buildStack(spec)
	return st.RunContext(context.Background(), spec.Intervals)
}

func mustEqual(t *testing.T, got, want *engine.Results, what string) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for i := range want.Samples {
		if i >= len(got.Samples) {
			t.Errorf("%s: got %d samples, want %d", what, len(got.Samples), len(want.Samples))
			return
		}
		if !reflect.DeepEqual(got.Samples[i], want.Samples[i]) {
			t.Errorf("%s: first divergent sample %d\ngot:  %+v\nwant: %+v", what, i, got.Samples[i], want.Samples[i])
			return
		}
	}
	t.Errorf("%s: results diverge outside samples\ngot:  %+v\nwant: %+v", what, got, want)
}

// warmPayload steps a fresh stack to the barrier and encodes it.
func warmPayload(t *testing.T, spec experiments.Spec, barrier time.Duration) []byte {
	t.Helper()
	leader := buildStack(spec)
	leader.Start(context.Background(), spec.Intervals)
	leader.StepTo(barrier)
	payload, err := checkpoint.EncodeStack(leader)
	if err != nil {
		t.Fatalf("EncodeStack at %v: %v", barrier, err)
	}
	return payload
}

// TestRestoreEquivalence is the tentpole's pinned contract: a stack
// restored from a checkpoint taken mid-run and drained produces results
// byte-identical to an uninterrupted from-scratch run, for every scheme ×
// paper workload — including a restore of a restore's own re-encoding,
// and a fork taken off a restored stack.
func TestRestoreEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, wl := range experiments.Workloads {
		for _, sc := range experiments.Schemes {
			wl, sc := wl, sc
			t.Run(wl+"/"+sc, func(t *testing.T) {
				t.Parallel()
				spec := ckptSpec(wl, sc)
				want := runScratch(spec)

				barrier := time.Duration(spec.Intervals/3) * spec.Interval
				payload := warmPayload(t, spec, barrier)

				// Restore → drain.
				restored := buildStack(spec)
				if err := checkpoint.DecodeStack(ctx, restored, payload); err != nil {
					t.Fatalf("DecodeStack: %v", err)
				}

				// Re-encoding the restored stack before it runs must be
				// byte-identical to the original checkpoint — the encoder
				// observes no difference between a warmed stack and its
				// restoration.
				re, err := checkpoint.EncodeStack(restored)
				if err != nil {
					t.Fatalf("re-encode restored stack: %v", err)
				}
				if !reflect.DeepEqual(re, payload) {
					t.Errorf("re-encoded checkpoint differs from original (%d vs %d bytes)", len(re), len(payload))
				}

				// Fork off the restored stack before draining it: the warm
				// plan forks members off a cache-hit leader.
				fork, err := restored.Fork(ctx, nil)
				if err != nil {
					t.Fatalf("Fork after restore: %v", err)
				}

				restored.Drain()
				mustEqual(t, restored.Collect(), want, "restored stack")
				fork.Drain()
				mustEqual(t, fork.Collect(), want, "fork off restored stack")
			})
		}
	}
}

// TestRestoreWithInFlightEvictions pins the codec on the eviction request
// graph: the background flusher's SSD evict-read (evictOp) and the HDD
// writeback its completion issues (wbCompleter, the only leg that carries
// one — victim writebacks complete anonymously). The equivalence tests
// above never catch either window: their default-size cache stays under
// the dirty watermark so the flusher never starts. This one forces it —
// a small cold cache, watermarks low enough that tpcc's write fraction
// crosses them immediately — and scans sub-interval checkpoints until
// one holds both kinds in flight.
func TestRestoreWithInFlightEvictions(t *testing.T) {
	ctx := context.Background()
	spec := experiments.Spec{Workload: experiments.WorkloadTPCC, Scheme: experiments.SchemeWB,
		Seed: 7, Intervals: 4, RateFactor: 4}.Normalize()
	cfg := engine.DefaultConfig()
	cfg.Seed = spec.Seed
	cfg.MonitorEvery = spec.Interval
	cfg.Cache.Sets = 32
	cfg.Cache.DirtyHighWatermark = 0.02
	cfg.Cache.DirtyLowWatermark = 0.01
	cfg.PrewarmBlocks = 0
	// Bare-drive writebacks (no controller write cache): the HDD leg
	// takes spindle latency, stretching the wbCompleter window from the
	// default 150µs ack to a catchable millisecond scale.
	cfg.HDD.WriteCacheDepth = 0
	build := func() *engine.Stack {
		return engine.New(cfg, experiments.NewGenerator(spec),
			experiments.NewBalancerWithThresholds(spec.Scheme, spec.Thresholds))
	}
	want := build().RunContext(ctx, spec.Intervals)

	// StepTo accepts any event boundary, not just barriers: sub-interval
	// steps scan for the (microsecond-scale) window where both eviction
	// legs are in the queues at once.
	var payload []byte
	leader := build()
	leader.Start(ctx, spec.Intervals)
	step := spec.Interval / 500
	for at := step; at < time.Duration(spec.Intervals)*spec.Interval && payload == nil; at += step {
		leader.StepTo(at)
		p, err := checkpoint.EncodeStack(leader)
		if err != nil {
			t.Fatalf("EncodeStack at %v: %v", at, err)
		}
		// Completer kind tags land on the wire verbatim at each first
		// encounter, so the payload itself says what was in flight.
		if bytes.Contains(p, []byte("engine.evictOp")) && bytes.Contains(p, []byte("engine.wbCompleter")) {
			payload = p
		}
	}
	if payload == nil {
		t.Fatal("no step caught an eviction and a writeback in flight; shrink the cache further")
	}

	restored := build()
	if err := checkpoint.DecodeStack(ctx, restored, payload); err != nil {
		t.Fatalf("DecodeStack: %v", err)
	}
	restored.Drain()
	mustEqual(t, restored.Collect(), want, "restore with in-flight evictions")
}

// TestRestoreDropBalancerFork pins the warm plan's WB trick on a restored
// leader: while the balancer has not acted, a DropBalancer fork off a
// restored LBICA leader is byte-identical to a from-scratch WB run. The
// same holds for an LBICA static array's checkpoint decoded straight onto
// a WB array. A SIB prefix, a prefix the balancer
// acted on, and a stack pinned to another cache policy are refused.
func TestRestoreDropBalancerFork(t *testing.T) {
	ctx := context.Background()
	lbSpec := ckptSpec(experiments.WorkloadTPCC, experiments.SchemeLBICA)
	wbSpec := ckptSpec(experiments.WorkloadTPCC, experiments.SchemeWB)

	barrier := 2 * lbSpec.Interval
	payload := warmPayload(t, lbSpec, barrier)
	restored := buildStack(lbSpec)
	if err := checkpoint.DecodeStack(ctx, restored, payload); err != nil {
		t.Fatalf("DecodeStack: %v", err)
	}
	if restored.BalancerActed() {
		t.Skipf("balancer already acted by %v; no shared-warmup window", barrier)
	}
	f, err := restored.Fork(ctx, engine.DropBalancer)
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	f.Drain()
	mustEqual(t, f.Collect(), runScratch(wbSpec), "WB fork off restored leader")
	restored.Drain()
	mustEqual(t, restored.Collect(), runScratch(lbSpec), "restored LBICA leader")

	// The same restore on a 3-volume statically routed array, the shape the
	// sweep's array warm plan shares: the LBICA array's checkpoint (the
	// controller payload plus one payload per volume), restored onto a WB
	// array, equals a scratch WB array run.
	acfg := array.Config{Volumes: 3, Policy: array.Zipf, Skew: 1.2}
	staticArray := func(spec experiments.Spec) *array.Controlled {
		c, err := array.NewStatic(acfg, spec.Seed, spec.Intervals, spec.Interval, experiments.NewGenerator(spec),
			func(vol int, gen workload.Generator) (*engine.Stack, error) {
				cfg := engine.DefaultConfig()
				cfg.Seed = sim.Stream(spec.Seed, vol)
				cfg.Volume = vol
				cfg.MonitorEvery = spec.Interval
				return engine.New(cfg, gen, experiments.NewBalancerWithThresholds(spec.Scheme, spec.Thresholds)), nil
			})
		if err != nil {
			t.Fatalf("NewStatic: %v", err)
		}
		return c
	}
	leader := staticArray(lbSpec)
	leader.Start(ctx)
	if err := leader.StepTo(ctx, int(barrier/lbSpec.Interval)); err != nil {
		t.Fatalf("StepTo: %v", err)
	}
	if leader.BalancerActed() {
		t.Fatalf("array balancer acted by %v; no shared-warmup window", barrier)
	}
	payloads, err := leader.Encode()
	if err != nil {
		t.Fatalf("array Encode: %v", err)
	}
	wb := staticArray(wbSpec)
	if err := wb.Decode(ctx, payloads); err != nil {
		t.Fatalf("array Decode as WB: %v", err)
	}
	got, err := wb.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	scratch := staticArray(wbSpec)
	scratch.Start(ctx)
	want, err := scratch.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for vol := range want.PerVolume {
		mustEqual(t, got.PerVolume[vol], want.PerVolume[vol], fmt.Sprintf("volume %d restored as WB", vol))
	}

	// A SIB prefix was shaped by its balancer from t=0 (the WT+WO pin and
	// the scan periodic): restoring it without the balancer must fail
	// instead of running a divergent WB baseline.
	sibPayload := warmPayload(t, ckptSpec(experiments.WorkloadTPCC, experiments.SchemeSIB), barrier)
	if err := checkpoint.DecodeStack(ctx, buildStack(wbSpec), sibPayload); err == nil {
		t.Error("a SIB prefix restored onto a WB stack")
	}
	// Nor may a prefix the LBICA balancer acted on, even once its cache is
	// back in WB (tpcc's first burst is over by interval 33).
	late := buildStack(lbSpec)
	late.Start(ctx, lbSpec.Intervals)
	late.StepTo(33 * lbSpec.Interval)
	if !late.BalancerActed() {
		t.Fatal("the tpcc balancer has not acted by interval 33")
	}
	actedPayload, err := checkpoint.EncodeStack(late)
	if err != nil {
		t.Fatalf("EncodeStack: %v", err)
	}
	if err := checkpoint.DecodeStack(ctx, buildStack(wbSpec), actedPayload); err == nil {
		t.Error("a prefix the LBICA balancer acted on restored onto a WB stack")
	}
	// Nor may an LBICA prefix restore onto a stack that pins another
	// cache policy: its WB cache would silently replace the pin.
	roCfg := engine.DefaultConfig()
	roCfg.Seed = wbSpec.Seed
	roCfg.MonitorEvery = wbSpec.Interval
	roCfg.Cache.InitialPolicy = cache.RO
	ro := engine.New(roCfg, experiments.NewGenerator(wbSpec), nil)
	if err := checkpoint.DecodeStack(ctx, ro, payload); err == nil {
		t.Error("an LBICA prefix restored onto a stack pinned to RO")
	}
}
