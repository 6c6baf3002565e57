package checkpoint_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"lbica/internal/array"
	"lbica/internal/checkpoint"
	"lbica/internal/engine"
	"lbica/internal/experiments"
	"lbica/internal/sim"
	"lbica/internal/workload"
)

// fuzzSpec/fuzzStack shrink the cache to a few hundred lines so the
// committed corpus seeds stay small while still decoding genuinely (the
// line table dominates a default-geometry payload at ~0.7 MB).
func fuzzSpec() experiments.Spec {
	return experiments.Spec{Workload: experiments.WorkloadTPCC, Scheme: experiments.SchemeLBICA, Seed: 7, Intervals: 8}.Normalize()
}

func fuzzStack(spec experiments.Spec) *engine.Stack {
	cfg := engine.DefaultConfig()
	cfg.Seed = spec.Seed
	cfg.MonitorEvery = spec.Interval
	cfg.Cache.Sets = 64
	cfg.Cache.Ways = 4
	cfg.PrewarmBlocks = 256
	return engine.New(cfg, experiments.NewGenerator(spec), experiments.NewBalancerWithThresholds(spec.Scheme, spec.Thresholds))
}

// fuzzVolume builds an array volume with fuzzStack's geometry.
func fuzzVolume(spec experiments.Spec) array.FeedBuildFunc {
	return func(vol int, gen workload.Generator) (*engine.Stack, error) {
		cfg := engine.DefaultConfig()
		cfg.Seed = sim.Stream(spec.Seed, vol)
		cfg.Volume = vol
		cfg.MonitorEvery = spec.Interval
		cfg.Cache.Sets = 64
		cfg.Cache.Ways = 4
		cfg.PrewarmBlocks = 256
		return engine.New(cfg, gen, experiments.NewBalancerWithThresholds(spec.Scheme, spec.Thresholds)), nil
	}
}

// fuzzArray is fuzzStack's two-volume statically routed array, built and
// not started: the shape a multi-volume warmup container restores onto.
func fuzzArray(spec experiments.Spec) *array.Controlled {
	acfg := array.Config{Volumes: 2, Policy: array.Zipf, Skew: 1.2, Workers: 1}
	c, err := array.NewStatic(acfg, spec.Seed, spec.Intervals, spec.Interval, experiments.NewGenerator(spec), fuzzVolume(spec))
	if err != nil {
		panic(err)
	}
	return c
}

// fuzzAdaptive is fuzzArray's shape under the array-lb controller, built
// and not started: the shape an ARRAY-LB container restores onto.
func fuzzAdaptive(spec experiments.Spec) *array.Controlled {
	ccfg := array.ControllerConfig{Volumes: 2, Skew: 1.2, Seed: spec.Seed, Workers: 1}
	c, err := array.NewAdaptive(ccfg, spec.Intervals, spec.Interval, experiments.NewGenerator(spec), fuzzVolume(spec))
	if err != nil {
		panic(err)
	}
	return c
}

// FuzzDecodeCheckpoint hardens both decode layers against arbitrary
// bytes. The input is treated two ways: as a container file (ReadFile
// verifies magic, CRC, version and payload lengths) and as a raw stack
// payload (DecodeStack bounds-checks every read onto a fresh stack).
// Either layer may reject — truncated, bit-flipped and hostile inputs
// must surface as errors, never as panics or unbounded allocations — and
// any container ReadFile accepts must survive a write-and-read round
// trip unchanged.
func FuzzDecodeCheckpoint(f *testing.F) {
	spec := fuzzSpec()
	leader := fuzzStack(spec)
	leader.Start(context.Background(), spec.Intervals)
	leader.StepTo(1 * spec.Interval)
	payload, err := checkpoint.EncodeStack(leader)
	if err != nil {
		f.Fatalf("EncodeStack: %v", err)
	}
	path := filepath.Join(f.TempDir(), "seed.ckpt")
	if err := checkpoint.WriteFile(path, "fuzz-seed", [][]byte{payload}); err != nil {
		f.Fatalf("WriteFile: %v", err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)                // genuine container with a genuine warmed payload
	f.Add(valid[:len(valid)/2]) // truncated mid-payload
	f.Add(valid[:len(valid)-2]) // truncated inside the trailing CRC
	flip := bytes.Clone(valid)
	flip[len(flip)/3] ^= 0x10
	f.Add(flip)     // bit-flipped body
	f.Add(payload)  // raw stack payload, no container framing
	f.Add([]byte{}) // empty
	f.Add([]byte("LBICACK1"))
	f.Add([]byte("not a checkpoint container at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ctx := context.Background()
		p := filepath.Join(t.TempDir(), "in.ckpt")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if key, payloads, err := checkpoint.ReadFile(p); err == nil {
			// Accepted containers must round-trip: re-publish and re-read
			// to the same key and payload bytes.
			p2 := filepath.Join(t.TempDir(), "out.ckpt")
			if err := checkpoint.WriteFile(p2, key, payloads); err != nil {
				t.Fatalf("re-write of accepted container: %v", err)
			}
			key2, payloads2, err := checkpoint.ReadFile(p2)
			if err != nil {
				t.Fatalf("re-read of re-written container: %v", err)
			}
			if key2 != key || len(payloads2) != len(payloads) {
				t.Fatalf("round trip diverged: key %q/%q, %d/%d payloads", key, key2, len(payloads), len(payloads2))
			}
			for i := range payloads {
				if !bytes.Equal(payloads[i], payloads2[i]) {
					t.Fatalf("payload %d diverged across the round trip", i)
				}
			}
			for _, pl := range payloads {
				// Payloads of an accepted container still carry no trust:
				// decoding may error, but must not panic.
				_ = checkpoint.DecodeStack(ctx, fuzzStack(spec), pl)
			}
			if len(payloads) > 1 {
				// A multi-volume container restores onto a static array
				// or an array-lb one.
				_ = fuzzArray(spec).Decode(ctx, payloads)
				_ = fuzzAdaptive(spec).Decode(ctx, payloads)
			}
		}
		// The same bytes as a bare stack payload: error or restore, never
		// a panic.
		_ = checkpoint.DecodeStack(ctx, fuzzStack(spec), data)
	})
}
