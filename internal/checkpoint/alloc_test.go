package checkpoint_test

import (
	"context"
	"runtime"
	"testing"

	"lbica/internal/checkpoint"
	"lbica/internal/experiments"
)

// TestCodecAllocations pins the codec's allocation budget on a paper-scale
// warm prefix: a default-geometry tpcc/LBICA stack warmed to interval 150
// of 200, the prefix the sweep-warm benchmark shares. EncodeStack sizes
// its buffer once, so it allocates little beyond the payload; DecodeStack
// fills the arrays the fresh build already allocated, so it allocates less
// than the payload. Not parallel: TotalAlloc counts the whole process.
func TestCodecAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale warmup")
	}
	ctx := context.Background()
	spec := experiments.Spec{Workload: experiments.WorkloadTPCC, Scheme: experiments.SchemeLBICA, Seed: 1}.Normalize()
	leader := buildStack(spec)
	leader.Start(ctx, spec.Intervals)
	leader.StepTo(150 * spec.Interval)

	var payload []byte
	enc := allocated(func() {
		var err error
		if payload, err = checkpoint.EncodeStack(leader); err != nil {
			t.Fatalf("EncodeStack: %v", err)
		}
	})
	fresh := buildStack(spec)
	dec := allocated(func() {
		if err := checkpoint.DecodeStack(ctx, fresh, payload); err != nil {
			t.Fatalf("DecodeStack: %v", err)
		}
	})
	n := float64(len(payload))
	t.Logf("payload %d B: encode allocates %.2fx, decode %.2fx", len(payload), float64(enc)/n, float64(dec)/n)
	if float64(enc) > 1.5*n {
		t.Errorf("EncodeStack allocated %d B for a %d B payload, want at most 1.5x", enc, len(payload))
	}
	if float64(dec) >= n {
		t.Errorf("DecodeStack allocated %d B for a %d B payload, want less than 1x", dec, len(payload))
	}
}

// TestDecodeSharesZipfTable: a stack decoded while the stack that wrote
// the checkpoint is live shares its generator's Zipf table instead of
// rebuilding it, so the decode allocates less than one tpcc CDF (147,456
// float64 ranks). Not parallel, for the same reason as above.
func TestDecodeSharesZipfTable(t *testing.T) {
	ctx := context.Background()
	spec := experiments.Spec{Workload: experiments.WorkloadTPCC, Scheme: experiments.SchemeLBICA, Seed: 1, Intervals: 20}.Normalize()
	leader := buildStack(spec)
	leader.Start(ctx, spec.Intervals)
	leader.StepTo(10 * spec.Interval)
	payload, err := checkpoint.EncodeStack(leader)
	if err != nil {
		t.Fatalf("EncodeStack: %v", err)
	}
	fresh := buildStack(spec)
	dec := allocated(func() {
		if err := checkpoint.DecodeStack(ctx, fresh, payload); err != nil {
			t.Fatalf("DecodeStack: %v", err)
		}
	})
	runtime.KeepAlive(leader)
	const cdfBytes = 144 * 1024 * 8
	t.Logf("decode allocates %d B beside a live leader (one tpcc CDF is %d B)", dec, cdfBytes)
	if dec >= cdfBytes {
		t.Errorf("DecodeStack allocated %d B with the leader live, want less than one %d B CDF", dec, cdfBytes)
	}
}

// allocated reports the heap bytes allocated while f runs.
func allocated(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}
