package checkpoint_test

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"lbica/internal/checkpoint"
	"lbica/internal/experiments"
	"lbica/internal/perf"
)

// TestCodecAllocations pins the codec's allocation budget on the
// paper-scale warm prefix (perf.WarmedStack). EncodeStack sizes its buffer
// once, so it allocates little beyond the payload; DecodeStack fills the
// arrays the fresh build already allocated, so it allocates less than the
// payload.
// The leader stays live across the decode, as a warm plan's leader does
// while its members restore: otherwise the decode would also count the
// generator's Zipf table, rebuilt because its last user was collected —
// generator set-up, not the codec. Not parallel: TotalAlloc counts the
// whole process.
func TestCodecAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale warmup")
	}
	ctx := context.Background()
	leader, build := perf.WarmedStack()

	var payload []byte
	enc := allocated(func() {
		var err error
		if payload, err = checkpoint.EncodeStack(leader); err != nil {
			t.Fatalf("EncodeStack: %v", err)
		}
	})
	fresh := build()
	dec := allocated(func() {
		if err := checkpoint.DecodeStack(ctx, fresh, payload); err != nil {
			t.Fatalf("DecodeStack: %v", err)
		}
	})
	runtime.KeepAlive(leader)
	n := float64(len(payload))
	t.Logf("payload %d B: encode allocates %.2fx, decode %.2fx", len(payload), float64(enc)/n, float64(dec)/n)
	if float64(enc) > 1.5*n {
		t.Errorf("EncodeStack allocated %d B for a %d B payload, want at most 1.5x", enc, len(payload))
	}
	if float64(dec) >= n {
		t.Errorf("DecodeStack allocated %d B for a %d B payload, want less than 1x", dec, len(payload))
	}
}

// TestPayloadSize pins the size of the paper-scale warm prefix's payload
// (perf.WarmedStack). Cache lines are most of it, and they go on the wire
// as variable-length integers: the payload is about 0.74 MB, where
// fixed-width lines made it 2.31 MB. A return to fixed-width lines fails
// here, not only in the benchmark's allocation figures.
func TestPayloadSize(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale warmup")
	}
	leader, _ := perf.WarmedStack()
	payload, err := checkpoint.EncodeStack(leader)
	if err != nil {
		t.Fatalf("EncodeStack: %v", err)
	}
	t.Logf("payload %d B", len(payload))
	if len(payload) > 1<<20 {
		t.Errorf("paper-scale prefix encodes to %d B, want at most 1 MiB", len(payload))
	}
}

// TestWriteFileDoesNotCopyPayloads: WriteFile streams the head, each
// payload and the checksum to the file, so publishing a container
// allocates a small fraction of the payload bytes rather than a second
// copy of them. Not parallel, for the same reason as above.
func TestWriteFileDoesNotCopyPayloads(t *testing.T) {
	payloads := [][]byte{make([]byte, 1<<20), make([]byte, 1<<19)}
	path := filepath.Join(t.TempDir(), "c.ckpt")
	n := allocated(func() {
		if err := checkpoint.WriteFile(path, "key", payloads); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
	})
	t.Logf("publishing %d payload bytes allocated %d B", 3<<19, n)
	if n >= 64<<10 {
		t.Errorf("WriteFile allocated %d B for %d payload bytes, want under 64 KiB", n, 3<<19)
	}
	if _, got, err := checkpoint.ReadFile(path); err != nil || len(got) != 2 || len(got[0]) != 1<<20 || len(got[1]) != 1<<19 {
		t.Fatalf("ReadFile after the streamed write: %d payloads, err %v", len(got), err)
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
