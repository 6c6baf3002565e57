package engine

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"lbica/internal/block"
	"lbica/internal/cache"
	"lbica/internal/sim"
	"lbica/internal/trace"
	"lbica/internal/workload"
)

// TestTraceCompleteness checks the per-request lifecycle in the trace:
// every non-merged queue insertion is eventually dispatched and completed,
// exactly once each.
func TestTraceCompleteness(t *testing.T) {
	cfg := testConfig()
	var buf trace.Buffer
	cfg.Trace = &buf
	gen := workload.MixedRW(200*time.Millisecond, 3000, 4096, sim.NewRNG(21, "wl"))
	New(cfg, gen, nil).Run(4)

	type key struct {
		dev trace.Device
		id  uint64
	}
	queued := map[key]int{}
	dispatched := map[key]int{}
	completed := map[key]int{}
	for _, e := range buf.Events {
		k := key{e.Dev, e.ID}
		switch e.Kind {
		case trace.Queued:
			queued[k]++
		case trace.Dispatched:
			dispatched[k]++
		case trace.Completed:
			completed[k]++
		}
	}
	if len(queued) == 0 {
		t.Fatal("no queue events traced")
	}
	for k, n := range queued {
		if n != 1 {
			t.Fatalf("request %v queued %d times", k, n)
		}
		if dispatched[k] != 1 {
			t.Fatalf("request %v dispatched %d times", k, dispatched[k])
		}
		if completed[k] != 1 {
			t.Fatalf("request %v completed %d times", k, completed[k])
		}
	}
	// No phantom completions either.
	for k := range completed {
		if queued[k] == 0 {
			t.Fatalf("request %v completed but never queued", k)
		}
	}
}

// TestTraceDeterminism: two identical runs produce byte-identical traces.
func TestTraceDeterminism(t *testing.T) {
	run := func() []byte {
		cfg := testConfig()
		var raw bytes.Buffer
		bw := trace.NewBinaryWriter(&raw)
		cfg.Trace = bw
		gen := workload.MixedRW(150*time.Millisecond, 3000, 2048, sim.NewRNG(22, "wl"))
		New(cfg, gen, nil).Run(3)
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
		return raw.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs produced different traces")
	}
}

// TestDiscardRecorderIsUntraced: a stack configured with trace.Discard is
// an untraced stack. It collects exactly what a stack with no recorder
// does, and both checkpoint mid-run; a stack with a real recorder still
// refuses to encode or to be restored onto.
func TestDiscardRecorderIsUntraced(t *testing.T) {
	ctx := context.Background()
	build := func(rec trace.Recorder) *Stack {
		cfg := testConfig()
		cfg.Trace = rec
		gen := workload.MixedRW(300*time.Millisecond, 3000, 2048, sim.NewRNG(23, "wl"))
		return New(cfg, gen, nil)
	}
	var payload []byte
	run := func(rec trace.Recorder) *Results {
		st := build(rec)
		st.Start(ctx, 6)
		st.StepTo(150 * time.Millisecond)
		p, err := st.Encode()
		if err != nil {
			t.Fatalf("untraced stack (recorder %v) does not checkpoint: %v", rec, err)
		}
		payload = p
		st.Drain()
		return st.Collect()
	}
	plain, discard := run(nil), run(trace.Discard)
	if plain.AppCompleted == 0 || !reflect.DeepEqual(plain, discard) {
		t.Fatalf("trace.Discard changed the run: %d vs %d requests completed", plain.AppCompleted, discard.AppCompleted)
	}

	traced := build(&trace.Buffer{})
	traced.Start(ctx, 6)
	traced.StepTo(150 * time.Millisecond)
	if _, err := traced.Encode(); err == nil {
		t.Error("a traced stack encoded")
	}
	if err := build(&trace.Buffer{}).Decode(ctx, payload); err == nil {
		t.Error("a checkpoint restored onto a traced stack")
	}
}

// TestEvictionWritebackPairing: every dirty eviction's SSD read is paired
// with a disk writeback covering the same extent.
func TestEvictionWritebackPairing(t *testing.T) {
	cfg := testConfig()
	cfg.Cache.Sets = 16
	cfg.Cache.Ways = 2
	cfg.Cache.DirtyHighWatermark = 0.99
	cfg.Cache.DirtyLowWatermark = 0.98
	cfg.PrewarmBlocks = 0
	var buf trace.Buffer
	cfg.Trace = &buf
	gen := workload.RandomWrite(150*time.Millisecond, 2000, 4096, sim.NewRNG(23, "wl"))
	res := New(cfg, gen, nil).Run(3)
	if res.CacheStats.DirtyEvicts == 0 {
		t.Skip("no dirty evictions this run")
	}
	evicts := map[int64]int{}
	writebacks := map[int64]int{}
	for _, e := range buf.Events {
		if e.Kind != trace.Queued && e.Kind != trace.Merged {
			continue
		}
		if e.Dev == trace.SSD && e.Origin == block.Evict {
			evicts[e.LBA]++
		}
		if e.Dev == trace.HDD && e.Origin == block.Writeback {
			writebacks[e.LBA]++
		}
	}
	for lba, n := range evicts {
		if writebacks[lba] < n {
			t.Fatalf("LBA %d: %d evict reads but %d writebacks", lba, n, writebacks[lba])
		}
	}
}

// TestSequentialWorkloadMerges: a sequential stream must exercise the
// elevator (merges on at least one tier).
func TestSequentialWorkloadMerges(t *testing.T) {
	cfg := testConfig()
	cfg.PrewarmBlocks = 0
	gen := workload.SequentialWrite(200*time.Millisecond, 6000, 1<<20, sim.NewRNG(24, "wl"))
	res := New(cfg, gen, nil).Run(4)
	if res.SSDMerges == 0 {
		t.Errorf("sequential write stream produced no SSD merges")
	}
	if res.AppCompleted != res.AppSubmitted {
		t.Fatal("merged run wedged")
	}
}

// TestMonitorCompletionConservation: device completions recorded by the
// samples must equal the servers' totals.
func TestMonitorCompletionConservation(t *testing.T) {
	cfg := testConfig()
	gen := workload.MixedRW(250*time.Millisecond, 3000, 2048, sim.NewRNG(25, "wl"))
	st := New(cfg, gen, nil)
	res := st.Run(5)
	var ssd, hdd, app uint64
	for _, s := range res.Samples {
		ssd += s.SSDCompleted
		hdd += s.HDDCompleted
		app += s.AppCompleted
	}
	// Completions after the final tick are not sampled, so the sample sums
	// are a lower bound — but they must be close (≥95%) and never exceed.
	if app > res.AppCompleted {
		t.Fatalf("samples count more app completions (%d) than the run (%d)", app, res.AppCompleted)
	}
	if float64(app) < 0.95*float64(res.AppCompleted) {
		t.Errorf("samples captured only %d of %d app completions", app, res.AppCompleted)
	}
	if ssd == 0 || hdd == 0 {
		t.Error("sampled device completions missing")
	}
}

// TestPolicyChurnKeepsInvariants flips the cache policy every 50 ms of
// virtual time under a mixed workload — a stress for metadata consistency
// and request-lifecycle accounting across policy transitions.
func TestPolicyChurnKeepsInvariants(t *testing.T) {
	cfg := testConfig()
	gen := workload.MixedRW(400*time.Millisecond, 4000, 2048, sim.NewRNG(26, "wl"))
	st := New(cfg, gen, nil)
	seq := []cache.Policy{cache.WT, cache.RO, cache.WO, cache.WTWO, cache.WB}
	i := 0
	st.Periodic(50*time.Millisecond, func() {
		st.Cache().SetPolicy(seq[i%len(seq)])
		i++
	})
	res := st.Run(8)
	if res.AppCompleted != res.AppSubmitted {
		t.Fatalf("policy churn wedged the stack: %d of %d", res.AppCompleted, res.AppSubmitted)
	}
	if err := st.Cache().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if res.CacheStats.PolicySwitches == 0 {
		t.Error("no switches recorded")
	}
}

// TestEnduranceCounters: SSD write volume responds to policy as expected.
func TestEnduranceCounters(t *testing.T) {
	base := testConfig()
	gen := func(seed int64) workload.Generator {
		return workload.RandomWrite(200*time.Millisecond, 3000, 2048, sim.NewRNG(27, "wl"))
	}
	wbCfg := base
	wb := New(wbCfg, gen(1), nil).Run(4)
	roCfg := base
	roCfg.Cache.InitialPolicy = cache.RO
	ro := New(roCfg, gen(1), nil).Run(4)
	if wb.SSDWrittenSectors == 0 {
		t.Fatal("WB recorded no SSD writes")
	}
	if ro.SSDWrittenSectors >= wb.SSDWrittenSectors {
		t.Errorf("RO SSD writes (%d sectors) not below WB (%d)", ro.SSDWrittenSectors, wb.SSDWrittenSectors)
	}
	if ro.HDDWrittenSectors <= wb.HDDWrittenSectors {
		t.Errorf("RO disk writes (%d) not above WB (%d)", ro.HDDWrittenSectors, wb.HDDWrittenSectors)
	}
	if wb.SSDWrittenMiB() <= 0 {
		t.Error("MiB conversion broken")
	}
}

// TestRunMinimumIntervals: Run clamps a non-positive interval count.
func TestRunMinimumIntervals(t *testing.T) {
	cfg := testConfig()
	gen := workload.RandomRead(10*time.Millisecond, 100, 64, sim.NewRNG(28, "wl"))
	res := New(cfg, gen, nil).Run(0)
	if len(res.Samples) != 1 {
		t.Fatalf("samples = %d, want clamped 1", len(res.Samples))
	}
}

// TestStallDelaysService: a stalled SSD defers queued work.
func TestStallDelaysService(t *testing.T) {
	cfg := testConfig()
	gen := workload.RandomRead(time.Millisecond, 10, 16, sim.NewRNG(29, "wl"))
	st := New(cfg, gen, nil)
	st.StallSSD(10 * time.Millisecond)
	done := false
	r := &block.Request{ID: 1, Origin: block.AppRead, Extent: block.Extent{LBA: 0, Sectors: 8}}
	r.OnComplete = block.CompleterFunc(func(*block.Request) { done = true })
	st.SSDQueue().Push(r, 0)
	st.Engine().Run(5 * time.Millisecond)
	if done {
		t.Fatal("request served while the device was stalled")
	}
	st.Engine().RunUntilIdle()
	if !done {
		t.Fatal("request never served after the stall")
	}
}
