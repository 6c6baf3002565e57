package workload

import (
	"testing"
	"time"

	"lbica/internal/block"
	"lbica/internal/sim"
)

func drain(g Generator, max int) []Request {
	var out []Request
	for i := 0; i < max; i++ {
		r, ok := g.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

func TestArrivalsAreTimeOrderedAndBounded(t *testing.T) {
	g := RandomRead(time.Second, 5000, 1024, sim.NewRNG(1, "w"))
	reqs := drain(g, 100000)
	if len(reqs) == 0 {
		t.Fatal("no requests generated")
	}
	var last time.Duration
	for i, r := range reqs {
		if r.At < last {
			t.Fatalf("request %d out of order: %v < %v", i, r.At, last)
		}
		last = r.At
		if r.At >= time.Second {
			t.Fatalf("request beyond phase end: %v", r.At)
		}
		if r.Extent.Sectors <= 0 {
			t.Fatal("non-positive request size")
		}
		lo, hi := int64(0), int64(1024*BlockSectors)
		if r.Extent.LBA < lo || r.Extent.End() > hi {
			t.Fatalf("address %v outside working set [%d,%d)", r.Extent, lo, hi)
		}
	}
}

// TestMinIOPSArrivalsStayOnTheClock: a phase at the slowest rate
// validation admits, spanning the whole clock, emits only arrivals in
// [0, MaxArrival), in order. Below the floor the mean gap overflowed, and
// at 1 s/MaxArrival a draw above two means still did.
func TestMinIOPSArrivalsStayOnTheClock(t *testing.T) {
	ph := []Phase{{Name: "slow", Duration: MaxArrival, BaseIOPS: MinIOPS, ReadRatio: 1, WorkingSetBlocks: 8}}
	if err := ValidatePhases(ph); err != nil {
		t.Fatal(err)
	}
	total := 0
	for seed := int64(1); seed <= 50; seed++ {
		reqs := drain(NewPhaseGen("slow", ph, sim.NewRNG(seed, "w")), 10000)
		total += len(reqs)
		var last time.Duration
		for i, r := range reqs {
			if r.At < last || r.At >= MaxArrival {
				t.Fatalf("seed %d: request %d at %v (previous %v), want [previous, %v)", seed, i, r.At, last, MaxArrival)
			}
			last = r.At
		}
	}
	if total == 0 {
		t.Error("no seed drew an arrival")
	}
}

func TestRateApproximation(t *testing.T) {
	g := RandomRead(2*time.Second, 5000, 4096, sim.NewRNG(2, "w"))
	reqs := drain(g, 1000000)
	got := float64(len(reqs)) / 2.0
	if got < 4000 || got > 6000 {
		t.Errorf("achieved %.0f IOPS, want ≈5000", got)
	}
}

func TestReadRatio(t *testing.T) {
	g := MixedRW(time.Second, 10000, 4096, sim.NewRNG(3, "w"))
	reqs := drain(g, 100000)
	reads := 0
	for _, r := range reqs {
		if r.Op == block.Read {
			reads++
		}
	}
	frac := float64(reads) / float64(len(reqs))
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("read fraction = %.3f, want ≈0.5", frac)
	}
}

func TestPureStreamsHaveSingleOp(t *testing.T) {
	for _, r := range drain(RandomRead(100*time.Millisecond, 5000, 1024, sim.NewRNG(4, "w")), 10000) {
		if r.Op != block.Read {
			t.Fatal("random-read emitted a write")
		}
	}
	for _, r := range drain(RandomWrite(100*time.Millisecond, 5000, 1024, sim.NewRNG(5, "w")), 10000) {
		if r.Op != block.Write {
			t.Fatal("random-write emitted a read")
		}
	}
}

func TestSequentialRuns(t *testing.T) {
	g := SequentialRead(500*time.Millisecond, 4000, 1<<20, sim.NewRNG(6, "w"))
	reqs := drain(g, 10000)
	contiguous := 0
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Extent.LBA == reqs[i-1].Extent.End() {
			contiguous++
		}
	}
	frac := float64(contiguous) / float64(len(reqs)-1)
	if frac < 0.8 {
		t.Errorf("contiguous fraction = %.2f, want sequential-dominated", frac)
	}
}

func TestZipfLocalitySkew(t *testing.T) {
	g := RandomRead(time.Second, 20000, 8192, sim.NewRNG(7, "w"))
	reqs := drain(g, 100000)
	counts := map[int64]int{}
	for _, r := range reqs {
		counts[r.Extent.LBA/BlockSectors]++
	}
	// With Zipf 0.8 the most popular block must be far above the uniform
	// expectation.
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	uniform := float64(len(reqs)) / 8192
	if float64(maxCount) < 4*uniform {
		t.Errorf("hottest block %d draws, uniform expectation %.1f — locality too weak", maxCount, uniform)
	}
}

func TestDeterminism(t *testing.T) {
	a := drain(TPCC(Scale{Interval: 50 * time.Millisecond, Intervals: 4, RateFactor: 1}, sim.NewRNG(42, "w")), 50000)
	b := drain(TPCC(Scale{Interval: 50 * time.Millisecond, Intervals: 4, RateFactor: 1}, sim.NewRNG(42, "w")), 50000)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestPhaseTransitions(t *testing.T) {
	g := NewPhaseGen("two", []Phase{
		{Name: "a", Duration: 100 * time.Millisecond, BaseIOPS: 1000, ReadRatio: 1, WorkingSetBlocks: 64},
		{Name: "b", Duration: 100 * time.Millisecond, BaseIOPS: 1000, ReadRatio: 0, WorkingSetBlocks: 64, BaseBlock: 1 << 20},
	}, sim.NewRNG(8, "w"))
	reqs := drain(g, 10000)
	sawSecond := false
	for _, r := range reqs {
		if r.At < 100*time.Millisecond {
			if r.Op != block.Read {
				t.Fatal("phase-a request has phase-b op")
			}
		} else {
			sawSecond = true
			if r.Op != block.Write || r.Extent.LBA < (1<<20)*BlockSectors {
				t.Fatalf("phase-b request wrong: %+v", r)
			}
		}
	}
	if !sawSecond {
		t.Fatal("second phase never reached")
	}
}

func TestZeroDurationPhaseSkipped(t *testing.T) {
	g := NewPhaseGen("skip", []Phase{
		{Name: "empty", Duration: 0},
		{Name: "real", Duration: 50 * time.Millisecond, BaseIOPS: 1000, ReadRatio: 1, WorkingSetBlocks: 64},
	}, sim.NewRNG(9, "w"))
	if reqs := drain(g, 1000); len(reqs) == 0 {
		t.Fatal("generator with a zero-duration lead phase produced nothing")
	}
}

func TestBurstModulation(t *testing.T) {
	g := NewPhaseGen("burst", []Phase{{
		Name: "b", Duration: 2 * time.Second, BaseIOPS: 1000, BurstIOPS: 20000,
		BurstOn: 50 * time.Millisecond, BurstOff: 150 * time.Millisecond,
		ReadRatio: 1, WorkingSetBlocks: 4096,
	}}, sim.NewRNG(10, "w"))
	reqs := drain(g, 1000000)
	// Bucket arrivals into 10ms bins; burst bins should be ~20× base bins.
	bins := make([]int, 200)
	for _, r := range reqs {
		bins[int(r.At/(10*time.Millisecond))]++
	}
	lo, hi := 0, 0
	for _, c := range bins {
		if c > 120 { // > 12k IOPS
			hi++
		}
		if c < 40 { // < 4k IOPS
			lo++
		}
	}
	if hi == 0 || lo == 0 {
		t.Errorf("no ON/OFF contrast: hi=%d lo=%d", hi, lo)
	}
	// Duty cycle ≈ 25% → total ≈ (0.25×20k + 0.75×1k) × 2s ≈ 11.5k
	if len(reqs) < 5000 || len(reqs) > 20000 {
		t.Errorf("total arrivals %d outside plausible burst-modulated band", len(reqs))
	}
}

func TestHotBlocksPrefixAndDeterminism(t *testing.T) {
	g := TPCC(DefaultScale(), sim.NewRNG(11, "w"))
	hot := g.HotBlocks(100)
	if len(hot) != 100 {
		t.Fatalf("hot blocks = %d", len(hot))
	}
	seen := map[int64]bool{}
	for _, b := range hot {
		if seen[b] {
			t.Fatal("duplicate hot block")
		}
		seen[b] = true
	}
	again := TPCC(DefaultScale(), sim.NewRNG(99, "w")).HotBlocks(100)
	for i := range hot {
		if hot[i] != again[i] {
			t.Fatal("hot block set must not depend on the RNG")
		}
	}
}

func TestHotBlocksClampedToWorkingSet(t *testing.T) {
	g := RandomRead(time.Second, 100, 16, sim.NewRNG(12, "w"))
	if got := len(g.HotBlocks(1000)); got != 16 {
		t.Errorf("hot blocks = %d, want clamped 16", got)
	}
}

func TestNamedWorkloadTimelines(t *testing.T) {
	s := Scale{Interval: 20 * time.Millisecond, Intervals: 200, RateFactor: 0.1}
	for _, tc := range []struct {
		g    *PhaseGen
		want int // expected phase count
	}{
		{TPCC(s, sim.NewRNG(1, "w")), 2},
		{MailServer(s, sim.NewRNG(1, "w")), 4},
		{WebServer(s, sim.NewRNG(1, "w")), 2},
	} {
		if len(tc.g.phases) != tc.want {
			t.Errorf("%s phases = %d, want %d", tc.g.Name(), len(tc.g.phases), tc.want)
		}
		var total time.Duration
		for _, p := range tc.g.phases {
			total += p.Duration
		}
		if want := 200 * 20 * time.Millisecond; total != want {
			t.Errorf("%s total duration = %v, want %v", tc.g.Name(), total, want)
		}
	}
}

func TestMailServerPhaseCharacters(t *testing.T) {
	s := Scale{Interval: 20 * time.Millisecond, Intervals: 200, RateFactor: 0.25}
	g := MailServer(s, sim.NewRNG(13, "w"))
	reqs := drain(g, 2000000)
	phaseReads := map[string][2]int{} // phase name → [reads, total]
	for _, r := range reqs {
		iv := int(r.At / (20 * time.Millisecond))
		var name string
		switch {
		case iv < 23:
			name = "steady"
		case iv < 128:
			name = "mixed"
		case iv < 134:
			name = "scan"
		default:
			name = "journal"
		}
		c := phaseReads[name]
		c[1]++
		if r.Op == block.Read {
			c[0]++
		}
		phaseReads[name] = c
	}
	frac := func(n string) float64 {
		c := phaseReads[n]
		if c[1] == 0 {
			return -1
		}
		return float64(c[0]) / float64(c[1])
	}
	if f := frac("mixed"); f < 0.2 || f > 0.4 {
		t.Errorf("mixed-phase read fraction = %.2f, want ≈0.30", f)
	}
	if f := frac("scan"); f < 0.9 {
		t.Errorf("scan-phase read fraction = %.2f, want ≥0.9", f)
	}
	if f := frac("journal"); f > 0.15 {
		t.Errorf("journal-phase read fraction = %.2f, want ≤0.15", f)
	}
}

func TestReplayAndTee(t *testing.T) {
	var captured []Request
	g := NewTee(RandomRead(50*time.Millisecond, 2000, 256, sim.NewRNG(14, "w")), &captured)
	orig := drain(g, 10000)
	if len(orig) != len(captured) {
		t.Fatalf("tee captured %d of %d", len(captured), len(orig))
	}
	rep := NewReplay("again", captured)
	got := drain(rep, 10000)
	if len(got) != len(orig) {
		t.Fatalf("replay emitted %d of %d", len(got), len(orig))
	}
	for i := range got {
		if got[i] != orig[i] {
			t.Fatal("replay diverged")
		}
	}
}
