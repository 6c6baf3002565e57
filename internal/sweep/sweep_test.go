package sweep

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"lbica/internal/experiments"
	"lbica/internal/sim"
)

// randGrid draws a random grid with distinct values along every axis (a
// declarative grid with duplicate axis values would describe the same cell
// twice; the generator stays inside the documented contract).
func randGrid(r *rand.Rand) Grid {
	wls := append([]string(nil), experiments.Workloads...)
	scs := append([]string(nil), experiments.Schemes...)
	r.Shuffle(len(wls), func(i, j int) { wls[i], wls[j] = wls[j], wls[i] })
	r.Shuffle(len(scs), func(i, j int) { scs[i], scs[j] = scs[j], scs[i] })
	g := Grid{
		Workloads: wls[:1+r.Intn(len(wls))],
		Schemes:   scs[:1+r.Intn(len(scs))],
		Seed:      r.Int63n(1 << 30),
	}
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		g.CacheMults = append(g.CacheMults, 0.25*float64(i+1)+r.Float64()*0.1)
	}
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		g.RateFactors = append(g.RateFactors, 0.5*float64(i+1)+r.Float64()*0.1)
	}
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		g.BurstMults = append(g.BurstMults, 0.5*float64(i+1)+r.Float64()*0.1)
	}
	g.SeedReplicates = 1 + r.Intn(5)
	return g
}

// TestExpandProperties is the property test for Grid.Expand: across many
// random grids, the expansion's length equals the product of the axis
// lengths, every point is unique, and expanding twice yields the same
// points in the same order.
func TestExpandProperties(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		g := randGrid(r)
		pts := g.Expand()

		want := len(g.Workloads) * len(g.Schemes) * len(g.CacheMults) * len(g.RateFactors) *
			len(g.BurstMults) * g.SeedReplicates
		if len(pts) != want || g.Size() != want {
			t.Fatalf("trial %d: len(Expand()) = %d, Size() = %d, want %d (axes %dx%dx%dx%dx%dx%d)",
				trial, len(pts), g.Size(), want,
				len(g.Workloads), len(g.Schemes), len(g.CacheMults), len(g.RateFactors),
				len(g.BurstMults), g.SeedReplicates)
		}

		seen := make(map[string]bool, len(pts))
		for _, p := range pts {
			key := fmt.Sprintf("%s/%s/%v/%v/%v/%d", p.Workload, p.Scheme, p.CacheMult, p.RateFactor, p.BurstMult, p.Replicate)
			if seen[key] {
				t.Fatalf("trial %d: duplicate point %s", trial, key)
			}
			seen[key] = true
		}

		if again := g.Expand(); !reflect.DeepEqual(pts, again) {
			t.Fatalf("trial %d: expansion is not deterministic", trial)
		}
	}
}

// TestExpandSeedsAreControlled pins the seeding discipline: every scheme
// of one replicate shares the replicate's seed (the controlled
// comparison), and replicate seeds derive from (Grid.Seed, replicate)
// via sim.Stream.
func TestExpandSeedsAreControlled(t *testing.T) {
	g := Grid{Seed: 99, SeedReplicates: 3}
	for _, p := range g.Expand() {
		if want := sim.Stream(99, p.Replicate); p.Spec.Seed != want {
			t.Fatalf("point %s/%s rep %d: seed %d, want sim.Stream(99, %d) = %d",
				p.Workload, p.Scheme, p.Replicate, p.Spec.Seed, p.Replicate, want)
		}
	}
}

// TestExpandDefaults: the zero grid falls back to the paper's evaluation
// matrix — 3 workloads × 3 schemes, multiplier 1, rate 1, one replicate.
func TestExpandDefaults(t *testing.T) {
	var g Grid
	pts := g.Expand()
	if len(pts) != len(experiments.Workloads)*len(experiments.Schemes) {
		t.Fatalf("zero grid expands to %d points, want %d", len(pts),
			len(experiments.Workloads)*len(experiments.Schemes))
	}
	for _, p := range pts {
		if p.CacheMult != 1 || p.RateFactor != 1 || p.BurstMult != 1 || p.Replicate != 0 {
			t.Fatalf("zero grid point %+v is not the paper default", p)
		}
	}
	n := g.Normalize()
	if !reflect.DeepEqual(n.Workloads, experiments.Workloads) {
		t.Errorf("default workloads = %v, want %v", n.Workloads, experiments.Workloads)
	}
	if !reflect.DeepEqual(n.Schemes, experiments.Schemes) {
		t.Errorf("default schemes = %v, want %v", n.Schemes, experiments.Schemes)
	}
}

// TestNormalizeCanonicalizesNames: mixed-case CLI names map onto the
// experiments package's canonical constants.
func TestNormalizeCanonicalizesNames(t *testing.T) {
	g := Grid{Workloads: []string{" TPCC ", "Web"}, Schemes: []string{"lbica", " wb"}}.Normalize()
	if !reflect.DeepEqual(g.Workloads, []string{"tpcc", "web"}) {
		t.Errorf("workloads = %v", g.Workloads)
	}
	if !reflect.DeepEqual(g.Schemes, []string{"LBICA", "WB"}) {
		t.Errorf("schemes = %v", g.Schemes)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("canonicalized grid failed validation: %v", err)
	}
}

func TestValidateRejectsBadAxes(t *testing.T) {
	for _, g := range []Grid{
		{Workloads: []string{"nope"}},
		{Schemes: []string{"nope"}},
		{CacheMults: []float64{0}},
		{CacheMults: []float64{-1}},
		{RateFactors: []float64{-0.5}},
		// Non-finite values pass a naive `<= 0` check and would hang the
		// simulation; absurd finite values would overflow the set count.
		{CacheMults: []float64{math.NaN()}},
		{CacheMults: []float64{math.Inf(1)}},
		{CacheMults: []float64{1e18}},
		// In range, but the cache it builds is not: below one set, or past
		// the line bound once the width multiplies it.
		{CacheMults: []float64{1e-9}},
		{CacheMults: []float64{512}, Volumes: []int{1, 2}},
		{RateFactors: []float64{math.NaN()}},
		{RateFactors: []float64{math.Inf(1)}},
		{RateFactors: []float64{1e9}},
		// The burst axis gets the same finite, bounded, positive treatment.
		{BurstMults: []float64{0}},
		{BurstMults: []float64{-2}},
		{BurstMults: []float64{math.NaN()}},
		{BurstMults: []float64{math.Inf(1)}},
		{BurstMults: []float64{1e6}},
		// Malformed family names must fail validation, not panic at run
		// time inside the registry resolution.
		{Workloads: []string{"synth-randread-zipf9.9"}},
		{Workloads: []string{"burst-mix-onXx-duty0.3-read0.5"}},
		{Workloads: []string{"burst-mix-on4x-duty2-read0.5"}},
		// Duplicate axis values would silently re-run identical
		// simulations and inflate the cell's replicate count.
		{Workloads: []string{"tpcc", "TPCC"}},
		{Schemes: []string{"wb", "wb"}},
		{CacheMults: []float64{1, 2, 1}},
		{RateFactors: []float64{0.8, 0.8}},
		{BurstMults: []float64{2, 2}},
		// Negative scalars used to be silently rewritten to their
		// defaults, running a different sweep than the one the user asked
		// for; only the zero value means "use the default".
		{SeedReplicates: -1},
		{Intervals: -5},
		{IntervalLength: -time.Second},
		{WarmupIntervals: -1},
		// The early-termination tolerance is relative: negative and
		// non-finite values would either never or always terminate, so
		// they are hard errors, not clamps.
		{CITolerance: -0.1},
		{CITolerance: math.NaN()},
		{CITolerance: math.Inf(1)},
		// The run bounds: 10^9 replicates ran out of memory in Expand, 2^62
		// overflowed the size into a makeslice panic, and 10^8 intervals
		// reserved a 31 GB series per run.
		{SeedReplicates: 1_000_000_000},
		{SeedReplicates: 1 << 62},
		{Workloads: []string{"tpcc"}, Schemes: []string{"wb"}, SeedReplicates: MaxRuns + 1},
		{Intervals: 100_000_000},
		{Intervals: 200, IntervalLength: math.MaxInt64},
	} {
		if err := g.Validate(); err == nil {
			t.Errorf("grid %+v passed validation", g)
		}
	}
	// The run bound itself validates.
	if err := (Grid{Workloads: []string{"tpcc"}, Schemes: []string{"wb"}, SeedReplicates: MaxRuns}).Validate(); err != nil {
		t.Errorf("grid of exactly MaxRuns runs failed validation: %v", err)
	}
	// Catalog names beyond the paper trio are valid axis values now.
	ok := Grid{Workloads: []string{"burst-mix-hi", "synth-randread-zipf1.2", "burst-mix-on4x-duty0.3-read0.5"}}
	if err := ok.Validate(); err != nil {
		t.Errorf("catalog workload axis failed validation: %v", err)
	}
}

// TestAggregateSpeedups pins the speedup computation on hand-built runs.
func TestAggregateSpeedups(t *testing.T) {
	runs := []Run{
		{Workload: "tpcc", Scheme: "WB", CacheMult: 1, RateFactor: 1, AvgLatencyUS: 300, QMeanUS: 10},
		{Workload: "tpcc", Scheme: "SIB", CacheMult: 1, RateFactor: 1, AvgLatencyUS: 200, QMeanUS: 20},
		{Workload: "tpcc", Scheme: "LBICA", CacheMult: 1, RateFactor: 1, Replicate: 0, AvgLatencyUS: 100, QMeanUS: 5},
		{Workload: "tpcc", Scheme: "LBICA", CacheMult: 1, RateFactor: 1, Replicate: 1, AvgLatencyUS: 200, QMeanUS: 15},
	}
	cells := Aggregate(runs)
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(cells))
	}
	lb := cells[2]
	if lb.Scheme != "LBICA" || lb.Replicates != 2 {
		t.Fatalf("cells[2] = %+v, want the 2-replicate LBICA cell", lb)
	}
	if lb.LatencyMeanUS != 150 || lb.QMeanUS != 10 || lb.QMinUS != 5 || lb.QMaxUS != 15 {
		t.Errorf("LBICA aggregation = %+v", lb)
	}
	if lb.SpeedupVsWB != 2 || lb.SpeedupVsSIB != 200.0/150 {
		t.Errorf("speedups = %v vs WB, %v vs SIB; want 2 and %v", lb.SpeedupVsWB, lb.SpeedupVsSIB, 200.0/150)
	}
	// Baselines compare against each other but never against themselves.
	if cells[0].SpeedupVsWB != 0 || cells[1].SpeedupVsSIB != 0 {
		t.Errorf("baseline cells carry self-speedups: %+v / %+v", cells[0], cells[1])
	}
	if cells[0].SpeedupVsSIB != 200.0/300 {
		t.Errorf("WB vs SIB speedup = %v", cells[0].SpeedupVsSIB)
	}
}
