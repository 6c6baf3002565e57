package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// warmGrid is the warm-fork identity grid: all four schemes (so one
// comparison holds a forkable leader, a guarded WB sibling, a
// never-sharing SIB, and at width 1 the ARRAY-LB relabel), a shareable
// width-1 entry plus width-3 array entries at both uniform and skewed
// routing (the multi-volume array-fork plan, with ARRAY-LB falling back
// to scratch), and a burst-heavy workload whose balancer acts after the
// barrier.
func warmGrid(warmup int) Grid {
	return Grid{
		Workloads:       []string{"mail"},
		Schemes:         []string{"WB", "SIB", "LBICA", "ARRAY-LB"},
		Volumes:         []int{1, 3},
		RouteSkews:      []float64{0, 1.2},
		SeedReplicates:  1,
		Seed:            11,
		Intervals:       40,
		WarmupIntervals: warmup,
	}
}

// TestWarmForkSweepByteIdentical is the tentpole's acceptance property at
// the sweep layer: a warm-fork sweep (schemes sharing one simulated
// warmup prefix via engine.Fork) must produce every run metric,
// aggregated cell, emitted artifact and per-cell series file
// byte-identical to the from-scratch sweep — serial and parallel alike.
func TestWarmForkSweepByteIdentical(t *testing.T) {
	seriesDir := func(name string) string { return filepath.Join(t.TempDir(), name) }
	scratchDir := seriesDir("scratch")
	scratch, err := Execute(t.Context(), warmGrid(0), Options{Workers: 1, SeriesDir: scratchDir})
	if err != nil {
		t.Fatal(err)
	}
	if scratch.Completed != scratch.Total || scratch.Completed == 0 {
		t.Fatalf("scratch sweep completed %d of %d", scratch.Completed, scratch.Total)
	}
	if scratch.Warm != nil {
		t.Fatalf("warmup-off sweep reported warm stats: %+v", scratch.Warm)
	}

	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := seriesDir("warm-" + tc.name)
			warm, err := Execute(t.Context(), warmGrid(10), Options{Workers: tc.workers, SeriesDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if len(warm.Runs) != len(scratch.Runs) {
				t.Fatalf("run counts diverge: %d warm vs %d scratch", len(warm.Runs), len(scratch.Runs))
			}
			for i := range scratch.Runs {
				if !reflect.DeepEqual(warm.Runs[i], scratch.Runs[i]) {
					t.Errorf("run %d diverges:\n  warm:    %+v\n  scratch: %+v", i, warm.Runs[i], scratch.Runs[i])
				}
			}
			if !reflect.DeepEqual(warm.Cells, scratch.Cells) {
				t.Errorf("aggregated cells diverge between warm-fork and scratch sweeps")
			}

			// The warm plan's outcome counts must reconcile with the grid:
			// every run is accounted for, the multi-volume comparisons fork
			// (the tentpole), and the known non-sharers surface by reason.
			if warm.Warm == nil {
				t.Fatal("warm sweep reported no warm stats")
			}
			ws := warm.Warm
			if ws.Leaders+ws.Forked+ws.Scratch != warm.Completed {
				t.Errorf("warm stats cover %d runs, want %d", ws.Leaders+ws.Forked+ws.Scratch, warm.Completed)
			}
			if ws.Leaders == 0 || ws.Forked == 0 {
				t.Errorf("warm plan shared nothing: %+v", ws)
			}
			if ws.Fallbacks["sib"] == 0 || ws.Fallbacks["multi-volume"] == 0 {
				t.Errorf("expected sib and multi-volume fallbacks, got %v", ws.Fallbacks)
			}

			var wb, sb bytes.Buffer
			if err := WriteCellsCSV(&wb, warm.Cells); err != nil {
				t.Fatal(err)
			}
			if err := WriteCellsCSV(&sb, scratch.Cells); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wb.Bytes(), sb.Bytes()) {
				t.Errorf("cells CSV differs between warm-fork and scratch sweeps")
			}

			// Per-cell series files, byte for byte.
			names, err := filepath.Glob(filepath.Join(scratchDir, "*.csv"))
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != scratch.Total {
				t.Fatalf("scratch series export wrote %d files, want %d", len(names), scratch.Total)
			}
			for _, sn := range names {
				want, err := os.ReadFile(sn)
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(dir, filepath.Base(sn)))
				if err != nil {
					t.Fatalf("warm-fork sweep missing series file: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("series file %s differs between warm-fork and scratch sweeps", filepath.Base(sn))
				}
			}
		})
	}
}

// TestPlanUnits pins the scheduling-granule invariants: singleton units
// with sharing off; with sharing on, every point appears exactly once, in
// expansion order, and a unit never mixes warmup keys.
func TestPlanUnits(t *testing.T) {
	g := warmGrid(10).Normalize()
	pts := g.Expand()

	units := planUnits(warmGrid(0), pts)
	if len(units) != len(pts) {
		t.Fatalf("sharing off: %d units for %d points", len(units), len(pts))
	}

	units = planUnits(g, pts)
	next := 0
	for _, u := range units {
		if len(u) == 0 {
			t.Fatal("empty unit")
		}
		for _, i := range u {
			if i != next {
				t.Fatalf("unit order broken: got point %d, want %d", i, next)
			}
			if warmKey(pts[i].Spec) != warmKey(pts[u[0]].Spec) {
				t.Fatalf("unit mixes warmup keys: points %d and %d", u[0], i)
			}
			next++
		}
	}
	if next != len(pts) {
		t.Fatalf("units cover %d of %d points", next, len(pts))
	}
	// The grid's four schemes per coordinate must have grouped.
	for _, u := range units {
		if len(u) != len(g.Schemes) {
			t.Fatalf("unit size %d, want one comparison of %d schemes", len(u), len(g.Schemes))
		}
	}
}
