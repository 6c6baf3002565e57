package sweep

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// cacheGrid is a small warm-fork comparison with a persistent cache: one
// shareable width-1 coordinate, two replicates, all four schemes.
func cacheGrid(dir string) Grid {
	g := Grid{
		Workloads:       []string{"mail"},
		Schemes:         []string{"WB", "SIB", "LBICA", "ARRAY-LB"},
		SeedReplicates:  2,
		Seed:            11,
		Intervals:       40,
		WarmupIntervals: 10,
		WarmCacheDir:    dir,
	}
	return g
}

// TestWarmCacheSweepByteIdentical extends the sweep-layer identity to the
// persistent cache: a cold-store sweep, a second warm-cache-hit sweep, and
// the uncached warm-fork sweep must produce identical runs and cells, with
// the warm stats telling the three executions apart.
func TestWarmCacheSweepByteIdentical(t *testing.T) {
	uncached, err := Execute(t.Context(), cacheGrid(""), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if uncached.Warm.CacheHits != 0 || uncached.Warm.CacheStores != 0 || uncached.Warm.CacheCorrupt != 0 {
		t.Fatalf("uncached sweep reported cache traffic: %+v", uncached.Warm)
	}

	dir := filepath.Join(t.TempDir(), "warm-cache")
	cold, err := Execute(t.Context(), cacheGrid(dir), Options{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := Execute(t.Context(), cacheGrid(dir), Options{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		res  *Result
	}{{"cold-store", cold}, {"cache-hit", hot}} {
		if !reflect.DeepEqual(tc.res.Runs, uncached.Runs) {
			t.Errorf("%s runs diverge from uncached sweep", tc.name)
		}
		if !reflect.DeepEqual(tc.res.Cells, uncached.Cells) {
			t.Errorf("%s cells diverge from uncached sweep", tc.name)
		}
		ws := tc.res.Warm
		if ws == nil {
			t.Fatalf("%s sweep reported no warm stats", tc.name)
		}
		if ws.Leaders+ws.Forked+ws.Scratch != tc.res.Completed {
			t.Errorf("%s warm stats cover %d runs, want %d", tc.name, ws.Leaders+ws.Forked+ws.Scratch, tc.res.Completed)
		}
	}
	// Every leader prefix and every (single-volume) scratch member's
	// private prefix goes through the store — two replicates double both.
	// Forked members never touch it.
	wantTraffic := cold.Warm.Leaders + cold.Warm.Scratch
	if wantTraffic == 0 {
		t.Fatal("grid produced no store-backed prefixes to count")
	}
	if cold.Warm.CacheStores != wantTraffic || cold.Warm.CacheHits != 0 {
		t.Errorf("cold sweep warm stats %+v, want %d stores / 0 hits", cold.Warm, wantTraffic)
	}
	if hot.Warm.CacheHits != wantTraffic || hot.Warm.CacheStores != 0 {
		t.Errorf("hot sweep warm stats %+v, want %d hits / 0 stores", hot.Warm, wantTraffic)
	}
	if cold.Warm.CacheCorrupt != 0 || hot.Warm.CacheCorrupt != 0 {
		t.Errorf("clean store reported corrupt entries: cold %+v hot %+v", cold.Warm, hot.Warm)
	}
	// Leaders count cached leaders too.
	if cold.Warm.Leaders != uncached.Warm.Leaders || hot.Warm.Leaders != uncached.Warm.Leaders {
		t.Errorf("leader counts diverge: uncached %d, cold %d, hot %d",
			uncached.Warm.Leaders, cold.Warm.Leaders, hot.Warm.Leaders)
	}
}

// A cache directory without a warmup is a contradiction the grid rejects
// eagerly, and an unusable directory fails Execute before any run starts.
func TestWarmCacheValidation(t *testing.T) {
	g := Grid{WarmCacheDir: "/tmp/somewhere"}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "warmup") {
		t.Errorf("Validate(cache without warmup) = %v, want warmup error", err)
	}

	// A regular file where the cache directory should be: Execute must
	// fail up front.
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := cacheGrid(file)
	if _, err := Execute(t.Context(), bad, Options{Workers: 1}); err == nil {
		t.Error("Execute accepted a regular file as the warm cache directory")
	}
}

// On a statically routed array the scratch members store their private
// prefixes too: per workload, the LBICA leader's shared prefix, SIB's own
// and the multi-volume ARRAY-LB's own (its controller diverges from the
// leader at the first barrier), while WB forks from the leader. Both
// passes match the uncached sweep.
func TestWarmCacheSweepArrayScratchMembers(t *testing.T) {
	grid := func(dir string) Grid {
		return Grid{
			Workloads:       []string{"tpcc", "mail"},
			Schemes:         []string{"WB", "SIB", "LBICA", "ARRAY-LB"},
			Volumes:         []int{3},
			RouteSkews:      []float64{1.2},
			Seed:            11,
			Intervals:       30,
			WarmupIntervals: 20,
			WarmCacheDir:    dir,
		}
	}
	uncached, err := Execute(t.Context(), grid(""), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "warm-cache")
	for pass, want := range []WarmStats{{CacheStores: 6}, {CacheHits: 6}} {
		res, err := Execute(t.Context(), grid(dir), Options{Workers: 0})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Runs, uncached.Runs) || !reflect.DeepEqual(res.Cells, uncached.Cells) {
			t.Errorf("pass %d diverges from the uncached sweep", pass)
		}
		if got := res.Warm; got.CacheStores != want.CacheStores || got.CacheHits != want.CacheHits || got.CacheCorrupt != 0 {
			t.Errorf("pass %d warm stats %+v, want %d stores / %d hits", pass, got, want.CacheStores, want.CacheHits)
		}
	}
}
