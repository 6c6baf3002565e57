package experiments

import (
	"fmt"
	"reflect"
	"testing"
)

// TestRecycleRunsRepeat: every run path releases its stacks, and the next
// build takes over their cache line arrays. A run X, then a write-heavy run
// Y of the same cache geometry that leaves those arrays full of dirty and
// flushing lines, then X again must give X's results byte for byte — for a
// single stack under each scheme, a static array and an ARRAY-LB array, at
// the default cache, half of it, and a 3 MiB cache whose 96 sets are not a
// power of two.
func TestRecycleRunsRepeat(t *testing.T) {
	intervals := 12
	if testing.Short() {
		intervals = 6
	}
	runs := []Spec{
		{Scheme: SchemeWB},
		{Scheme: SchemeSIB},
		{Scheme: SchemeLBICA},
		{Scheme: SchemeLBICA, Volumes: 3},
		{Scheme: SchemeArrayLB, Volumes: 3},
	}
	caches := []Spec{{CacheMult: 1}, {CacheMult: 0.5}, {CacheMiB: 3}}
	for _, r := range runs {
		for _, c := range caches {
			x := r
			x.Workload, x.Seed, x.Intervals = WorkloadTPCC, 3, intervals
			x.CacheMult, x.CacheMiB = c.CacheMult, c.CacheMiB
			y := x
			y.Workload, y.RateFactor = WorkloadMail, 1.5
			size := fmt.Sprintf("cache×%v", x.CacheMult)
			if x.CacheMiB > 0 {
				size = fmt.Sprintf("cache-%dMiB", x.CacheMiB)
			}
			name := fmt.Sprintf("%s-v%d/%s", x.Scheme, max(x.Volumes, 1), size)
			t.Run(name, func(t *testing.T) {
				first, firstVols := RunVolumes(t.Context(), x)
				if first.AppCompleted == 0 {
					t.Fatal("run completed nothing")
				}
				if dirty := RunContext(t.Context(), y); dirty.CacheStats.Writes == 0 {
					t.Fatal("the write-heavy run wrote nothing")
				}
				again, againVols := RunVolumes(t.Context(), x)
				if !reflect.DeepEqual(first, again) || !reflect.DeepEqual(firstVols, againVols) {
					t.Errorf("rerun on recycled cache lines diverged: completed %d vs %d, cache load %.1f vs %.1f",
						first.AppCompleted, again.AppCompleted, first.CacheLoadMean(), again.CacheLoadMean())
				}
			})
		}
	}
}
