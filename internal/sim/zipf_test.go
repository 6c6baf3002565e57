package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
)

// zipfCases are the distributions the simulator samples: every (working
// set, exponent) of the workload catalog, a spread of array router
// widths and skews, and the edges (one rank, near-uniform, very steep).
var zipfCases = []struct {
	n int
	s float64
}{
	// tpcc; mail; web reads and write region
	{147456, 0.85},
	{49152, 1.0}, {49152, 1.3}, {16384, 0.9},
	{49152, 1.1}, {8192, 0.3},
	// synth random, mixed and burst-mix; synth-*-zipf<e> over [0, 4];
	// the sequential streams' jumps
	{98304, 0.8}, {98304, 0.9}, {98304, 1.0},
	{98304, 0.0001}, {98304, 1.2}, {98304, 4},
	{1 << 20, 0.0001},
	// array router widths and skews
	{2, 0}, {3, 1.2}, {4, 1.5}, {5, 0.7}, {8, 1.2},
	// edges: one rank, near-uniform, very steep
	{1, 0.85}, {1, 0.0001}, {1000, 0.0001}, {1000, 16},
}

// fullRank is the reference sampler: a binary search over the whole CDF
// for the first rank whose CDF reaches u.
func fullRank(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// plainCDF is the CDF expression the sampler has always used.
func plainCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// TestZipfMatchesFullSearch checks the guided search against the full one
// on random draws and on the float edges where a bracket or a walk can go
// wrong: every bucket edge b/4096 and every CDF value, each ±1 ulp.
func TestZipfMatchesFullSearch(t *testing.T) {
	draws := 1 << 20
	if testing.Short() {
		draws = 1 << 16
	}
	for _, c := range zipfCases {
		t.Run(fmt.Sprintf("n%d-s%v", c.n, c.s), func(t *testing.T) {
			tab := newZipfTable(c.n, c.s)
			cdf := plainCDF(c.n, c.s)
			for i := range cdf {
				if math.Float64bits(tab.cdf[i]) != math.Float64bits(cdf[i]) {
					t.Fatalf("cdf[%d] = %v, plain expression gives %v", i, tab.cdf[i], cdf[i])
				}
			}
			check := func(u float64) {
				if !(u >= 0 && u < 1) {
					return // Float64 never draws it
				}
				if got, want := tab.rank(u), fullRank(cdf, u); got != want {
					t.Fatalf("rank(%v) = %d, full search %d", u, got, want)
				}
			}
			around := func(u float64) {
				check(math.Nextafter(u, 0))
				check(u)
				check(math.Nextafter(u, 1))
			}
			for b := 0; b <= zipfBuckets; b++ {
				around(float64(b) / zipfBuckets)
			}
			for _, v := range cdf {
				around(v)
			}
			g := NewRNG(int64(c.n), "zipf-equivalence")
			for i := 0; i < draws; i++ {
				check(g.Float64())
			}
		})
	}
}

// TestZipfFallback covers the bisection after a short walk: the last
// bucket of a steep distribution spans thousands of nearly weightless
// ranks, so the interpolated guess lands far from most answers. The test
// checks that such draws occur and still match the full search.
func TestZipfFallback(t *testing.T) {
	const n, s = 98304, 4.0
	tab := newZipfTable(n, s)
	cdf := plainCDF(n, s)
	const b = zipfBuckets - 1
	lo, hi := int(tab.guide[b]), int(tab.guide[b+1])
	if hi-lo < 100 {
		t.Fatalf("last bucket spans ranks %d..%d; the case no longer reaches the fallback", lo, hi)
	}
	far := 0
	for i := 0; i < 1<<14; i++ {
		x := float64(b) + float64(i)/(1<<14)
		u := x / zipfBuckets
		want := fullRank(cdf, u)
		if got := tab.rank(u); got != want {
			t.Fatalf("rank(%v) = %d, full search %d", u, got, want)
		}
		// rank's interpolated guess for u.
		guess := lo + int((x-b)*float64(hi-lo)+0.5)
		if want < guess-zipfSteps || want > guess+zipfSteps {
			far++
		}
	}
	if far == 0 {
		t.Error("no draw in the last bucket lies past the walk; the fallback went untested")
	}
}

// fuzzTables holds one table per zipfCases entry, built on first use.
var fuzzTables = sync.OnceValue(func() []*zipfTable {
	tabs := make([]*zipfTable, len(zipfCases))
	for i, c := range zipfCases {
		tabs[i] = newZipfTable(c.n, c.s)
	}
	return tabs
})

// FuzzZipfRank maps any float64 bit pattern, in range or not, to the rank
// the full search gives, over every zipfCases table.
func FuzzZipfRank(f *testing.F) {
	bits := math.Float64bits
	f.Add(uint8(0), bits(0.5))
	f.Add(uint8(0), bits(1.0/zipfBuckets))
	f.Add(uint8(11), bits((zipfBuckets-0.5)/zipfBuckets)) // n=98304, s=4: the fallback
	f.Add(uint8(11), bits(math.Nextafter(1, 0)))
	f.Add(uint8(17), bits(0.75))
	f.Add(uint8(3), bits(0))
	f.Add(uint8(3), bits(math.Copysign(0, -1)))
	f.Add(uint8(5), bits(1))
	f.Add(uint8(5), bits(math.NaN()))
	f.Fuzz(func(t *testing.T, c uint8, b uint64) {
		tab := fuzzTables()[int(c)%len(zipfCases)]
		u := math.Float64frombits(b)
		if got, want := tab.rank(u), fullRank(tab.cdf, u); got != want {
			t.Fatalf("case %d: rank(%v) = %d, full search %d", int(c)%len(zipfCases), u, got, want)
		}
	})
}

// TestZipfDegenerateTables covers exponents whose CDF is not monotone (a
// NaN or overflowed sum): the sampler must still return exactly what the
// full search returns.
func TestZipfDegenerateTables(t *testing.T) {
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -400, -1} {
		tab := newZipfTable(1000, s)
		cdf := plainCDF(1000, s)
		g := NewRNG(3, "zipf-degenerate")
		for i := 0; i < 1<<14; i++ {
			u := g.Float64()
			if got, want := tab.rank(u), fullRank(cdf, u); got != want {
				t.Fatalf("s=%v: rank(%v) = %d, full search %d", s, u, got, want)
			}
		}
	}
}

// liveTable reports whether the intern table holds a live entry for key.
func liveTable(k zipfKey) bool {
	zipfTables.Lock()
	defer zipfTables.Unlock()
	_, ok := zipfTables.m[k]
	return ok
}

// nanEntries counts the intern entries keyed by a NaN exponent for n.
func nanEntries(n int) int {
	zipfTables.Lock()
	defer zipfTables.Unlock()
	c := 0
	for k := range zipfTables.m {
		if k.n == n && math.IsNaN(math.Float64frombits(k.bits)) {
			c++
		}
	}
	return c
}

func TestZipfSharesTables(t *testing.T) {
	g := NewRNG(1, "zipf-share")
	a := NewZipf(g, 4099, 0.85)
	b := NewZipf(NewRNG(2, "other"), 4099, 0.85)
	if a.t != b.t {
		t.Error("two live samplers over one distribution hold different tables")
	}
	for _, o := range []*Zipfian{NewZipf(g, 4099, 0.86), NewZipf(g, 4098, 0.85), NewZipf(g, 4099, -0.85)} {
		if o.t == a.t {
			t.Errorf("distinct distributions share a table of %d ranks", len(o.t.cdf))
		}
	}
	runtime.KeepAlive(a)
	runtime.KeepAlive(b)
}

func TestZipfNaNExponentUsesOneEntry(t *testing.T) {
	const n = 4111
	var keep []*Zipfian
	for _, s := range []float64{math.NaN(), math.NaN(), math.Float64frombits(0x7ff8000000000123), -math.NaN()} {
		keep = append(keep, NewZipf(NewRNG(1, "nan"), n, s))
	}
	if c := nanEntries(n); c != 1 {
		t.Errorf("%d intern entries for a NaN exponent, want 1", c)
	}
	for _, z := range keep[1:] {
		if z.t != keep[0].t {
			t.Error("NaN exponents got different tables")
		}
	}
	runtime.KeepAlive(keep)
}

func TestZipfTableDiesWithLastUser(t *testing.T) {
	k := zipfKey{n: 4127, bits: math.Float64bits(3.25)}
	z := NewZipf(NewRNG(1, "die"), k.n, 3.25)
	NewZipf(NewRNG(2, "die"), k.n, 3.25) // a second user, dropped at once
	runtime.GC()
	if !liveTable(k) {
		t.Fatal("entry dropped while a sampler still uses the table")
	}
	runtime.KeepAlive(z)
	// Cleanups run on their own goroutine after the collection that
	// finds the table unreachable; a bounded number of cycles suffices.
	for i := 0; i < 100 && liveTable(k); i++ {
		runtime.GC()
		runtime.Gosched()
	}
	if liveTable(k) {
		t.Fatal("intern entry outlived every sampler of its table")
	}
}

// TestZipfConcurrent builds and draws on shared and private keys from
// many goroutines (run it under -race): every goroutine's draws must
// equal a serial replay of its stream, while collections reap and
// rebuild tables underneath.
func TestZipfConcurrent(t *testing.T) {
	shared := []struct {
		n int
		s float64
	}{{2053, 0.85}, {2053, 1.3}, {521, 0.5}}
	const workers, rounds, draws = 8, 20, 200
	// sample draws round r of worker w: even rounds over a key every
	// worker uses, odd rounds over one private to w.
	sample := func(w, r int) []int {
		n, s := 600+w, 0.9
		if r%2 == 0 {
			k := shared[r/2%len(shared)]
			n, s = k.n, k.s
		}
		z := NewZipf(NewRNG(int64(w*rounds+r), "concurrent"), n, s)
		out := make([]int, draws)
		for i := range out {
			out[i] = z.Next()
		}
		return out
	}
	want := make([][][]int, workers)
	for w := range want {
		for r := 0; r < rounds; r++ {
			want[w] = append(want[w], sample(w, r))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, got := range sample(w, r) {
					if got != want[w][r][i] {
						errs <- fmt.Sprintf("worker %d round %d draw %d: %d, serial %d", w, r, i, got, want[w][r][i])
						return
					}
				}
				if r%7 == 0 {
					runtime.GC()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
