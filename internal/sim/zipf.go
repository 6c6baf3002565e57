package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"weak"
)

// Zipfian samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s. Rank 0 is the hottest.
//
// A Zipfian is its RNG stream plus a pointer to an immutable sampling
// table for (n, s). Tables are interned: while any Zipfian over one
// distribution is live, every NewZipf for it shares that table (both
// phases of a schedule, the replayed copies of a static array, concurrent
// sweep cells, a stack decoding another's checkpoint), and once the last
// one is collected the table and its intern entry go too. Nothing writes
// a table after NewZipf returns it, so sharing one across goroutines is
// safe; a Zipfian itself is no safer for concurrent use than its RNG.
type Zipfian struct {
	g *RNG
	t *zipfTable
}

// NewZipf returns a sampler over n ranks with exponent s drawing from g
// (s >= 0; s = 0 is uniform). It consumes no draws. It panics unless
// 1 <= n <= MaxInt32.
func NewZipf(g *RNG, n int, s float64) *Zipfian {
	if n <= 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("sim: NewZipf over %d ranks, want 1..MaxInt32", n))
	}
	return &Zipfian{g: g, t: internZipf(n, s)}
}

// Next draws a rank: one Float64 from the stream, inverted through the
// CDF. The result is the first rank whose CDF reaches the draw, exactly
// as a binary search over the whole CDF finds it.
func (z *Zipfian) Next() int { return z.t.rank(z.g.Float64()) }

// zipfBuckets is the guide's bucket count. A power of two makes both u*m
// and every edge b/m exact, and 4096 int32 edges (16 KB) stay in L1, so
// the guide lookup costs no miss whatever rank the draw lands on.
const zipfBuckets = 1 << 12

// zipfSteps is how many ranks rank walks from its guess before it
// bisects what is left of the bracket.
const zipfSteps = 4

// zipfTable is one distribution's sampling table. cdf[i] is P(rank <= i),
// summed and normalized in rank order. guide splits [0, 1) into
// zipfBuckets equal u-buckets: guide[b] is the first rank whose CDF
// reaches b/zipfBuckets, the bucket's lower edge, and the last entry is
// n-1. Because a draw u in bucket b satisfies b/m <= u < (b+1)/m exactly,
// its rank lies in guide[b]..guide[b+1]. full marks a CDF that need not be
// monotone, which rank searches whole.
type zipfTable struct {
	cdf   []float64
	guide [zipfBuckets + 1]int32
	full  bool
}

func newZipfTable(n int, s float64) *zipfTable {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	// A NaN or overflowed sum leaves a CDF that need not be monotone, so
	// no bracket can be trusted and each draw is the full search.
	t := &zipfTable{cdf: cdf, full: !(sum <= math.MaxFloat64)}
	r := 0
	for b := 0; b < zipfBuckets; b++ {
		edge := float64(b) / zipfBuckets
		for r < n-1 && cdf[r] < edge {
			r++
		}
		t.guide[b] = int32(r)
	}
	t.guide[zipfBuckets] = int32(n - 1)
	return t
}

// rank returns the first rank whose CDF reaches u (n-1 if none does). It
// guesses by linear interpolation inside u's bracket, walks at most
// zipfSteps ranks toward the answer, and bisects the rest of the bracket
// only if the walk falls short.
func (t *zipfTable) rank(u float64) int {
	cdf := t.cdf
	x := u * zipfBuckets
	if t.full || !(x >= 0 && x < zipfBuckets) {
		return bisect(cdf, 0, len(cdf)-1, u)
	}
	b := int(x)
	lo, hi := int(t.guide[b]), int(t.guide[b+1])
	if lo == hi {
		return lo
	}
	r := lo + int((x-float64(b))*float64(hi-lo)+0.5)
	if cdf[r] < u {
		// The answer is past the guess: walk up.
		lo = r + 1
		for i := 0; i < zipfSteps && lo < hi; i++ {
			if cdf[lo] >= u {
				return lo
			}
			lo++
		}
	} else {
		// The guess reaches u, so the answer is at or below it: walk down.
		hi = r
		for i := 0; i < zipfSteps && lo < hi; i++ {
			if cdf[hi-1] < u {
				return hi
			}
			hi--
		}
	}
	return bisect(cdf, lo, hi, u)
}

// bisect returns the first rank in lo..hi whose CDF reaches u, or hi if
// none does.
func bisect(cdf []float64, lo, hi int, u float64) int {
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

// zipfKey names a distribution: the rank count and the exponent's bits.
type zipfKey struct {
	n    int
	bits uint64
}

// zipfTables interns the live tables. Its pointers are weak, so the map
// never keeps a table alive, and a cleanup deletes a collected table's
// entry: a sweep over a continuous range of exponents holds only the
// tables still in use.
var zipfTables = struct {
	sync.Mutex
	m map[zipfKey]weak.Pointer[zipfTable]
}{m: make(map[zipfKey]weak.Pointer[zipfTable])}

// zipfEntry is the cleanup's argument: the key to delete and the weak
// pointer it must still map to (a rebuilt table may have replaced it).
type zipfEntry struct {
	k  zipfKey
	wp weak.Pointer[zipfTable]
}

// internZipf returns the live table for (n, s), building it if none is.
// The build runs under the lock, so concurrent callers of one key wait
// for a single build instead of racing duplicates.
func internZipf(n int, s float64) *zipfTable {
	if s != s {
		s = math.NaN() // every NaN payload builds the same table
	}
	k := zipfKey{n: n, bits: math.Float64bits(s)}
	zipfTables.Lock()
	defer zipfTables.Unlock()
	if t := zipfTables.m[k].Value(); t != nil {
		return t
	}
	t := newZipfTable(n, s)
	wp := weak.Make(t)
	zipfTables.m[k] = wp
	runtime.AddCleanup(t, dropZipf, zipfEntry{k: k, wp: wp})
	return t
}

func dropZipf(e zipfEntry) {
	zipfTables.Lock()
	if zipfTables.m[e.k] == e.wp {
		delete(zipfTables.m, e.k)
	}
	zipfTables.Unlock()
}
