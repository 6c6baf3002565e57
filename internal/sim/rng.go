package sim

import (
	"hash/fnv"
	"math/rand"
)

// The register's shape: math/rand's additive lagged Fibonacci generator,
// x[k] = x[k−rngLen] + x[k−rngTap] mod 2^64.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// RNG is a named, seeded random stream. Every stochastic component owns its
// own stream so that changing one component's draw count never perturbs
// another's sequence — the property that lets WB, SIB and LBICA runs see an
// identical workload.
//
// The stream is math/rand's, bit for bit: every method returns what the
// same method of rand.New(rand.NewSource(seed)) returns at the same point.
// RNG holds that source's register itself, so Float64, Intn and Int63n are
// math/rand's expressions over an inlined register step rather than a chain
// of interface calls, and a checkpoint is the register's words, restored
// in O(1). NormFloat64 and ExpFloat64 run math/rand's own code over the
// same register. An RNG must not be copied: its rand.Rand points into it.
type RNG struct {
	name string
	r    *rand.Rand // over &reg, for NormFloat64 and ExpFloat64
	seed int64      // the derived (seed ^ name-hash) source seed
	// reg comes last, after every pointer, so the collector scans only
	// the first few words of a stream.
	reg register
}

// register is math/rand's generator state: the feedback register vec and
// its two indices. feed is always (tap + rngLen − rngTap) mod rngLen, so
// tap alone fixes the position.
type register struct {
	tap, feed int
	vec       [rngLen]int64
}

// Uint64 steps the register: math/rand's rngSource.Uint64.
func (x *register) Uint64() uint64 {
	x.tap--
	if x.tap < 0 {
		x.tap += rngLen
	}
	x.feed--
	if x.feed < 0 {
		x.feed += rngLen
	}
	v := x.vec[x.feed] + x.vec[x.tap]
	x.vec[x.feed] = v
	return uint64(v)
}

// Int63 returns a non-negative 63-bit draw: math/rand's rngSource.Int63.
func (x *register) Int63() int64 { return int64(x.Uint64() & rngMask) }

// Seed sets the register to rand.NewSource(seed)'s starting state without
// a copy of math/rand's seeding table. Step k of that source reads the tap
// word at index rngLen−1−k and writes its output over the feed word at
// index 2·rngLen−rngTap−1−k (mod rngLen), so after rngLen steps each word
// holds one of its first rngLen outputs. Seed places them there and undoes
// the steps, last first: a step leaves the tap word alone, so undoing it
// is one subtraction.
func (x *register) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for k := range rngLen {
		x.vec[(2*rngLen-rngTap-1-k)%rngLen] = int64(src.Uint64())
	}
	for k := rngLen - 1; k >= 0; k-- {
		x.vec[(2*rngLen-rngTap-1-k)%rngLen] -= x.vec[rngLen-1-k]
	}
	x.tap, x.feed = 0, rngLen-rngTap
}

// NewRNG derives a stream from a run seed and a component name. The same
// (seed, name) pair always yields the same sequence.
func NewRNG(seed int64, name string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(name))
	return newStream(name, seed^int64(h.Sum64()))
}

// newStream starts the stream name from its derived source seed.
func newStream(name string, derived int64) *RNG {
	g := &RNG{name: name, seed: derived}
	g.reg.Seed(derived)
	g.r = rand.New(&g.reg)
	return g
}

// Fresh returns this stream restarted: same name and seed, no draws yet.
func (g *RNG) Fresh() *RNG { return newStream(g.name, g.seed) }

// Stream splits a base seed into the seed for run runIndex of a batch.
// The result depends only on (seed, runIndex) — never on scheduling
// order — so a parallel sweep that seeds run i with Stream(seed, i)
// produces runs byte-identical to the same sweep executed serially.
//
// The split is a SplitMix64-style finalizer over both inputs, so nearby
// (seed, runIndex) pairs land far apart: Stream(s, 0), Stream(s, 1), …
// share no statistical structure the way s, s+1, … would.
func Stream(seed int64, runIndex int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(runIndex) + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// Name returns the stream name.
func (g *RNG) Name() string { return g.name }

// Float64 returns a uniform draw in [0,1): math/rand's Float64, which
// redraws the one 63-bit value that rounds up to 1.
func (g *RNG) Float64() float64 {
	for {
		if f := float64(g.reg.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Intn returns a uniform draw in [0,n): math/rand's Intn. It panics if
// n <= 0.
func (g *RNG) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n > 1<<31-1 {
		return int(g.Int63n(int64(n)))
	}
	// math/rand's Int31n over Int31 = Int63 >> 32.
	m := int32(n)
	if m&(m-1) == 0 {
		return int(int32(g.reg.Int63()>>32) & (m - 1))
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(m))
	v := int32(g.reg.Int63() >> 32)
	for v > max {
		v = int32(g.reg.Int63() >> 32)
	}
	return int(v % m)
}

// Int63n returns a uniform draw in [0,n): math/rand's Int63n. It panics
// if n <= 0.
func (g *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return g.reg.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := g.reg.Int63()
	for v > max {
		v = g.reg.Int63()
	}
	return v % n
}

// NormFloat64 returns a standard normal draw.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// ExpFloat64 returns an exponential draw with rate 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }
