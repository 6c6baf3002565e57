package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lbica/internal/ckpt"
)

// rngSeeds are the source seeds the RNG tests start from: zero, both
// signs, the extremes math/rand reduces modulo 2^31−1, and a multiple of
// 2^31−1, for which math/rand substitutes a fixed seed.
var rngSeeds = []int64{0, -1, 1, math.MinInt64, 1 << 40, 3 * (1<<31 - 1)}

// intnArgs and int63nArgs mix powers of two (the masked path), small and
// large non-powers, and arguments whose rejection loop runs about half the
// time; intnArgs past 2^31−1 take Intn's Int63n path.
var (
	intnArgs   = []int{1, 2, 1 << 10, 1 << 30, 3, 10, 1000, 1<<30 + 1, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1<<62 + 1, math.MaxInt64}
	int63nArgs = []int64{1, 2, 1 << 40, 1 << 62, 3, 1e9 + 7, 1<<62 + 1, math.MaxInt64}
)

// drawer is the method set RNG shares with rand.Rand.
type drawer interface {
	Float64() float64
	Intn(n int) int
	Int63n(n int64) int64
	NormFloat64() float64
	ExpFloat64() float64
}

// draw takes draw i from g, cycling through every method and argument,
// and returns the method's name and its result's bits.
func draw(i int, g drawer) (string, uint64) {
	switch i % 5 {
	case 0:
		return "Float64", math.Float64bits(g.Float64())
	case 1:
		return "Intn", uint64(g.Intn(intnArgs[i/5%len(intnArgs)]))
	case 2:
		return "Int63n", uint64(g.Int63n(int63nArgs[i/5%len(int63nArgs)]))
	case 3:
		return "NormFloat64", math.Float64bits(g.NormFloat64())
	default:
		return "ExpFloat64", math.Float64bits(g.ExpFloat64())
	}
}

// sameDraws fails t at the first of n interleaved draws where a and b
// differ.
func sameDraws(t *testing.T, what string, a, b drawer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		m, got := draw(i, a)
		if _, want := draw(i, b); got != want {
			t.Fatalf("%s draw %d: %s = %#x, want %#x", what, i, m, got, want)
		}
	}
}

// TestRNGMatchesMathRand pins the stream to math/rand: from every seed in
// rngSeeds, each method, interleaved with the others, returns exactly what
// the same call on rand.New(rand.NewSource(seed)) returns.
func TestRNGMatchesMathRand(t *testing.T) {
	draws := 200_000
	if testing.Short() {
		draws = 20_000
	}
	for _, seed := range rngSeeds {
		sameDraws(t, fmt.Sprintf("seed %d", seed), newStream("match", seed), rand.New(rand.NewSource(seed)), draws)
	}
}

// encodeRNG returns g's checkpoint payload.
func encodeRNG(g *RNG) []byte {
	enc := ckpt.NewEncoder(0)
	g.EncodeState(enc)
	return enc.Data()
}

// TestRNGCodec round-trips a stream before and after its register first
// wraps (draws 0, 606, 607) and deep into it, and checks that a payload for
// another stream, a tap past the register and a truncated payload fail
// through the decoder's sticky error and leave the stream unchanged.
func TestRNGCodec(t *testing.T) {
	for _, at := range []int{0, 606, 607, 100_000} {
		g := newStream("codec", 42)
		for i := 0; i < at; i++ {
			g.Float64()
		}
		payload := encodeRNG(g)
		restored := newStream("codec", 42)
		restored.Intn(10) // a position the decode must overwrite
		d := ckpt.NewDecoder(payload)
		restored.DecodeState(d)
		if err := d.Err(); err != nil {
			t.Fatalf("draw %d: %v", at, err)
		}
		if d.Remaining() != 0 {
			t.Fatalf("draw %d: %d payload bytes left unread", at, d.Remaining())
		}
		sameDraws(t, fmt.Sprintf("restored at %d", at), restored, g, 5000)
	}

	// tapAt is the offset of the tap index in a payload of stream name.
	tapAt := func(name string) int { return 4 + len(name) + 8 }
	base := newStream("codec", 42)
	for i := 0; i < 1000; i++ {
		base.Float64()
	}
	good := encodeRNG(base)
	badTap := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(badTap[tapAt("codec"):], rngLen)
	for _, tc := range []struct {
		name    string
		into    *RNG
		payload []byte
		want    string
	}{
		{"name mismatch", newStream("other", 42), good, "mismatch"},
		{"seed mismatch", newStream("codec", 43), good, "mismatch"},
		{"tap out of range", newStream("codec", 42), badTap, "tap 607"},
		{"truncated register", newStream("codec", 42), good[:len(good)-1], "truncated"},
		{"truncated header", newStream("codec", 42), good[:tapAt("codec")+2], "truncated"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := tc.into.reg
			d := ckpt.NewDecoder(tc.payload)
			tc.into.DecodeState(d)
			if err := d.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode error %v, want one containing %q", err, tc.want)
			}
			if tc.into.reg != before {
				t.Error("a failed decode changed the stream")
			}
		})
	}
}
