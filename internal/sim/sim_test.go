package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []time.Duration
	for _, d := range []time.Duration{30, 10, 20, 10, 5} {
		d := d
		e.At(d, func() { got = append(got, d) })
	}
	e.RunUntilIdle()
	want := []time.Duration{5, 10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { got = append(got, i) })
	}
	e.RunUntilIdle()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered: got %v", got)
		}
	}
}

func TestEngineClockAdvances(t *testing.T) {
	e := NewEngine()
	e.At(50*time.Millisecond, func() {
		if e.Now() != 50*time.Millisecond {
			t.Errorf("Now() = %v inside event at 50ms", e.Now())
		}
		e.After(10*time.Millisecond, func() {
			if e.Now() != 60*time.Millisecond {
				t.Errorf("Now() = %v, want 60ms", e.Now())
			}
		})
	})
	e.RunUntilIdle()
	if e.Now() != 60*time.Millisecond {
		t.Errorf("final Now() = %v, want 60ms", e.Now())
	}
}

func TestEngineHorizonPausesAndResumes(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(30, func() { fired++ })
	n := e.Run(20)
	if n != 1 || fired != 1 {
		t.Fatalf("Run(20) fired %d (%d), want 1", n, fired)
	}
	if e.Now() != 20 {
		t.Fatalf("clock parked at %v, want horizon 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run(40)
	if fired != 2 {
		t.Fatalf("after resume fired = %d, want 2", fired)
	}
}

func TestEngineHorizonIdleAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.Run(time.Second)
	if e.Now() != time.Second {
		t.Fatalf("idle Run(1s) left clock at %v", e.Now())
	}
}

func TestEnginePanicsOnPastSchedule(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.RunUntilIdle()
}

func TestEngineNegativeAfterClamped(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		ev := e.After(-5, func() {})
		if ev.Time() != 10 {
			t.Errorf("After(-5) scheduled at %v, want now (10ns)", ev.Time())
		}
	})
	e.RunUntilIdle()
}

// Property: however events are scheduled, they fire in nondecreasing time
// order and the engine's clock never runs backwards.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine()
		var last time.Duration = -1
		ok := true
		for _, o := range offsets {
			d := time.Duration(o)
			e.At(d, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.RunUntilIdle()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42, "dev")
	b := NewRNG(42, "dev")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("identical (seed,name) streams diverged")
		}
	}
	c := NewRNG(42, "other")
	same := true
	a2 := NewRNG(42, "dev")
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("differently named streams produced identical sequences")
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewRNG(1, "zipf")
	z := NewZipf(g, 1000, 1.1)
	counts := make([]int, 1000)
	n := 200000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[500] {
		t.Errorf("rank 0 (%d) not hotter than rank 500 (%d)", counts[0], counts[500])
	}
	top10 := 0
	for i := 0; i < 10; i++ {
		top10 += counts[i]
	}
	if frac := float64(top10) / float64(n); frac < 0.20 {
		t.Errorf("top-10 ranks got %.2f of draws, want skewed (>0.20)", frac)
	}
}

func TestZipfUniformDegenerate(t *testing.T) {
	g := NewRNG(2, "zipf0")
	z := NewZipf(g, 100, 0.0001)
	counts := make([]int, 100)
	n := 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("rank %d never drawn under near-uniform zipf", i)
		}
	}
}

func TestDistMeans(t *testing.T) {
	g := NewRNG(7, "dist")
	cases := []struct {
		d   Dist
		tol float64
	}{
		{Deterministic{V: time.Millisecond}, 0},
		{Uniform{Lo: time.Millisecond, Hi: 3 * time.Millisecond, G: g}, 0.05},
		{Exponential{M: 2 * time.Millisecond, G: g}, 0.05},
		{NewLogNormal(time.Millisecond, 0.5, g), 0.05},
	}
	const n = 100000
	for _, c := range cases {
		var sum float64
		for i := 0; i < n; i++ {
			s := c.d.Sample()
			if s < 0 {
				t.Fatalf("%s produced negative sample", c.d)
			}
			sum += float64(s)
		}
		got := sum / n
		want := float64(c.d.Mean())
		if c.tol == 0 {
			if got != want {
				t.Errorf("%s empirical mean %v != %v", c.d, got, want)
			}
			continue
		}
		if math.Abs(got-want)/want > c.tol {
			t.Errorf("%s empirical mean %.0f, want %.0f (±%.0f%%)", c.d, got, want, c.tol*100)
		}
	}
}

func TestBoundedParetoWithinBounds(t *testing.T) {
	g := NewRNG(9, "pareto")
	p := BoundedPareto{Lo: time.Millisecond, Hi: 100 * time.Millisecond, Alpha: 1.5, G: g}
	for i := 0; i < 10000; i++ {
		s := p.Sample()
		if s < p.Lo || s > p.Hi {
			t.Fatalf("sample %v outside [%v,%v]", s, p.Lo, p.Hi)
		}
	}
	if m := p.Mean(); m < p.Lo || m > p.Hi {
		t.Fatalf("mean %v outside bounds", m)
	}
}

func TestUniformDegenerate(t *testing.T) {
	g := NewRNG(3, "u")
	u := Uniform{Lo: 5, Hi: 5, G: g}
	if u.Sample() != 5 {
		t.Error("degenerate uniform must return Lo")
	}
}
