package sim

import (
	"testing"
	"time"
)

func TestEventExactlyAtHorizonFires(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(100, func() { fired = true })
	e.Run(100)
	if !fired {
		t.Error("event at the horizon boundary must fire (horizon is inclusive)")
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(time.Duration(i), func() {})
	}
	e.At(10, func() {})
	e.Run(5)
	if e.Fired() != 5 {
		t.Errorf("fired = %d, want 5 (the event past the horizon is still pending)", e.Fired())
	}
}

func TestScheduleSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	// Warm the heap to its high-water mark.
	for i := 0; i < 128; i++ {
		e.After(time.Duration(i), func() {})
	}
	e.RunUntilIdle()
	fn := func() {}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			e.After(time.Duration(i), fn)
		}
		e.RunUntilIdle()
	})
	if allocs > 0 {
		t.Errorf("steady-state schedule/fire allocates %.1f objects per cycle, want 0", allocs)
	}
}

func TestEventTimeAccessor(t *testing.T) {
	e := NewEngine()
	ev := e.At(42, func() {})
	if ev.Time() != 42 {
		t.Errorf("Time() = %v", ev.Time())
	}
}

func TestRNGHelpers(t *testing.T) {
	g := NewRNG(5, "helpers")
	if n := g.Intn(10); n < 0 || n >= 10 {
		t.Errorf("Intn out of range: %d", n)
	}
	if n := g.Int63n(100); n < 0 || n >= 100 {
		t.Errorf("Int63n out of range: %d", n)
	}
	if g.Name() != "helpers" {
		t.Errorf("Name() = %q", g.Name())
	}
	if z := NewZipf(g, 100, 1.1).Next(); z < 0 || z >= 100 {
		t.Errorf("Zipf out of range: %d", z)
	}
}

func TestNewZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewZipf(0) must panic")
		}
	}()
	NewZipf(NewRNG(1, "z"), 0, 1)
}

func TestDistStrings(t *testing.T) {
	g := NewRNG(1, "s")
	for _, d := range []Dist{
		Deterministic{V: time.Second},
		Uniform{Lo: 1, Hi: 2, G: g},
		Exponential{M: time.Millisecond, G: g},
		NewLogNormal(time.Millisecond, 0.3, g),
		BoundedPareto{Lo: 1, Hi: 10, Alpha: 1.5, G: g},
	} {
		if d.String() == "" {
			t.Errorf("%T has empty String()", d)
		}
	}
}

func TestBoundedParetoDegenerate(t *testing.T) {
	g := NewRNG(2, "p")
	p := BoundedPareto{Lo: 5, Hi: 5, Alpha: 2, G: g}
	if p.Sample() != 5 || p.Mean() != 5 {
		t.Error("degenerate pareto must return Lo")
	}
}
