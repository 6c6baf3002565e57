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
	ev := e.At(10, func() {})
	ev.Cancel()
	e.RunUntilIdle()
	if e.Fired() != 5 {
		t.Errorf("fired = %d, want 5 (cancelled events do not count)", e.Fired())
	}
}

func TestPendingExcludesCancelled(t *testing.T) {
	// Cancellation is still lazy inside the heap, but Pending reports live
	// events only (the arena kernel changed this: the old kernel counted
	// cancelled-but-unpopped events).
	e := NewEngine()
	live := e.At(5, func() {})
	ev := e.At(10, func() {})
	ev.Cancel()
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1 live (cancelled excluded)", e.Pending())
	}
	_ = live
	e.RunUntilIdle()
	if e.Pending() != 0 {
		t.Errorf("pending = %d after drain", e.Pending())
	}
}

func TestCancelledEventsAreReaped(t *testing.T) {
	// Cancelling more than half the heap must compact it eagerly instead of
	// leaving dead events queued until pop — the cancelled-event leak fix.
	e := NewEngine()
	events := make([]Event, 0, 1000)
	for i := 0; i < 1000; i++ {
		events = append(events, e.At(time.Duration(i+1), func() {}))
	}
	for _, ev := range events[:900] {
		ev.Cancel()
	}
	if e.Pending() != 100 {
		t.Fatalf("pending = %d, want 100 live", e.Pending())
	}
	if n := len(e.heap); n >= 500 {
		t.Errorf("heap still holds %d entries after cancelling 900/1000; reap did not run", n)
	}
	if n := e.RunUntilIdle(); n != 100 {
		t.Errorf("fired %d, want the 100 live events", n)
	}
}

func TestCancelAfterFireIsNoOp(t *testing.T) {
	// The arena recycles slots; a stale handle must not cancel the slot's
	// new occupant.
	e := NewEngine()
	var stale Event
	stale = e.At(1, func() {})
	e.RunUntilIdle()
	fired := false
	e.At(2, func() { fired = true }) // likely reuses the freed slot
	stale.Cancel()
	e.RunUntilIdle()
	if !fired {
		t.Fatal("stale Cancel killed an unrelated recycled event")
	}
}

func TestScheduleSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	// Warm the arena and heap to their high-water marks.
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
