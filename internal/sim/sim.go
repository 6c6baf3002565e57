// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is a virtual clock plus a priority queue of events ordered by
// firing time. Components schedule callbacks at absolute or relative virtual
// times; Run drains the queue, advancing the clock to each event's time in
// order. Nothing ever sleeps: a multi-minute storage experiment executes in
// milliseconds of wall time.
//
// Two events at the same virtual time fire in scheduling order: a sequence
// number, never reused, breaks ties, so a run with a fixed seed reproduces
// bit-for-bit, and the (time, seq) key alone fixes the firing order,
// whatever the heap's layout. The queue is a hand-rolled 4-ary min-heap of
// (time, seq, callback) entries — no interface boxing, no per-event heap
// object — so scheduling allocates nothing once the heap has grown to the
// high-water mark of pending events. The seq also names an event for the
// checkpoint codec: a restore re-installs each pending event's callback by
// it (Rebind).
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// entry is one priority-queue entry: the (time, seq) ordering key plus
// the callback it fires.
type entry struct {
	at  time.Duration
	seq uint64
	fn  func()
}

func entLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// entCmp is entLess as a three-way comparison, for sorting and binary
// search; the heap's sifts keep the cheaper entLess.
func entCmp(a, b entry) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// Event is a handle to a scheduled callback. It is a small value (not a
// pointer): copying it is cheap and the zero value is inert.
type Event struct {
	eng *Engine
	at  time.Duration
	seq uint64
}

// Time returns the virtual time at which the event fires (or fired).
func (e Event) Time() time.Duration { return e.at }

// Pending reports whether the event is still scheduled on its engine —
// false for the zero Event and for events that already fired. The
// checkpoint codec uses it to decide which chain handles need rebinding.
func (e Event) Pending() bool {
	return e.eng != nil && slices.ContainsFunc(e.eng.heap, func(x entry) bool { return x.seq == e.seq })
}

// Engine is the simulation executive. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now   time.Duration
	seq   uint64
	heap  []entry
	fired uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled but not yet fired.
func (e *Engine) Pending() int { return len(e.heap) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(t time.Duration, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	seq := e.seq
	e.seq++
	e.push(entry{at: t, seq: seq, fn: fn})
	return Event{eng: e, at: t, seq: seq}
}

// After schedules fn to run d after the current virtual time. Negative d is
// clamped to zero.
func (e *Engine) After(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// push appends an entry and sifts it up the 4-ary heap.
func (e *Engine) push(ent entry) {
	e.heap = append(e.heap, ent)
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// popTop removes the minimum entry.
func (e *Engine) popTop() {
	h := e.heap
	n := len(h) - 1
	h[0] = h[n]
	h[n] = entry{} // drop the callback reference
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(0)
	}
}

// siftDown restores heap order below i in the 4-ary layout.
func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			return
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entLess(h[j], h[m]) {
				m = j
			}
		}
		if !entLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Run executes events in time order until the queue empties or the clock
// would pass horizon (exclusive). A zero horizon means no limit.
// It returns the number of events fired during this call.
func (e *Engine) Run(horizon time.Duration) uint64 {
	start := e.fired
	for len(e.heap) > 0 {
		top := e.heap[0]
		if horizon > 0 && top.at > horizon {
			// Leave future events pending; park the clock at the horizon so
			// a subsequent Run(h2) with h2 > horizon resumes seamlessly.
			e.now = horizon
			break
		}
		e.popTop()
		e.now = top.at
		e.fired++
		top.fn()
	}
	if horizon > 0 && e.now < horizon && len(e.heap) == 0 {
		e.now = horizon
	}
	return e.fired - start
}

// RunUntilIdle executes all pending events with no horizon.
func (e *Engine) RunUntilIdle() uint64 { return e.Run(0) }

// Rebind installs fn as the callback of the restored event matching ev's
// (time, seq) — an Event handle decoded from a checkpoint (DecodeEvent) —
// and returns the bound handle. It reports false — installing nothing —
// if no pending event has that key or it already has a callback (a double
// rebind). Rebind must run before the restored engine schedules or fires
// anything: DecodeState leaves the heap sorted, and the lookup is a binary
// search.
func (e *Engine) Rebind(ev Event, fn func()) (Event, bool) {
	i, ok := slices.BinarySearchFunc(e.heap, entry{at: ev.at, seq: ev.seq}, entCmp)
	if !ok || fn == nil || e.heap[i].fn != nil {
		return Event{}, false
	}
	e.heap[i].fn = fn
	return Event{eng: e, at: ev.at, seq: ev.seq}, true
}

// UnboundEvents counts pending events with no callback — after a decode,
// the events whose owners have not yet called Rebind. A completed restore
// must report zero; a non-zero count means some component scheduled an
// event the codec does not know how to re-bind.
func (e *Engine) UnboundEvents() int {
	n := 0
	for i := range e.heap {
		if e.heap[i].fn == nil {
			n++
		}
	}
	return n
}
