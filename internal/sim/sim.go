// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is a virtual clock plus a priority queue of events ordered by
// firing time. Components schedule callbacks at absolute or relative virtual
// times; Run drains the queue, advancing the clock to each event's time in
// order. Nothing ever sleeps: a multi-minute storage experiment executes in
// milliseconds of wall time.
//
// # Determinism contract
//
// Two events at the same virtual time fire in scheduling order (a
// monotonically increasing sequence number breaks ties), so a run with a
// fixed seed reproduces bit-for-bit. The (time, seq) pair totally orders
// every event, which makes the firing order independent of the priority
// queue's internal layout — the kernel is free to reorganize (or compact)
// its heap without changing observable behavior.
//
// # Arena design
//
// The kernel is allocation-free at steady state. Event state lives in an
// index-stable arena (a slice of slots addressed by index, never by
// pointer, so growth relocations are harmless) recycled through a
// free-list; the priority queue is a hand-rolled 4-ary min-heap of compact
// (time, seq, slot) entries — no interface boxing, no per-event heap
// object, and the shallower tree halves the sift depth of a binary heap.
// At/After pop a slot from the free-list and push one heap entry; firing
// or cancelling returns the slot. Once the arena has grown to the
// high-water mark of concurrently pending events, scheduling allocates
// nothing.
//
// Handles returned by At/After are value types carrying (slot, generation);
// a generation check makes Cancel on an already-fired (and possibly
// recycled) event a safe no-op.
//
// Cancellation is lazy — a cancelled event stays in the heap until popped —
// but bounded: when dead events exceed half the heap, the kernel reaps them
// in place and re-heapifies, so a cancel-heavy workload cannot grow the
// heap without bound. Pending reports live (uncancelled, unfired) events
// only.
package sim

import (
	"fmt"
	"time"
)

// slotState tracks an arena slot's lifecycle.
type slotState uint8

const (
	slotFree slotState = iota
	slotPending
	slotDead // cancelled, awaiting pop or reap
)

// slot is one arena entry: the callback plus bookkeeping. Slots are
// addressed by index; the arena slice may relocate on growth.
type slot struct {
	fn    func()
	gen   uint32 // bumped on every release; stale handles no-op
	state slotState
}

// heapEnt is one compact priority-queue entry: the (time, seq) ordering key
// plus the arena slot it refers to. Comparisons never touch the arena.
type heapEnt struct {
	at   time.Duration
	seq  uint64
	slot int32
	gen  uint32
}

func entLess(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Event is a handle to a scheduled callback. It is a small value (not a
// pointer): copying it is cheap and the zero value is inert. Cancelling or
// inspecting an event that has already fired is a safe no-op — the handle's
// generation no longer matches the recycled arena slot.
type Event struct {
	eng  *Engine
	at   time.Duration
	slot int32
	gen  uint32
}

// Time returns the virtual time at which the event fires (or fired).
func (e Event) Time() time.Duration { return e.at }

// Pending reports whether the event is still scheduled on its engine —
// false for the zero Event and for events that already fired or were
// cancelled. The checkpoint codec uses it to decide which chain handles
// need rebinding.
func (e Event) Pending() bool {
	if e.eng == nil || e.slot < 0 || int(e.slot) >= len(e.eng.slots) {
		return false
	}
	s := &e.eng.slots[e.slot]
	return s.gen == e.gen && s.state == slotPending
}

// Cancel prevents a pending event from firing. Cancelling an event that has
// already fired or been cancelled is a no-op.
func (e Event) Cancel() {
	if e.eng != nil {
		e.eng.cancel(e.slot, e.gen)
	}
}

// Engine is the simulation executive. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now   time.Duration
	seq   uint64
	slots []slot
	free  []int32 // free arena slots
	heap  []heapEnt
	dead  int // cancelled events still occupying heap entries
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

// Pending reports how many live events are scheduled but not yet fired.
// Cancelled events are excluded even while they still occupy heap entries
// awaiting reap (this changed when the arena kernel landed: the old kernel
// counted cancelled-but-unpopped events).
func (e *Engine) Pending() int { return len(e.heap) - e.dead }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(t time.Duration, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{})
		idx = int32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	s.fn = fn
	s.state = slotPending
	seq := e.seq
	e.seq++
	e.push(heapEnt{at: t, seq: seq, slot: idx, gen: s.gen})
	return Event{eng: e, at: t, slot: idx, gen: s.gen}
}

// After schedules fn to run d after the current virtual time. Negative d is
// clamped to zero.
func (e *Engine) After(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// release returns a slot to the free-list, dropping its callback reference
// and invalidating outstanding handles.
func (e *Engine) release(idx int32) {
	s := &e.slots[idx]
	s.fn = nil
	s.state = slotFree
	s.gen++
	e.free = append(e.free, idx)
}

// cancel marks the slot dead if the handle generation still matches. Dead
// events are skipped at pop time; when they exceed half the heap they are
// reaped eagerly so cancel-heavy workloads cannot bloat the queue.
func (e *Engine) cancel(idx int32, gen uint32) {
	if int(idx) >= len(e.slots) {
		return
	}
	s := &e.slots[idx]
	if s.gen != gen || s.state != slotPending {
		return
	}
	s.state = slotDead
	s.fn = nil // release the closure immediately
	e.dead++
	if e.dead > len(e.heap)/2 && e.dead >= 32 {
		e.reap()
	}
}

// reap removes every dead entry from the heap in place and re-heapifies.
// The (time, seq) total order makes the rebuild invisible to firing order.
func (e *Engine) reap() {
	h := e.heap[:0]
	for _, ent := range e.heap {
		s := &e.slots[ent.slot]
		if s.state == slotPending && s.gen == ent.gen {
			h = append(h, ent)
		} else {
			e.release(ent.slot)
		}
	}
	// Zero the tail so released slots' entries don't pin anything.
	for i := len(h); i < len(e.heap); i++ {
		e.heap[i] = heapEnt{}
	}
	e.heap = h
	e.dead = 0
	// Floyd heapify, bottom-up.
	for i := (len(h) - 2) / 4; i >= 0; i-- {
		e.siftDown(i)
	}
}

// push appends an entry and sifts it up the 4-ary heap.
func (e *Engine) push(ent heapEnt) {
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
	h[n] = heapEnt{}
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
		s := &e.slots[top.slot]
		if s.state != slotPending || s.gen != top.gen {
			// Cancelled (or reaped-and-recycled) entry: drop it.
			e.popTop()
			if s.state == slotDead && s.gen == top.gen {
				e.dead--
				e.release(top.slot)
			}
			continue
		}
		if horizon > 0 && top.at > horizon {
			// Leave future events pending; park the clock at the horizon so
			// a subsequent Run(h2) with h2 > horizon resumes seamlessly.
			e.now = horizon
			break
		}
		e.popTop()
		fn := s.fn
		e.release(top.slot)
		e.now = top.at
		e.fired++
		fn()
	}
	if horizon > 0 && e.now < horizon && len(e.heap) == 0 {
		e.now = horizon
	}
	return e.fired - start
}

// RunUntilIdle executes all pending events with no horizon.
func (e *Engine) RunUntilIdle() uint64 { return e.Run(0) }

// Rebind installs fn as the callback of the restored slot matching ev, an
// Event handle decoded from a checkpoint (DecodeEvent), and returns the
// bound handle. It reports false — installing nothing — if the slot is not
// pending under ev's generation or already has a callback (a double
// rebind).
func (e *Engine) Rebind(ev Event, fn func()) (Event, bool) {
	if ev.slot < 0 || int(ev.slot) >= len(e.slots) || fn == nil {
		return Event{}, false
	}
	s := &e.slots[ev.slot]
	if s.gen != ev.gen || s.state != slotPending || s.fn != nil {
		return Event{}, false
	}
	s.fn = fn
	return Event{eng: e, at: ev.at, slot: ev.slot, gen: ev.gen}, true
}

// UnboundEvents counts pending slots with no callback — after a decode,
// the events whose owners have not yet called Rebind. A completed restore
// must report zero; a non-zero count means some component scheduled an
// event the codec does not know how to re-bind.
func (e *Engine) UnboundEvents() int {
	n := 0
	for i := range e.slots {
		if e.slots[i].state == slotPending && e.slots[i].fn == nil {
			n++
		}
	}
	return n
}
