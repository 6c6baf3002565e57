package sim

import (
	"cmp"
	"slices"

	"lbica/internal/ckpt"
)

// EncodeState serializes the kernel: clock, sequence counter, firing
// count and each pending event's (time, seq) key, in key order.
// Callbacks are closures and never serialized; owners re-install them
// through Rebind after decode. The key totally orders the events, so the
// restored engine's firing order is identical by construction. To write
// the keys in order it sorts the heap in place: a sorted slice is still a
// valid heap, and the firing order depends on the keys alone. So the
// payload is canonical, and a restored engine re-encodes to the same
// bytes.
func (e *Engine) EncodeState(enc *ckpt.Encoder) {
	slices.SortFunc(e.heap, entCmp)
	enc.Section("sim.Engine")
	enc.Duration(e.now)
	enc.U64(e.seq)
	enc.U64(e.fired)
	enc.U32(uint32(len(e.heap)))
	for _, ent := range e.heap {
		enc.Duration(ent.at)
		enc.U64(ent.seq)
	}
}

// DecodeState restores the kernel in place, overwriting the engine's
// clock, counters and heap wholesale. The engine pointer itself is
// untouched, so closures a freshly built stack captured over it stay
// valid — every pending event's callback is nil afterwards, awaiting its
// owner's Rebind (UnboundEvents counts the stragglers). An event before
// the clock, numbered at or past the counter, or sharing its number with
// another fails the decode. The heap is rebuilt sorted by key, which is
// a valid heap and what Rebind's binary search needs.
func (e *Engine) DecodeState(d *ckpt.Decoder) {
	d.Section("sim.Engine")
	now := d.Duration()
	seq := d.U64()
	fired := d.U64()
	heap := make([]entry, d.Count(16))
	if d.Err() != nil {
		return
	}
	if now < 0 {
		d.Failf("engine clock %v is negative", now)
		return
	}
	for i := range heap {
		heap[i] = entry{at: d.Duration(), seq: d.U64()}
		if d.Err() != nil {
			return
		}
		if heap[i].at < now || heap[i].seq >= seq {
			d.Failf("event %d at %v numbered %d, but the clock is at %v and the counter at %d",
				i, heap[i].at, heap[i].seq, now, seq)
			return
		}
	}
	slices.SortFunc(heap, func(a, b entry) int { return cmp.Compare(a.seq, b.seq) })
	for i := 1; i < len(heap); i++ {
		if heap[i].seq == heap[i-1].seq {
			d.Failf("two pending events are numbered %d", heap[i].seq)
			return
		}
	}
	slices.SortFunc(heap, entCmp)
	e.now = now
	e.seq = seq
	e.fired = fired
	e.heap = heap
}

// EncodeEvent serializes an event handle as a (pending, at, seq)
// reference. A non-pending handle (zero or fired) encodes as a single
// absent flag.
func EncodeEvent(enc *ckpt.Encoder, ev Event) {
	if !ev.Pending() {
		enc.Bool(false)
		return
	}
	enc.Bool(true)
	enc.Duration(ev.at)
	enc.U64(ev.seq)
}

// DecodeEvent reads a reference written by EncodeEvent and returns the
// handle bound to e. The second result is false for an absent reference.
// The handle is only usable through Rebind, which looks its key up among
// the pending events.
func (e *Engine) DecodeEvent(d *ckpt.Decoder) (Event, bool) {
	if !d.Bool() {
		return Event{}, false
	}
	at := d.Duration()
	seq := d.U64()
	if d.Err() != nil {
		return Event{}, false
	}
	return Event{eng: e, at: at, seq: seq}, true
}

// EncodeState serializes the stream's identity and position: name,
// derived seed, the register's tap index and its rngLen words.
func (g *RNG) EncodeState(enc *ckpt.Encoder) {
	enc.String(g.name)
	enc.I64(g.seed)
	enc.U32(uint32(g.reg.tap))
	for _, w := range g.reg.vec {
		enc.I64(w)
	}
}

// DecodeState restores the stream in place by writing the recorded
// register over its own, so a restore costs the same at any position. The
// checkpoint must name the same stream with the same derived seed as the
// freshly built instance; a mismatch means the checkpoint was written for
// a different configuration and fails the decode. A failed decode leaves
// the stream as it was.
func (g *RNG) DecodeState(d *ckpt.Decoder) {
	name := d.String()
	seed := d.I64()
	tap := d.U32()
	if d.Err() != nil {
		return
	}
	if name != g.name || seed != g.seed {
		d.Failf("rng stream mismatch: checkpoint has %q/%d, stack has %q/%d", name, seed, g.name, g.seed)
		return
	}
	if tap >= rngLen {
		d.Failf("rng stream %q tap %d out of range (register %d)", name, tap, rngLen)
		return
	}
	if d.Remaining() < 8*rngLen {
		d.Failf("rng stream %q register truncated: %d bytes, want %d", name, d.Remaining(), 8*rngLen)
		return
	}
	for i := range g.reg.vec {
		g.reg.vec[i] = d.I64()
	}
	g.reg.tap = int(tap)
	g.reg.feed = (int(tap) + rngLen - rngTap) % rngLen
}
