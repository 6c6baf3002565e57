package sim

import "lbica/internal/ckpt"

// EncodeState serializes the kernel: clock, sequence counter, firing
// count, the slot arena (generations and lifecycle states — callbacks
// are closures and never serialized; owners re-install them through
// Rebind after decode), the free-list, and
// the heap entries byte for byte. Because the heap's (time, seq, slot,
// generation) tuples round-trip exactly, the restored engine's firing
// order is identical by construction.
func (e *Engine) EncodeState(enc *ckpt.Encoder) {
	enc.Section("sim.Engine")
	enc.Duration(e.now)
	enc.U64(e.seq)
	enc.U64(e.fired)
	enc.Int(e.dead)
	enc.U32(uint32(len(e.slots)))
	for i := range e.slots {
		enc.U32(e.slots[i].gen)
		enc.U8(uint8(e.slots[i].state))
	}
	enc.U32(uint32(len(e.free)))
	for _, idx := range e.free {
		enc.I32(idx)
	}
	enc.U32(uint32(len(e.heap)))
	for _, ent := range e.heap {
		enc.Duration(ent.at)
		enc.U64(ent.seq)
		enc.I32(ent.slot)
		enc.U32(ent.gen)
	}
}

// DecodeState restores the kernel in place, overwriting the engine's
// arena, free-list and heap wholesale. The engine pointer itself is
// untouched, so closures a freshly built stack captured over it stay
// valid — every pending slot's callback is nil afterwards, awaiting its
// owner's Rebind (UnboundEvents counts the stragglers).
func (e *Engine) DecodeState(d *ckpt.Decoder) {
	d.Section("sim.Engine")
	now := d.Duration()
	seq := d.U64()
	fired := d.U64()
	dead := d.Int()
	nSlots := d.Count(5)
	slots := make([]slot, nSlots)
	for i := range slots {
		slots[i] = slot{gen: d.U32(), state: slotState(d.U8())}
		if slots[i].state > slotDead {
			d.Failf("slot %d has invalid state %d", i, slots[i].state)
			return
		}
	}
	nFree := d.Count(4)
	free := make([]int32, nFree)
	for i := range free {
		free[i] = d.I32()
		if free[i] < 0 || int(free[i]) >= nSlots {
			d.Failf("free-list slot %d out of range (arena %d)", free[i], nSlots)
			return
		}
	}
	nHeap := d.Count(24)
	heap := make([]heapEnt, nHeap)
	for i := range heap {
		heap[i] = heapEnt{at: d.Duration(), seq: d.U64(), slot: d.I32(), gen: d.U32()}
		if heap[i].slot < 0 || int(heap[i].slot) >= nSlots {
			d.Failf("heap entry %d references slot %d (arena %d)", i, heap[i].slot, nSlots)
			return
		}
	}
	if d.Err() != nil {
		return
	}
	if now < 0 || dead < 0 || dead > nHeap {
		d.Failf("corrupt engine scalars (now %v, dead %d, heap %d)", now, dead, nHeap)
		return
	}
	e.now = now
	e.seq = seq
	e.fired = fired
	e.dead = dead
	e.slots = slots
	e.free = free
	e.heap = heap
}

// EncodeEvent serializes an event handle as a (pending, at, slot, gen)
// reference. A non-pending handle (zero, fired, or cancelled) encodes as
// a single absent flag.
func EncodeEvent(enc *ckpt.Encoder, ev Event) {
	if !ev.Pending() {
		enc.Bool(false)
		return
	}
	enc.Bool(true)
	enc.Duration(ev.at)
	enc.I32(ev.slot)
	enc.U32(ev.gen)
}

// DecodeEvent reads a reference written by EncodeEvent and returns the
// handle bound to e. The second result is false for an absent reference.
// The handle is only usable through Rebind, which validates the slot's
// generation and state.
func (e *Engine) DecodeEvent(d *ckpt.Decoder) (Event, bool) {
	if !d.Bool() {
		return Event{}, false
	}
	at := d.Duration()
	slot := d.I32()
	gen := d.U32()
	if d.Err() != nil {
		return Event{}, false
	}
	if slot < 0 || int(slot) >= len(e.slots) {
		d.Failf("event reference slot %d out of range (arena %d)", slot, len(e.slots))
		return Event{}, false
	}
	return Event{eng: e, at: at, slot: slot, gen: gen}, true
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
