package sim

import "lbica/internal/ckpt"

// maxRNGReplay caps the draw count a checkpoint may ask a stream to
// replay. Restoring an RNG is O(draws so far), so a hostile count would
// turn decode into a CPU sink; 1<<27 raw draws (well past any real
// warmup prefix) decode in under a second.
const maxRNGReplay = 1 << 27

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
// derived seed, and raw draw count.
func (g *RNG) EncodeState(enc *ckpt.Encoder) {
	enc.String(g.name)
	enc.I64(g.seed)
	enc.U64(g.src.n)
}

// DecodeState restores the stream in place by reseeding a fresh source
// and replaying the recorded draw count. The checkpoint must name the
// same stream with the same derived seed as the freshly built instance; a
// mismatch means the checkpoint was written for a different configuration
// and fails the decode.
func (g *RNG) DecodeState(d *ckpt.Decoder) {
	name := d.String()
	seed := d.I64()
	n := d.U64()
	if d.Err() != nil {
		return
	}
	if name != g.name || seed != g.seed {
		d.Failf("rng stream mismatch: checkpoint has %q/%d, stack has %q/%d", name, seed, g.name, g.seed)
		return
	}
	if n > maxRNGReplay {
		d.Failf("rng stream %q replay count %d exceeds cap %d", name, n, uint64(maxRNGReplay))
		return
	}
	*g = *newStream(g.name, g.seed)
	for i := uint64(0); i < n; i++ {
		g.src.src.Int63()
	}
	g.src.n = n
}
