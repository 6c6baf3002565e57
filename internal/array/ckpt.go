package array

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"lbica/internal/block"
	"lbica/internal/ckpt"
)

// EncodeState serializes the router's mutable state — the draw position
// of its dedicated "array:router" stream. Width, policy, and the Zipf
// CDF are immutable configuration the restoring side rebuilds from; they
// are written only as cross-checks.
func (r *Router) EncodeState(enc *ckpt.Encoder) {
	enc.Section("array.Router")
	enc.Int(r.n)
	enc.U8(uint8(r.policy))
	enc.Bool(r.rng != nil)
	if r.rng != nil {
		r.rng.EncodeState(enc)
	}
}

// DecodeState restores the router in place. A checkpoint written under a
// different width or policy is corrupt relative to this configuration.
func (r *Router) DecodeState(d *ckpt.Decoder) {
	d.Section("array.Router")
	n := d.Int()
	policy := Policy(d.U8())
	hasRNG := d.Bool()
	if d.Err() != nil {
		return
	}
	if n != r.n || policy != r.policy {
		d.Failf("array: router mismatch: checkpoint is %d-volume %s, stack is %d-volume %s",
			n, policy, r.n, r.policy)
		return
	}
	if hasRNG != (r.rng != nil) {
		d.Failf("array: router RNG presence mismatch for policy %s", policy)
		return
	}
	if r.rng != nil {
		r.rng.DecodeState(d)
	}
}

// Encode checkpoints a run parked at an interval barrier: the controller
// payload first, then one engine.Stack payload per volume. The controller
// payload holds the router's state, the base generator's state, the
// one-request lookahead and the next interval index. A static router's
// state is its RNG position; an array-lb router's is its RNG position,
// weights, load estimates and migration pins (adaptiveRouter's
// encodeState). Every feed is empty at a barrier (each volume consumed
// its slice), and so are array-lb's per-interval routed and arrival
// counts; a run caught mid-interval fails the encode.
func (c *Controlled) Encode() ([][]byte, error) {
	if c.runErr != nil {
		return nil, fmt.Errorf("array: cannot checkpoint a stopped run: %w", c.runErr)
	}
	size := ckpt.NewSizer()
	c.encodeState(size)
	if err := size.Err(); err != nil {
		return nil, err
	}
	enc := ckpt.NewEncoder(size.Len())
	c.encodeState(enc)
	if err := enc.Err(); err != nil {
		return nil, err
	}
	payloads := make([][]byte, 1+len(c.stacks))
	payloads[0] = enc.Data()
	for v, st := range c.stacks {
		p, err := st.Encode()
		if err != nil {
			return nil, fmt.Errorf("array: volume %d: %w", v, err)
		}
		payloads[1+v] = p
	}
	return payloads, nil
}

func (c *Controlled) encodeState(enc *ckpt.Encoder) {
	enc.Section("array.Controlled")
	enc.Int(len(c.stacks))
	enc.Int(c.intervals)
	enc.Int(c.next)
	if c.rt == nil {
		c.static.EncodeState(enc)
	} else {
		c.rt.encodeState(enc, c.counts)
	}
	sc, ok := c.base.(ckpt.StateCodec)
	if !ok {
		enc.Failf("array: base generator %q is not checkpointable", c.base.Name())
		return
	}
	sc.EncodeState(enc)
	enc.Bool(c.hasPending)
	enc.Duration(c.pending.At)
	enc.U8(uint8(c.pending.Op))
	enc.I64(c.pending.Extent.LBA)
	enc.I64(c.pending.Extent.Sectors)
}

// Decode restores payloads written by Encode onto this run, built with
// the same configuration and not started; each volume stack decodes its
// own payload (engine.Stack.Decode, so a volume built without a balancer
// drops the checkpoint's). A static checkpoint decodes only onto a static
// run and an array-lb one only onto an array-lb run of the same variant.
// Decoding draws nothing from the base stream: the lookahead comes from
// the payload. On error the run must be discarded.
func (c *Controlled) Decode(ctx context.Context, payloads [][]byte) error {
	if len(payloads) != 1+len(c.stacks) {
		return fmt.Errorf("array: checkpoint holds %d payloads for a controller and %d volumes", len(payloads), len(c.stacks))
	}
	d := ckpt.NewDecoder(payloads[0])
	c.decodeState(d)
	if err := d.Err(); err != nil {
		return err
	}
	if n := d.Remaining(); n > 0 {
		return fmt.Errorf("array: %d trailing bytes after controller state", n)
	}
	for v, st := range c.stacks {
		if err := st.Decode(ctx, payloads[1+v]); err != nil {
			return fmt.Errorf("array: volume %d: %w", v, err)
		}
	}
	return nil
}

func (c *Controlled) decodeState(d *ckpt.Decoder) {
	d.Section("array.Controlled")
	volumes, intervals, next := d.Int(), d.Int(), d.Int()
	if d.Err() != nil {
		return
	}
	if volumes != len(c.stacks) || intervals != c.intervals {
		d.Failf("array: checkpoint is a %d-volume, %d-interval run; this run has %d volumes and %d intervals",
			volumes, intervals, len(c.stacks), c.intervals)
		return
	}
	if next < 1 || next > intervals+1 {
		d.Failf("array: checkpoint's next interval %d outside [1, %d]", next, intervals+1)
		return
	}
	if c.rt == nil {
		c.static.DecodeState(d)
	} else {
		c.rt.decodeState(d)
	}
	sc, ok := c.base.(ckpt.StateCodec)
	if !ok {
		d.Failf("array: base generator %q is not checkpointable", c.base.Name())
		return
	}
	sc.DecodeState(d)
	c.hasPending = d.Bool()
	c.pending.At = d.Duration()
	c.pending.Op = block.Op(d.U8())
	c.pending.Extent.LBA = d.I64()
	c.pending.Extent.Sectors = d.I64()
	c.next = next
}

// EncodeState writes a feed's state, which at an interval barrier is
// none: the volume consumed every request routed to it. A feed still
// holding requests is mid-interval and fails the encode.
func (f *feedGen) EncodeState(enc *ckpt.Encoder) {
	enc.Section("array.feed")
	if left := len(f.reqs) - f.pos; left > 0 {
		enc.Failf("array: volume %d's feed holds %d requests; checkpoint at an interval barrier", f.vol, left)
	}
}

// DecodeState restores a feed: empty, as every barrier leaves it.
func (f *feedGen) DecodeState(d *ckpt.Decoder) {
	d.Section("array.feed")
	f.reqs, f.pos = f.reqs[:0], 0
}

// encodeState writes the adaptive router's barrier state: width and
// variant as cross-checks, the RNG position, the weights and EMA
// estimates as float bits, primed, and the pins as (block, volume) pairs
// in ascending block order. Every barrier resets the routed counts and
// the per-volume arrival counts (counts), so they are not written; a
// router holding either is mid-interval and fails the encode.
func (rt *adaptiveRouter) encodeState(enc *ckpt.Encoder, counts []map[int64]uint64) {
	enc.Section("array.adaptiveRouter")
	enc.Int(rt.n)
	enc.U8(uint8(rt.variant))
	for v := range rt.routed {
		if rt.routed[v] != 0 || len(counts[v]) != 0 {
			enc.Failf("array: volume %d has requests routed this interval; checkpoint at an interval barrier", v)
			return
		}
	}
	rt.rng.EncodeState(enc)
	for _, w := range rt.weights {
		enc.F64(w)
	}
	for _, e := range rt.est {
		enc.F64(e)
	}
	enc.Bool(rt.primed)
	blocks := slices.Sorted(maps.Keys(rt.pins))
	enc.U32(uint32(len(blocks)))
	for _, b := range blocks {
		enc.I64(b)
		enc.Int(rt.pins[b])
	}
}

// decodeState restores the adaptive router in place and rebuilds its CDF
// from the weights. A checkpoint of another width or variant, pins out of
// ascending block order or naming a volume outside the array, and more
// than maxPins pins are corrupt relative to this configuration.
func (rt *adaptiveRouter) decodeState(d *ckpt.Decoder) {
	d.Section("array.adaptiveRouter")
	n := d.Int()
	variant := Variant(d.U8())
	if d.Err() != nil {
		return
	}
	if n != rt.n || variant != rt.variant {
		d.Failf("array: controller mismatch: checkpoint is %d-volume %s, run is %d-volume %s", n, variant, rt.n, rt.variant)
		return
	}
	rt.rng.DecodeState(d)
	for v := range rt.weights {
		rt.weights[v] = d.F64()
	}
	for v := range rt.est {
		rt.est[v] = d.F64()
	}
	rt.primed = d.Bool()
	rt.rebuildCDF()
	pins := d.Count(16)
	if pins > maxPins {
		d.Failf("array: checkpoint holds %d pins, more than the %d cap", pins, maxPins)
		return
	}
	clear(rt.pins)
	prev := int64(0)
	for i := range pins {
		b, v := d.I64(), d.Int()
		switch {
		case d.Err() != nil:
			return
		case i > 0 && b <= prev:
			d.Failf("array: pin %d (block %d) out of ascending block order", i, b)
			return
		case v < 0 || v >= rt.n:
			d.Failf("array: pin on block %d names volume %d of %d", b, v, rt.n)
			return
		}
		rt.pins[b], prev = v, b
	}
}
