package cache

import (
	"fmt"
	"math"

	"lbica/internal/ckpt"
)

// EncodeState serializes the cache's mutable state: write policy, the
// tag/metadata arrays, the LRU tick, occupancy counters, statistics and
// the Random-replacement xorshift state. Geometry (cfg, ways, setMask)
// is excluded — it is a pure function of the configuration the restoring
// side rebuilds from, and the array lengths cross-check it on decode.
// The victims scratch buffer is transient per Access call and skipped.
func (c *Cache) EncodeState(enc *ckpt.Encoder) {
	c.mustLive()
	enc.Section("cache.Cache")
	enc.U8(uint8(c.policy))
	enc.U32(uint32(len(c.tags)))
	for _, t := range c.tags {
		enc.I64(t)
	}
	for _, m := range c.meta {
		enc.U64(m.epoch())
		enc.U64(m.lastUse)
		enc.U64(m.loadedAt)
		enc.Bool(m.dirty())
		enc.Bool(m.flushing())
	}
	enc.U64(c.tick)
	enc.Int(c.dirty)
	enc.Int(c.valid)
	enc.U64(c.rndSt)
	c.stats.EncodeState(enc)
}

// DecodeState restores the cache in place, into the tag and metadata
// arrays the fresh build allocated. The line count must match the freshly
// built geometry: a checkpoint for a different cache size is corrupt
// relative to this configuration. The flushable bitmap is not on the
// wire: decode rebuilds it from the lines, and fails when the encoded
// valid and dirty counters disagree with them. On error the arrays may be
// partly overwritten; the stack is discarded then.
func (c *Cache) DecodeState(d *ckpt.Decoder) {
	c.mustLive()
	d.Section("cache.Cache")
	policy := Policy(d.U8())
	n := d.Count(8)
	if d.Err() != nil {
		return
	}
	if n != len(c.tags) {
		d.Failf("cache line count %d differs from geometry %d", n, len(c.tags))
		return
	}
	for i := range c.tags {
		c.tags[i] = d.I64()
	}
	for i := range c.meta {
		epoch, lastUse, loadedAt := d.U64(), d.U64(), d.U64()
		state := epoch * lineEpoch
		if d.Bool() {
			state |= lineDirty
		}
		if d.Bool() {
			state |= lineFlushing
		}
		if state/lineEpoch != epoch {
			d.Failf("cache line %d has write epoch %d, beyond the %d a line holds", i, epoch, math.MaxUint64/lineEpoch)
			return
		}
		c.meta[i] = lineMeta{state: state, lastUse: lastUse, loadedAt: loadedAt}
	}
	tick := d.U64()
	dirty := d.Int()
	valid := d.Int()
	rndSt := d.U64()
	var stats Stats
	stats.DecodeState(d)
	if d.Err() != nil {
		return
	}
	if err := c.rebuildFlushable(dirty, valid); err != nil {
		d.Failf("%v", err)
		return
	}
	c.policy = policy
	c.tick = tick
	c.dirty = dirty
	c.valid = valid
	c.rndSt = rndSt
	c.stats = stats
	c.victims = nil
}

// rebuildFlushable derives the flushable bitmap from decoded lines in one
// pass and checks the lines against the decoded occupancy counters: a free
// line carries no dirty or flushing flag, a flushing line is dirty, and
// the valid and dirty lines number exactly valid and dirty. A counter that
// disagreed would steer NeedsFlush and CollectDirty off the lines.
func (c *Cache) rebuildFlushable(dirty, valid int) error {
	clear(c.flushable)
	nValid, nDirty := 0, 0
	for i, tag := range c.tags {
		m := &c.meta[i]
		switch {
		case m.flushing() && !m.dirty():
			return fmt.Errorf("cache line %d is flushing but clean", i)
		case tag == -1 && m.dirty():
			return fmt.Errorf("free cache line %d is dirty", i)
		case tag == -1:
			continue
		}
		nValid++
		if m.dirty() {
			nDirty++
			if tag >= 0 && !m.flushing() {
				c.setFlushable(i, true)
			}
		}
	}
	if nValid != valid || nDirty != dirty {
		return fmt.Errorf("corrupt cache occupancy: counters say %d valid and %d dirty, the lines %d and %d", valid, dirty, nValid, nDirty)
	}
	return nil
}

// EncodeState serializes the counter block.
func (s *Stats) EncodeState(enc *ckpt.Encoder) {
	for _, v := range s.fields() {
		enc.U64(*v)
	}
}

// DecodeState restores the counter block.
func (s *Stats) DecodeState(d *ckpt.Decoder) {
	for _, v := range s.fields() {
		*v = d.U64()
	}
}

// fields enumerates the counters in wire order. New counters append here
// (and bump the checkpoint format version).
func (s *Stats) fields() []*uint64 {
	return []*uint64{
		&s.Reads, &s.Writes,
		&s.ReadHits, &s.ReadMisses,
		&s.WriteHits, &s.WriteMisses,
		&s.Promotes,
		&s.CleanEvicts, &s.DirtyEvicts,
		&s.Invalidations,
		&s.FlushesStarted, &s.Flushed,
		&s.PolicySwitches,
		&s.BypassedReads, &s.BypassedWr,
		&s.MigratedOut, &s.MigratedIn,
	}
}
