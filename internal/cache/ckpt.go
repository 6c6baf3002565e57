package cache

import (
	"fmt"
	"slices"

	"lbica/internal/ckpt"
)

// EncodeState serializes the cache's mutable state: write policy, the
// lines, the LRU tick, occupancy counters, statistics and the
// Random-replacement xorshift state. Geometry (cfg, ways, setMask) is
// excluded — it is a pure function of the configuration the restoring
// side rebuilds from, and the line count cross-checks it on decode. The
// victims scratch buffer is transient per Access call and skipped.
//
// Each line is four variable-length integers: the tag (zigzag, so a free
// line's -1 takes one byte), the state word (write epoch and flags), and
// the lastUse and loadedAt ticks. The line table is most of a payload,
// and most of its values are small.
func (c *Cache) EncodeState(enc *ckpt.Encoder) {
	c.mustLive()
	enc.Section("cache.Cache")
	enc.U8(uint8(c.policy))
	enc.U32(uint32(len(c.tags)))
	for i, t := range c.tags {
		m := &c.meta[i]
		enc.Varint(t)
		enc.Uvarint(m.state)
		enc.Uvarint(m.lastUse)
		enc.Uvarint(m.loadedAt)
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
// relative to this configuration. A state word holds every write epoch a
// line can: one past that needs a 65th bit, which the reader refuses
// rather than truncates. The flushable bitmap is not on the wire: decode
// rebuilds it from the lines, and fails when a line sits outside its
// block's set, a block is cached twice, or the encoded valid and dirty
// counters disagree with the lines. On error the arrays may be partly
// overwritten; the stack is discarded then.
func (c *Cache) DecodeState(d *ckpt.Decoder) {
	c.mustLive()
	d.Section("cache.Cache")
	policy := Policy(d.U8())
	// A line takes at least one byte for each of its four integers.
	n := d.Count(4)
	if d.Err() != nil {
		return
	}
	if n != len(c.tags) {
		d.Failf("cache line count %d differs from geometry %d", n, len(c.tags))
		return
	}
	for i := range c.tags {
		c.tags[i] = d.Varint()
		m := &c.meta[i]
		m.state = d.Uvarint()
		m.lastUse = d.Uvarint()
		m.loadedAt = d.Uvarint()
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
// pass and checks the lines against the geometry and the decoded occupancy
// counters: a valid line sits in its block's set, no set holds a block
// twice (so no block is cached twice: every copy would sit in its set), a
// free line carries no dirty or flushing flag, a flushing line is dirty,
// and the valid and dirty lines number exactly valid and dirty. A line
// outside its set is one find never reaches, and a counter that disagreed
// would steer NeedsFlush and CollectDirty off the lines.
func (c *Cache) rebuildFlushable(dirty, valid int) error {
	clear(c.flushable)
	nValid, nDirty := 0, 0
	for base := 0; base < len(c.tags); base += c.ways {
		for i := base; i < base+c.ways; i++ {
			tag, m := c.tags[i], &c.meta[i]
			switch {
			case m.flushing() && !m.dirty():
				return fmt.Errorf("cache line %d is flushing but clean", i)
			case tag == -1 && m.dirty():
				return fmt.Errorf("free cache line %d is dirty", i)
			case tag == -1:
				continue
			case c.setBase(tag) != base:
				return fmt.Errorf("cache line %d in set %d holds block %d of set %d", i, base/c.ways, tag, c.setBase(tag)/c.ways)
			case slices.Contains(c.tags[base:i], tag):
				return fmt.Errorf("block %d is cached twice in set %d", tag, base/c.ways)
			}
			nValid++
			if m.dirty() {
				nDirty++
				if tag >= 0 && !m.flushing() {
					c.setFlushable(i, true)
				}
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
