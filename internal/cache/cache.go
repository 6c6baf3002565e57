// Package cache implements the SSD I/O cache of the paper's stack — the
// role EnhanceIO plays on the physical testbed: a set-associative,
// LRU-per-set block cache with runtime-switchable write policies and the
// promote/evict side-traffic that LBICA's characterizer observes.
//
// The cache is a pure metadata machine: it never performs I/O itself.
// Access returns a Decision describing which device transfers the engine
// must issue (SSD read/write, HDD read/write, deferred promote, victim
// writebacks); the engine turns those into queued block requests.
package cache

import (
	"fmt"
	"math/bits"
	"time"

	"lbica/internal/block"
)

// Policy is a cache write policy. LBICA's whole contribution is switching
// this at runtime per Eq. 1 + workload characterization.
type Policy uint8

// Write policies.
const (
	// WB (write-back): read and write allocate; writes buffered dirty in
	// the SSD; dirty victims are written back on eviction. The enterprise
	// default and the paper's baseline.
	WB Policy = iota
	// WT (write-through): read and write allocate; writes go to SSD and
	// HDD simultaneously and lines stay clean.
	WT
	// RO (read-only): read allocate; writes bypass to the HDD and
	// invalidate any cached copy. LBICA assigns this for Group 2 (mixed
	// read/write) bursts.
	RO
	// WO (write-only-allocate): read hits are served but read misses do
	// not promote; writes are buffered dirty as in WB. LBICA assigns this
	// for Group 1 (random read) bursts to kill promote traffic.
	WO
	// WTWO combines WT's through-writes with WO's no-read-allocate — the
	// configuration the SIB baseline is designed around.
	WTWO
	numPolicies
)

// NumPolicies is the number of distinct policies.
const NumPolicies = int(numPolicies)

var policyNames = [...]string{"WB", "WT", "RO", "WO", "WTWO"}

func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// ParsePolicy converts a name ("WB", "wt", ...) to a Policy.
func ParsePolicy(s string) (Policy, error) {
	for i, n := range policyNames {
		if equalFold(s, n) {
			return Policy(i), nil
		}
	}
	return 0, fmt.Errorf("cache: unknown policy %q", s)
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'a' <= ca && ca <= 'z' {
			ca -= 'a' - 'A'
		}
		if 'a' <= cb && cb <= 'z' {
			cb -= 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// The cache stores line state in structure-of-arrays layout: a compact
// tag array (8 bytes per way — a whole 8-way set probes in one or two
// cache lines) with the colder metadata alongside in a parallel slice.
// find touches only the tag array; metadata is loaded just for the way
// that hits.

// lineMeta is the non-tag state of one way of one set. The dirty and
// flushing flags share a word with the write epoch, so a line's metadata
// is 24 bytes rather than 32: the metadata array is the largest one a
// stack holds.
type lineMeta struct {
	state    uint64 // write epoch × lineEpoch | lineFlushing | lineDirty
	lastUse  uint64 // global LRU tick
	loadedAt uint64 // tick at allocation (FIFO replacement)
}

// lineMeta.state bits.
const (
	lineDirty    uint64 = 1 << iota // the line holds data the disk lacks
	lineFlushing                    // a writeback of the line is in flight
	lineEpoch                       // one write epoch: bumped on every dirtying write; guards MarkClean
)

func (m *lineMeta) dirty() bool    { return m.state&lineDirty != 0 }
func (m *lineMeta) flushing() bool { return m.state&lineFlushing != 0 }
func (m *lineMeta) epoch() uint64  { return m.state / lineEpoch }

// Victim identifies an evicted block. Dirty victims cost an SSD read (E)
// plus an HDD write (writeback); clean victims are metadata-only.
type Victim struct {
	Block int64
	Dirty bool
	Epoch uint64
}

// Action is the set of transfers one application request needs, one bit
// per transfer. A set fits one byte, so Access returns its Decision in
// registers.
type Action uint8

// Actions.
const (
	// Hit: every covered block was valid (read) / present (write) in the
	// cache.
	Hit Action = 1 << iota
	// CacheRead: serve the read from the SSD (origin AppRead).
	CacheRead
	// DiskRead: read from the HDD (origin ReadMiss).
	DiskRead
	// CacheWrite: buffer the write in the SSD (origin AppWrite).
	CacheWrite
	// DiskWrite: write to the HDD (origin BypassWrite) — RO bypass or the
	// through-leg of WT/WTWO.
	DiskWrite
	// Promote: after the disk read completes, fill the SSD (origin
	// Promote).
	Promote
)

var actionNames = [...]string{"Hit", "CacheRead", "DiskRead", "CacheWrite", "DiskWrite", "Promote"}

// Has reports whether a holds every action in x.
func (a Action) Has(x Action) bool { return a&x == x }

func (a Action) String() string {
	var s []byte
	for i, n := range actionNames {
		if a&(1<<i) != 0 {
			if s != nil {
				s = append(s, '|')
			}
			s = append(s, n...)
		}
	}
	if a>>len(actionNames) != 0 || s == nil {
		return fmt.Sprintf("Action(%#x)", uint8(a))
	}
	return string(s)
}

// Decision tells the engine which transfers to issue for one application
// request.
type Decision struct {
	Action Action
	// Victims evicted to make room; issue their writebacks. The slice
	// aliases a scratch buffer owned by the Cache and is valid only until
	// the next Access/Prewarm call — consume (or copy) it immediately.
	Victims []Victim
}

// Stats is the cache's cumulative accounting.
type Stats struct {
	Reads, Writes             uint64
	ReadHits, ReadMisses      uint64
	WriteHits, WriteMisses    uint64
	Promotes                  uint64
	CleanEvicts, DirtyEvicts  uint64
	Invalidations             uint64
	FlushesStarted, Flushed   uint64
	PolicySwitches            uint64
	BypassedReads, BypassedWr uint64 // balancer-initiated bypasses, recorded via NoteBypass
	MigratedOut, MigratedIn   uint64 // array-controller line migrations (ExtractClean / InsertClean)
}

// HitRatio returns overall hit ratio in [0,1].
func (s Stats) HitRatio() float64 {
	total := s.Reads + s.Writes
	if total == 0 {
		return 0
	}
	return float64(s.ReadHits+s.WriteHits) / float64(total)
}

// Replacement selects the victim within a set, mirroring EnhanceIO's
// replacement-policy module parameter (lru, fifo, rand).
type Replacement uint8

// Replacement policies.
const (
	// LRU evicts the least recently used way (EnhanceIO's default).
	LRU Replacement = iota
	// FIFO evicts the way resident longest, regardless of use.
	FIFO
	// Random evicts a pseudo-random way (cheap, no metadata updates on
	// hits; EnhanceIO offers it for metadata-bandwidth-constrained
	// setups).
	Random
)

var replacementNames = [...]string{"lru", "fifo", "rand"}

func (r Replacement) String() string {
	if int(r) < len(replacementNames) {
		return replacementNames[r]
	}
	return fmt.Sprintf("Replacement(%d)", uint8(r))
}

// ParseReplacement converts a name ("lru", "fifo", "rand") to a
// Replacement.
func ParseReplacement(s string) (Replacement, error) {
	for i, n := range replacementNames {
		if equalFold(s, n) {
			return Replacement(i), nil
		}
	}
	return 0, fmt.Errorf("cache: unknown replacement policy %q", s)
}

// Config sizes the cache.
type Config struct {
	// BlockSectors is the cache block size in sectors (default 8 = 4 KiB).
	BlockSectors int64
	// Sets × Ways = capacity in blocks.
	Sets int
	Ways int
	// InitialPolicy is the starting write policy (default WB).
	InitialPolicy Policy
	// Replacement selects the in-set victim policy (default LRU).
	Replacement Replacement
	// ReplacementSeed seeds the Random replacement's generator.
	ReplacementSeed int64
	// DirtyHighWatermark / DirtyLowWatermark bound the background flusher:
	// it starts above high and stops below low (fractions of capacity).
	DirtyHighWatermark float64
	DirtyLowWatermark  float64
}

// DefaultConfig returns a 64Ki-block (256 MiB at 4 KiB blocks), 8-way
// configuration with EnhanceIO-like flush watermarks.
func DefaultConfig() Config {
	return Config{
		BlockSectors:       8,
		Sets:               8192,
		Ways:               8,
		InitialPolicy:      WB,
		DirtyHighWatermark: 0.7,
		DirtyLowWatermark:  0.5,
	}
}

// Cache is the set-associative cache metadata machine.
type Cache struct {
	cfg     Config
	policy  Policy
	tags    []int64    // Sets×Ways block numbers; -1 when invalid
	meta    []lineMeta // parallel to tags
	ways    int
	shift   uint  // log2(BlockSectors), for blockOf
	setMask int64 // Sets-1 when Sets is a power of two, else -1
	tick    uint64
	dirty   int
	valid   int
	stats   Stats
	rndSt   uint64 // xorshift state for Random replacement
	// victims is the scratch buffer Decision.Victims aliases; it is valid
	// until the next Access/Prewarm call and reused to keep the hot path
	// allocation-free.
	victims []Victim
	// flushable holds one bit per line, set exactly when the line is one
	// CollectDirty may pick: a non-negative tag, dirty and not flushing.
	// Every transition of those flags keeps it, and the codec rebuilds it.
	flushable []uint64
}

// New builds a cache, on the line arrays of a released cache (Release)
// with the same line count when one is free. Invalid geometry panics: the
// caller controls config. BlockSectors must be a power of two.
func New(cfg Config) *Cache {
	if cfg.BlockSectors <= 0 {
		cfg.BlockSectors = 8
	}
	if cfg.BlockSectors&(cfg.BlockSectors-1) != 0 {
		panic(fmt.Sprintf("cache: BlockSectors %d is not a power of two", cfg.BlockSectors))
	}
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic("cache: Sets and Ways must be positive")
	}
	if cfg.DirtyHighWatermark == 0 {
		cfg.DirtyHighWatermark = 0.7
	}
	if cfg.DirtyLowWatermark == 0 {
		cfg.DirtyLowWatermark = 0.5
	}
	c := &Cache{cfg: cfg, policy: cfg.InitialPolicy, ways: cfg.Ways, shift: uint(bits.TrailingZeros64(uint64(cfg.BlockSectors))), rndSt: uint64(cfg.ReplacementSeed)*2654435761 + 0x9e3779b97f4a7c15}
	n := cfg.Sets * cfg.Ways
	if l := takeLines(n); l != nil {
		c.tags, c.meta, c.flushable = l.tags, l.meta, l.flushable
		clear(c.meta)
		clear(c.flushable)
	} else {
		c.tags, c.meta, c.flushable = make([]int64, n), make([]lineMeta, n), make([]uint64, (n+63)/64)
	}
	for i := range c.tags {
		c.tags[i] = -1
	}
	c.setMask = -1
	if n := int64(cfg.Sets); n&(n-1) == 0 {
		c.setMask = n - 1
	}
	return c
}

// Policy returns the current write policy.
func (c *Cache) Policy() Policy { return c.policy }

// SetPolicy switches the write policy at runtime (LBICA's actuator).
func (c *Cache) SetPolicy(p Policy) {
	if p != c.policy {
		c.stats.PolicySwitches++
	}
	c.policy = p
}

// Stats returns a copy of the cumulative statistics.
func (c *Cache) Stats() Stats {
	c.mustLive()
	return c.stats
}

// Capacity returns total capacity in blocks.
func (c *Cache) Capacity() int { return c.cfg.Sets * c.cfg.Ways }

// ValidCount returns the number of valid blocks.
func (c *Cache) ValidCount() int { return c.valid }

// DirtyCount returns the number of dirty blocks.
func (c *Cache) DirtyCount() int { return c.dirty }

// DirtyRatio returns dirty blocks over capacity.
func (c *Cache) DirtyRatio() float64 {
	c.mustLive()
	return float64(c.dirty) / float64(c.Capacity())
}

// BlockSectors returns the cache block size in sectors.
func (c *Cache) BlockSectors() int64 { return c.cfg.BlockSectors }

// BlockExtent returns the device extent of a cache block.
func (c *Cache) BlockExtent(blockNum int64) block.Extent {
	return block.Extent{LBA: blockNum * c.cfg.BlockSectors, Sectors: c.cfg.BlockSectors}
}

// blocksOf enumerates the block numbers an extent covers.
func (c *Cache) blocksOf(e block.Extent) (first, last int64) {
	return c.blockOf(e.LBA), c.blockOf(e.End() - 1)
}

// blockOf returns sector / BlockSectors, truncated toward zero as Go's
// division is, with a shift: a negative sector is biased up by
// BlockSectors-1 first.
func (c *Cache) blockOf(sector int64) int64 {
	return (sector + sector>>63&(c.cfg.BlockSectors-1)) >> c.shift
}

// setBase returns the tag/meta index of blockNum's set's first way.
func (c *Cache) setBase(blockNum int64) int {
	var s int64
	if c.setMask >= 0 {
		s = blockNum & c.setMask
		if blockNum < 0 {
			s = -blockNum & c.setMask
		}
	} else {
		s = blockNum % int64(c.cfg.Sets)
		if s < 0 {
			s = -s
		}
	}
	return int(s) * c.ways
}

// find returns the tag/meta index of the way holding blockNum, or -1. It
// probes only the compact tag array — the common miss scans Ways
// contiguous int64s and never loads line metadata.
func (c *Cache) find(blockNum int64) int {
	base := c.setBase(blockNum)
	tags := c.tags[base : base+c.ways]
	for i, t := range tags {
		if t == blockNum {
			return base + i
		}
	}
	return -1
}

// Contains reports whether blockNum is cached (valid).
func (c *Cache) Contains(blockNum int64) bool { return c.find(blockNum) >= 0 }

// DirtyIn reports whether any block covered by e is dirty — the safety
// check before a balancer re-routes a queued read to the disk tier (dirty
// data exists only on the SSD).
func (c *Cache) DirtyIn(e block.Extent) bool {
	first, last := c.blocksOf(e)
	for b := first; b <= last; b++ {
		if i := c.find(b); i >= 0 && c.meta[i].dirty() {
			return true
		}
	}
	return false
}

// touch refreshes LRU state.
func (c *Cache) touch(i int) {
	c.tick++
	c.meta[i].lastUse = c.tick
}

// allocate installs blockNum in its set, evicting the LRU victim if the set
// is full. It returns the line index and, when an eviction occurred,
// appends the victim to the cache's scratch victim buffer (the evicted
// return reports it). Lines already present are returned as-is.
func (c *Cache) allocate(blockNum int64) (idx int, evicted bool) {
	if i := c.find(blockNum); i >= 0 {
		c.touch(i)
		return i, false
	}
	base := c.setBase(blockNum)
	// Prefer an invalid way.
	choice := -1
	tags := c.tags[base : base+c.ways]
	for i, t := range tags {
		if t == -1 {
			choice = base + i
			break
		}
	}
	if choice < 0 {
		choice = c.pickVictim(base)
		m := &c.meta[choice]
		v := Victim{Block: c.tags[choice], Dirty: m.dirty() && !m.flushing(), Epoch: m.epoch()}
		c.victims = append(c.victims, v)
		evicted = true
		if m.dirty() {
			c.dirty--
			c.setFlushable(choice, false)
			if v.Dirty {
				c.stats.DirtyEvicts++
			} else {
				c.stats.CleanEvicts++ // flush in flight covers persistence
			}
		} else {
			c.stats.CleanEvicts++
		}
		c.valid--
	}
	c.tags[choice] = blockNum
	m := &c.meta[choice]
	m.state = 0
	c.valid++
	c.touch(choice)
	m.loadedAt = c.tick
	return choice, evicted
}

// pickVictim selects the way to evict per the configured replacement
// policy, preferring lines not mid-flush (their writeback is already in
// flight; evicting them as clean is safe but avoided when any alternative
// exists). base indexes the set's first way.
func (c *Cache) pickVictim(base int) int {
	score := func(m *lineMeta) uint64 {
		switch c.cfg.Replacement {
		case FIFO:
			return m.loadedAt
		case Random:
			// xorshift64*: cheap deterministic pseudo-randomness.
			c.rndSt ^= c.rndSt << 13
			c.rndSt ^= c.rndSt >> 7
			c.rndSt ^= c.rndSt << 17
			return c.rndSt
		default:
			return m.lastUse
		}
	}
	best, bestAny := -1, -1
	var bestScore, bestAnyScore uint64
	for i := base; i < base+c.ways; i++ {
		m := &c.meta[i]
		s := score(m)
		if bestAny < 0 || s < bestAnyScore {
			bestAny, bestAnyScore = i, s
		}
		if !m.flushing() && (best < 0 || s < bestScore) {
			best, bestScore = i, s
		}
	}
	if best < 0 {
		return bestAny
	}
	return best
}

// markDirty transitions a line to dirty.
func (c *Cache) markDirty(i int) {
	m := &c.meta[i]
	if !m.dirty() {
		c.dirty++
	}
	m.state = (m.state|lineDirty)&^lineFlushing + lineEpoch
	c.setFlushable(i, c.tags[i] >= 0)
}

// isFlushable reports line i's bit in the flushable bitmap.
func (c *Cache) isFlushable(i int) bool { return c.flushable[i>>6]&(1<<(i&63)) != 0 }

// setFlushable sets or clears line i's bit in the flushable bitmap.
func (c *Cache) setFlushable(i int, on bool) {
	w, bit := i>>6, uint64(1)<<(i&63)
	if on {
		c.flushable[w] |= bit
	} else {
		c.flushable[w] &^= bit
	}
}

// Access applies the current policy to one application request and returns
// the transfers the engine must issue. now is unused for decisions but
// stamped into nothing here — timing lives in the engine; it is accepted so
// future replacement policies can be recency-in-time based.
func (c *Cache) Access(op block.Op, e block.Extent, now time.Duration) Decision {
	if op == block.Read {
		return c.read(e)
	}
	return c.write(e)
}

func (c *Cache) read(e block.Extent) Decision {
	c.stats.Reads++
	first, last := c.blocksOf(e)
	allHit := true
	for b := first; b <= last; b++ {
		if i := c.find(b); i >= 0 {
			c.touch(i)
		} else {
			allHit = false
		}
	}
	if allHit {
		c.stats.ReadHits++
		return Decision{Action: Hit | CacheRead}
	}
	c.stats.ReadMisses++
	// Promote on miss unless the policy forbids read allocation.
	if c.policy == WO || c.policy == WTWO {
		return Decision{Action: DiskRead}
	}
	c.victims = c.victims[:0]
	anyVictim := false
	for b := first; b <= last; b++ {
		if c.find(b) >= 0 {
			continue
		}
		if _, ev := c.allocate(b); ev {
			anyVictim = true
		}
	}
	c.stats.Promotes++
	return c.decision(DiskRead|Promote, anyVictim)
}

// decision returns act with the victims this access evicted, if any.
func (c *Cache) decision(act Action, anyVictim bool) Decision {
	if anyVictim {
		return Decision{Action: act, Victims: c.victims}
	}
	return Decision{Action: act}
}

func (c *Cache) write(e block.Extent) Decision {
	c.stats.Writes++
	first, last := c.blocksOf(e)
	var hit Action = Hit
	for b := first; b <= last; b++ {
		if c.find(b) < 0 {
			hit = 0
			break
		}
	}
	if hit != 0 {
		c.stats.WriteHits++
	} else {
		c.stats.WriteMisses++
	}

	switch c.policy {
	case RO:
		// Writes bypass; drop any stale cached copy.
		for b := first; b <= last; b++ {
			c.invalidate(b)
		}
		return Decision{Action: hit | DiskWrite}
	case WB, WO:
		c.victims = c.victims[:0]
		anyVictim := false
		for b := first; b <= last; b++ {
			i, ev := c.allocate(b)
			c.markDirty(i)
			anyVictim = anyVictim || ev
		}
		return c.decision(hit|CacheWrite, anyVictim)
	default: // WT, WTWO — through-write, clean allocate
		c.victims = c.victims[:0]
		anyVictim := false
		for b := first; b <= last; b++ {
			i, ev := c.allocate(b)
			m := &c.meta[i]
			if m.dirty() {
				// A through-write over a previously dirty line cleans it:
				// the disk leg persists the latest data.
				m.state &^= lineDirty | lineFlushing
				c.setFlushable(i, false)
				c.dirty--
			}
			m.state += lineEpoch
			anyVictim = anyVictim || ev
		}
		return c.decision(hit|CacheWrite|DiskWrite, anyVictim)
	}
}

// invalidate drops blockNum if cached. Dirty data is dropped too — callers
// only invalidate when the up-to-date data is on its way to the disk.
func (c *Cache) invalidate(blockNum int64) {
	i := c.find(blockNum)
	if i < 0 {
		return
	}
	m := &c.meta[i]
	if m.dirty() {
		c.dirty--
	}
	c.tags[i] = -1
	m.state &^= lineDirty | lineFlushing
	c.setFlushable(i, false)
	c.valid--
	c.stats.Invalidations++
}

// Invalidate drops every cached block covered by e.
func (c *Cache) Invalidate(e block.Extent) {
	first, last := c.blocksOf(e)
	for b := first; b <= last; b++ {
		c.invalidate(b)
	}
}

// NoteBypass records a balancer-initiated bypass for accounting.
func (c *Cache) NoteBypass(op block.Op) {
	if op == block.Read {
		c.stats.BypassedReads++
	} else {
		c.stats.BypassedWr++
	}
}

// DirtyBlock identifies a dirty line picked for background flushing.
type DirtyBlock struct {
	Block int64
	Epoch uint64
}

// CollectDirty picks up to max dirty, non-flushing lines in line-index
// order, marks them flushing and appends them to dst, returning the
// extended slice; a caller that passes the previous round's buffer
// resliced to zero collects without allocating. It walks the flushable
// bitmap a word at a time, so clean and in-flight lines cost a bit each.
// The engine issues an SSD read (Evict) + HDD write (Writeback) per block
// and calls MarkClean when the writeback completes.
func (c *Cache) CollectDirty(dst []DirtyBlock, max int) []DirtyBlock {
	c.mustLive()
	if max <= 0 || c.dirty == 0 {
		return dst
	}
	n := 0
	for w, word := range c.flushable {
		for word != 0 {
			i := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			c.flushable[w] = word
			m := &c.meta[i]
			m.state |= lineFlushing
			c.stats.FlushesStarted++
			dst = append(dst, DirtyBlock{Block: c.tags[i], Epoch: m.epoch()})
			if n++; n == max {
				return dst
			}
		}
	}
	return dst
}

// MarkClean completes a flush: the line becomes clean unless it was
// rewritten (epoch advanced) or replaced since CollectDirty.
func (c *Cache) MarkClean(blockNum int64, epoch uint64) {
	i := c.find(blockNum)
	if i < 0 || c.meta[i].epoch() != epoch {
		return
	}
	m := &c.meta[i]
	if m.dirty() {
		c.dirty--
		c.stats.Flushed++
	}
	m.state &^= lineDirty | lineFlushing
	c.setFlushable(i, false)
}

// NeedsFlush reports whether the dirty ratio exceeds the high watermark.
func (c *Cache) NeedsFlush() bool {
	return c.DirtyRatio() > c.cfg.DirtyHighWatermark
}

// FlushSatisfied reports whether the dirty ratio is below the low
// watermark (the flusher's stop condition).
func (c *Cache) FlushSatisfied() bool {
	return c.DirtyRatio() < c.cfg.DirtyLowWatermark
}

// ExtractClean removes blockNum's line for migration to another cache,
// reporting whether a line actually left. Only resident, clean,
// non-flushing lines are extractable: dirty (or mid-flush) lines hold the
// newest copy of their data, and migration moves metadata only, so they
// must stay until written back. Unlike invalidation this is not an
// accounting event on the Invalidations counter — migrations have their
// own MigratedOut stat.
func (c *Cache) ExtractClean(blockNum int64) bool {
	i := c.find(blockNum)
	if i < 0 {
		return false
	}
	m := &c.meta[i]
	if m.dirty() || m.flushing() {
		return false
	}
	c.tags[i] = -1
	m.state = 0
	c.valid--
	c.stats.MigratedOut++
	return true
}

// InsertClean installs blockNum as a valid clean line — the receiving end
// of a migration — and returns the victims evicted to make room (dirty
// victims need their writebacks issued, exactly as for Access). Inserting
// an already-resident block changes nothing and evicts nobody, but still
// counts on MigratedIn: the arrival happened, so summed MigratedIn always
// reconciles with the senders' summed MigratedOut. The returned slice
// aliases the cache's scratch buffer and is valid only until the next
// Access/Prewarm/InsertClean call.
func (c *Cache) InsertClean(blockNum int64) []Victim {
	if c.find(blockNum) >= 0 {
		c.stats.MigratedIn++
		return nil
	}
	c.victims = c.victims[:0]
	_, evicted := c.allocate(blockNum)
	c.stats.MigratedIn++
	if !evicted {
		return nil
	}
	return c.victims
}

// Prewarm installs the given blocks as valid and clean without generating
// I/O — the paper's "workload has passed its warm-up interval" assumption.
func (c *Cache) Prewarm(blocks []int64) {
	c.mustLive()
	c.victims = c.victims[:0]
	for _, b := range blocks {
		c.allocate(b)
	}
}

// CheckInvariants validates internal consistency; tests call it after
// random operation sequences. It returns nil when consistent.
func (c *Cache) CheckInvariants() error {
	c.mustLive()
	valid, dirty := 0, 0
	seen := make(map[int64]bool)
	for i, tag := range c.tags {
		s := i / c.ways
		m := &c.meta[i]
		if want := tag >= 0 && m.dirty() && !m.flushing(); c.isFlushable(i) != want {
			return fmt.Errorf("line %d in set %d: flushable bit is %v, line state says %v", i, s, !want, want)
		}
		if m.flushing() && !m.dirty() {
			return fmt.Errorf("line %d in set %d is flushing but clean", i, s)
		}
		if tag == -1 {
			if m.dirty() || m.flushing() {
				return fmt.Errorf("invalid line with dirty/flushing state in set %d", s)
			}
			continue
		}
		if seen[tag] {
			return fmt.Errorf("block %d cached twice", tag)
		}
		seen[tag] = true
		if want := tag % int64(c.cfg.Sets); want != int64(s) {
			return fmt.Errorf("block %d in wrong set %d (want %d)", tag, s, want)
		}
		valid++
		if m.dirty() {
			dirty++
		}
	}
	if valid != c.valid {
		return fmt.Errorf("valid count %d != tracked %d", valid, c.valid)
	}
	if dirty != c.dirty {
		return fmt.Errorf("dirty count %d != tracked %d", dirty, c.dirty)
	}
	if dirty > valid {
		return fmt.Errorf("dirty %d exceeds valid %d", dirty, valid)
	}
	return nil
}
