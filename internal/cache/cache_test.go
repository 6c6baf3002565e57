package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lbica/internal/block"
)

func small() *Cache {
	return New(Config{BlockSectors: 8, Sets: 16, Ways: 4})
}

func ext(lba, sectors int64) block.Extent { return block.Extent{LBA: lba, Sectors: sectors} }

func TestPolicyParseAndString(t *testing.T) {
	for _, p := range []Policy{WB, WT, RO, WO, WTWO} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round-trip %v failed: %v %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("unknown policy must error")
	}
	if p, err := ParsePolicy("wb"); err != nil || p != WB {
		t.Error("parse must be case-insensitive")
	}
}

// TestAccessActionSets pins the exact action set Access returns for every
// policy, direction and residency of a two-block request: all blocks
// cached (hit), one (partial) or none (miss).
func TestAccessActionSets(t *testing.T) {
	type residency int
	const (
		miss residency = iota
		partial
		hit
	)
	readMiss := map[Policy]Action{WB: DiskRead | Promote, WT: DiskRead | Promote, RO: DiskRead | Promote, WO: DiskRead, WTWO: DiskRead}
	writeLegs := map[Policy]Action{WB: CacheWrite, WT: CacheWrite | DiskWrite, RO: DiskWrite, WO: CacheWrite, WTWO: CacheWrite | DiskWrite}
	for _, p := range []Policy{WB, WT, RO, WO, WTWO} {
		for _, op := range []block.Op{block.Read, block.Write} {
			for _, res := range []residency{miss, partial, hit} {
				var want Action
				switch {
				case op == block.Read && res == hit:
					want = Hit | CacheRead
				case op == block.Read:
					want = readMiss[p]
				case res == hit:
					want = Hit | writeLegs[p]
				default:
					want = writeLegs[p]
				}
				c := small()
				c.Prewarm([]int64{0, 1}[:res])
				c.SetPolicy(p)
				d := c.Access(op, ext(0, 16), 0)
				if d.Action != want || d.Victims != nil {
					t.Errorf("%v %v over %d of 2 cached blocks = %v, victims %v; want %v, none", p, op, res, d.Action, d.Victims, want)
				}
				for _, x := range []Action{Hit, CacheRead, DiskRead, CacheWrite, DiskWrite, Promote} {
					if d.Action.Has(x) != (want&x != 0) {
						t.Errorf("%v %v over %d of 2 cached blocks: Has(%v) = %v", p, op, res, x, d.Action.Has(x))
					}
				}
			}
		}
	}
	if got := (CacheWrite | DiskWrite).String(); got != "CacheWrite|DiskWrite" {
		t.Errorf("action set renders as %q", got)
	}
	if !(CacheWrite | DiskWrite).Has(CacheWrite|DiskWrite) || CacheWrite.Has(CacheWrite|DiskWrite) {
		t.Error("Has must require every action of its argument")
	}
}

func TestReadMissPromotesUnderWB(t *testing.T) {
	c := small()
	d := c.Access(block.Read, ext(0, 8), 0)
	if d.Action.Has(Hit) || !d.Action.Has(DiskRead) || !d.Action.Has(Promote) || d.Action.Has(CacheRead) {
		t.Fatalf("first read decision = %+v", d)
	}
	// Second read of the same block is a hit served from cache.
	d = c.Access(block.Read, ext(0, 8), 0)
	if !d.Action.Has(Hit) || !d.Action.Has(CacheRead) || d.Action.Has(DiskRead) || d.Action.Has(Promote) {
		t.Fatalf("re-read decision = %+v", d)
	}
	st := c.Stats()
	if st.ReadMisses != 1 || st.ReadHits != 1 || st.Promotes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWOSuppressesPromote(t *testing.T) {
	c := small()
	c.SetPolicy(WO)
	d := c.Access(block.Read, ext(0, 8), 0)
	if d.Action.Has(Promote) || !d.Action.Has(DiskRead) {
		t.Fatalf("WO read-miss decision = %+v", d)
	}
	if c.Contains(0) {
		t.Error("WO must not allocate on read miss")
	}
	// But a cached block still hits.
	c.Access(block.Write, ext(0, 8), 0) // WO writes allocate dirty
	d = c.Access(block.Read, ext(0, 8), 0)
	if !d.Action.Has(Hit) || !d.Action.Has(CacheRead) {
		t.Fatalf("WO hit decision = %+v", d)
	}
}

func TestWBWriteBuffersDirty(t *testing.T) {
	c := small()
	d := c.Access(block.Write, ext(0, 8), 0)
	if !d.Action.Has(CacheWrite) || d.Action.Has(DiskWrite) {
		t.Fatalf("WB write decision = %+v", d)
	}
	if c.DirtyCount() != 1 {
		t.Errorf("dirty = %d", c.DirtyCount())
	}
}

func TestWTWritesThroughClean(t *testing.T) {
	c := small()
	c.SetPolicy(WT)
	d := c.Access(block.Write, ext(0, 8), 0)
	if !d.Action.Has(CacheWrite) || !d.Action.Has(DiskWrite) {
		t.Fatalf("WT write decision = %+v", d)
	}
	if c.DirtyCount() != 0 {
		t.Errorf("WT left dirty blocks: %d", c.DirtyCount())
	}
	if !c.Contains(0) {
		t.Error("WT write must allocate")
	}
}

func TestWTCleansPreviouslyDirtyLine(t *testing.T) {
	c := small()
	c.Access(block.Write, ext(0, 8), 0) // WB dirty
	if c.DirtyCount() != 1 {
		t.Fatal("setup failed")
	}
	c.SetPolicy(WT)
	c.Access(block.Write, ext(0, 8), 0)
	if c.DirtyCount() != 0 {
		t.Errorf("through-write did not clean the line: dirty=%d", c.DirtyCount())
	}
}

func TestROWriteBypassesAndInvalidates(t *testing.T) {
	c := small()
	c.Access(block.Read, ext(0, 8), 0) // promote block 0
	if !c.Contains(0) {
		t.Fatal("setup failed")
	}
	c.SetPolicy(RO)
	d := c.Access(block.Write, ext(0, 8), 0)
	if d.Action.Has(CacheWrite) || !d.Action.Has(DiskWrite) {
		t.Fatalf("RO write decision = %+v", d)
	}
	if c.Contains(0) {
		t.Error("RO write must invalidate the cached copy")
	}
	if c.Stats().Invalidations != 1 {
		t.Errorf("invalidations = %d", c.Stats().Invalidations)
	}
	// RO read misses still promote.
	d = c.Access(block.Read, ext(64, 8), 0)
	if !d.Action.Has(Promote) {
		t.Error("RO read miss must promote")
	}
}

func TestWTWOSemantics(t *testing.T) {
	c := small()
	c.SetPolicy(WTWO)
	// Reads never allocate.
	d := c.Access(block.Read, ext(0, 8), 0)
	if d.Action.Has(Promote) || c.Contains(0) {
		t.Fatal("WTWO read miss must not promote")
	}
	// Writes allocate clean and write through.
	d = c.Access(block.Write, ext(0, 8), 0)
	if !d.Action.Has(CacheWrite) || !d.Action.Has(DiskWrite) {
		t.Fatalf("WTWO write decision = %+v", d)
	}
	if c.DirtyCount() != 0 {
		t.Error("WTWO writes must stay clean")
	}
	// Read-after-write hits in cache (SIB's one performance win).
	d = c.Access(block.Read, ext(0, 8), 0)
	if !d.Action.Has(Hit) || !d.Action.Has(CacheRead) {
		t.Fatalf("WTWO read-after-write = %+v", d)
	}
}

func TestEvictionLRUAndDirtyVictim(t *testing.T) {
	c := New(Config{BlockSectors: 8, Sets: 1, Ways: 2})
	c.Access(block.Write, ext(0, 8), 0)       // block 0 dirty
	c.Access(block.Write, ext(8, 8), 0)       // block 1 dirty
	c.Access(block.Read, ext(0, 8), 0)        // touch block 0 → block 1 is LRU
	d := c.Access(block.Write, ext(16, 8), 0) // block 2 → evict block 1
	if len(d.Victims) != 1 {
		t.Fatalf("victims = %v", d.Victims)
	}
	v := d.Victims[0]
	if v.Block != 1 || !v.Dirty {
		t.Errorf("victim = %+v, want dirty block 1", v)
	}
	if c.Contains(1) {
		t.Error("evicted block still cached")
	}
	if c.Stats().DirtyEvicts != 1 {
		t.Errorf("dirty evicts = %d", c.Stats().DirtyEvicts)
	}
}

func TestCleanEvictionCostsNoWriteback(t *testing.T) {
	c := New(Config{BlockSectors: 8, Sets: 1, Ways: 1})
	c.Access(block.Read, ext(0, 8), 0) // clean promote
	d := c.Access(block.Read, ext(8, 8), 0)
	if len(d.Victims) != 1 || d.Victims[0].Dirty {
		t.Fatalf("victims = %v, want one clean victim", d.Victims)
	}
}

func TestMultiBlockRequest(t *testing.T) {
	c := small()
	// 32 KiB request covers 8 cache blocks.
	d := c.Access(block.Write, ext(0, 64), 0)
	if !d.Action.Has(CacheWrite) {
		t.Fatal("multi-block write not buffered")
	}
	if c.DirtyCount() != 8 {
		t.Errorf("dirty = %d, want 8", c.DirtyCount())
	}
	// Partially cached read is a miss.
	c2 := small()
	c2.Access(block.Read, ext(0, 8), 0)
	d = c2.Access(block.Read, ext(0, 16), 0)
	if d.Action.Has(Hit) {
		t.Error("partially cached read must miss")
	}
}

func TestFlusherLifecycle(t *testing.T) {
	c := New(Config{BlockSectors: 8, Sets: 4, Ways: 4, DirtyHighWatermark: 0.3, DirtyLowWatermark: 0.1})
	for i := int64(0); i < 8; i++ {
		c.Access(block.Write, ext(i*8, 8), 0)
	}
	if !c.NeedsFlush() {
		t.Fatalf("dirty ratio %.2f should exceed high watermark", c.DirtyRatio())
	}
	batch := c.CollectDirty(nil, 4)
	if len(batch) != 4 {
		t.Fatalf("collected %d, want 4", len(batch))
	}
	// Collecting again must not return the same (now flushing) blocks.
	again := c.CollectDirty(nil, 100)
	for _, a := range again {
		for _, b := range batch {
			if a.Block == b.Block {
				t.Fatalf("block %d collected twice", a.Block)
			}
		}
	}
	for _, b := range batch {
		c.MarkClean(b.Block, b.Epoch)
	}
	if c.DirtyCount() != 4 {
		t.Errorf("dirty after flush = %d, want 4", c.DirtyCount())
	}
	if got := c.Stats().Flushed; got != 4 {
		t.Errorf("flushed = %d", got)
	}
}

func TestMarkCleanRespectsRewriteEpoch(t *testing.T) {
	c := small()
	c.Access(block.Write, ext(0, 8), 0)
	batch := c.CollectDirty(nil, 1)
	if len(batch) != 1 {
		t.Fatal("collect failed")
	}
	// Rewrite while flush is in flight: the line must stay dirty.
	c.Access(block.Write, ext(0, 8), 0)
	c.MarkClean(batch[0].Block, batch[0].Epoch)
	if c.DirtyCount() != 1 {
		t.Error("stale MarkClean cleaned a rewritten line")
	}
}

func TestMarkCleanOnEvictedLineIsNoop(t *testing.T) {
	c := New(Config{BlockSectors: 8, Sets: 1, Ways: 1})
	c.Access(block.Write, ext(0, 8), 0)
	batch := c.CollectDirty(nil, 1)
	c.Access(block.Write, ext(8, 8), 0) // evicts block 0
	c.MarkClean(batch[0].Block, batch[0].Epoch)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrewarm(t *testing.T) {
	c := small()
	c.Prewarm([]int64{0, 1, 2, 3})
	if c.ValidCount() != 4 || c.DirtyCount() != 0 {
		t.Fatalf("prewarm valid=%d dirty=%d", c.ValidCount(), c.DirtyCount())
	}
	d := c.Access(block.Read, ext(0, 8), 0)
	if !d.Action.Has(Hit) {
		t.Error("prewarmed block must hit")
	}
}

func TestInvalidateExtent(t *testing.T) {
	c := small()
	c.Prewarm([]int64{0, 1, 2})
	c.Invalidate(ext(0, 16)) // blocks 0 and 1
	if c.Contains(0) || c.Contains(1) || !c.Contains(2) {
		t.Error("extent invalidation wrong")
	}
}

func TestHitRatio(t *testing.T) {
	c := small()
	c.Access(block.Read, ext(0, 8), 0)   // miss
	c.Access(block.Read, ext(0, 8), 0)   // hit
	c.Access(block.Write, ext(0, 8), 0)  // write hit
	c.Access(block.Write, ext(64, 8), 0) // write miss
	if got := c.Stats().HitRatio(); got != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", got)
	}
}

func TestPolicySwitchCounting(t *testing.T) {
	c := small()
	c.SetPolicy(WO)
	c.SetPolicy(WO) // no-op
	c.SetPolicy(WB)
	if got := c.Stats().PolicySwitches; got != 2 {
		t.Errorf("policy switches = %d, want 2", got)
	}
}

// Property: after any random op sequence across policies, metadata
// invariants hold (no duplicate tags, dirty ⊆ valid, counters exact).
func TestInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New(Config{BlockSectors: 8, Sets: 8, Ways: 2})
		policies := []Policy{WB, WT, RO, WO, WTWO}
		var inflight []DirtyBlock
		for i := 0; i < 500; i++ {
			switch r.Intn(12) {
			case 0:
				c.SetPolicy(policies[r.Intn(len(policies))])
			case 1:
				inflight = append(inflight, c.CollectDirty(nil, 1+r.Intn(3))...)
			case 2:
				if len(inflight) > 0 {
					b := inflight[0]
					inflight = inflight[1:]
					c.MarkClean(b.Block, b.Epoch)
				}
			case 3:
				c.Invalidate(ext(int64(r.Intn(64))*8, 8))
			default:
				op := block.Read
				if r.Intn(2) == 0 {
					op = block.Write
				}
				c.Access(op, ext(int64(r.Intn(64))*8, 8*int64(1+r.Intn(3))), 0)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Logf("seed %d step %d: %v", seed, i, err)
				return false
			}
			if c.ValidCount() > c.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: a victim returned by Access is never still cached, and the
// evicting block is.
func TestEvictionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New(Config{BlockSectors: 8, Sets: 2, Ways: 2})
		for i := 0; i < 200; i++ {
			blk := int64(r.Intn(32))
			d := c.Access(block.Write, ext(blk*8, 8), 0)
			for _, v := range d.Victims {
				if c.Contains(v.Block) {
					return false
				}
			}
			if !c.Contains(blk) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := New(DefaultConfig())
	c.Prewarm([]int64{42})
	e := ext(42*8, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(block.Read, e, 0)
	}
}
