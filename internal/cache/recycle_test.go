package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"lbica/internal/block"
	"lbica/internal/ckpt"
)

// resetFreeLines empties the free list, so the next New allocates unless a
// test releases a cache first.
func resetFreeLines() {
	freeLines.Lock()
	freeLines.l = nil
	freeLines.Unlock()
}

// lockstep applies one random operation sequence to two caches and fails
// the test at the first observable difference: a Decision, a flush batch,
// an extraction, an insertion's victims, or an invariant violation.
type lockstep struct {
	t          *testing.T
	a, b       *Cache
	bufA, bufB []DirtyBlock
	inflight   []DirtyBlock
}

func (l *lockstep) same(step int, what string, x, y any) {
	l.t.Helper()
	if !reflect.DeepEqual(x, y) {
		l.t.Fatalf("step %d: %s differs: fresh %+v, recycled %+v", step, what, x, y)
	}
}

func (l *lockstep) run(r *rand.Rand, steps int, blocks int64) {
	policies := []Policy{WB, WT, RO, WO, WTWO}
	for i := 0; i < steps; i++ {
		blk := r.Int63n(blocks)
		switch r.Intn(16) {
		case 0:
			p := policies[r.Intn(len(policies))]
			l.a.SetPolicy(p)
			l.b.SetPolicy(p)
		case 1, 2:
			n := 1 + r.Intn(6)
			l.bufA = l.a.CollectDirty(l.bufA[:0], n)
			l.bufB = l.b.CollectDirty(l.bufB[:0], n)
			l.same(i, "flush batch", l.bufA, l.bufB)
			l.inflight = append(l.inflight, l.bufA...)
		case 3, 4:
			if len(l.inflight) > 0 {
				k := r.Intn(len(l.inflight))
				db := l.inflight[k]
				l.inflight = append(l.inflight[:k], l.inflight[k+1:]...)
				l.a.MarkClean(db.Block, db.Epoch)
				l.b.MarkClean(db.Block, db.Epoch)
			}
		case 5:
			l.same(i, "ExtractClean", l.a.ExtractClean(blk), l.b.ExtractClean(blk))
		case 6:
			l.same(i, "InsertClean victims", l.a.InsertClean(blk), l.b.InsertClean(blk))
		case 7:
			hot := make([]int64, r.Intn(12))
			for j := range hot {
				hot[j] = r.Int63n(blocks)
			}
			l.a.Prewarm(hot)
			l.b.Prewarm(hot)
		case 8:
			e := ext(blk*8, 8*(1+r.Int63n(3)))
			l.a.Invalidate(e)
			l.b.Invalidate(e)
		default:
			op := block.Read
			if r.Intn(2) == 0 {
				op = block.Write
			}
			e := ext(blk*8, 8*(1+r.Int63n(3)))
			l.same(i, "Decision", l.a.Access(op, e, 0), l.b.Access(op, e, 0))
		}
	}
	if err := l.a.CheckInvariants(); err != nil {
		l.t.Fatalf("fresh cache: %v", err)
	}
	if err := l.b.CheckInvariants(); err != nil {
		l.t.Fatalf("recycled cache: %v", err)
	}
}

func encodeCache(c *Cache) []byte {
	enc := ckpt.NewEncoder(0)
	c.EncodeState(enc)
	return enc.Data()
}

// TestRecycleDifferential: a cache built on the line arrays a dirty cache
// released behaves exactly like a freshly allocated one. The donor has the
// same line count but another geometry, so a reset that missed a line, or
// kept a tag, an epoch, a flushing flag or a replacement tick, would show
// in some Decision, flush batch or the final encoded state.
func TestRecycleDifferential(t *testing.T) {
	for _, g := range []struct{ donor, target [2]int }{
		{donor: [2]int{16, 4}, target: [2]int{8, 8}},
		{donor: [2]int{8, 6}, target: [2]int{12, 4}}, // 12 sets: no set mask
	} {
		for _, repl := range []Replacement{LRU, FIFO, Random} {
			name := fmt.Sprintf("%dx%d-from-%dx%d/%v", g.target[0], g.target[1], g.donor[0], g.donor[1], repl)
			t.Run(name, func(t *testing.T) {
				resetFreeLines()
				cfg := Config{BlockSectors: 8, Sets: g.target[0], Ways: g.target[1], Replacement: repl, ReplacementSeed: 5}
				fresh := New(cfg)

				donorCfg := cfg
				donorCfg.Sets, donorCfg.Ways = g.donor[0], g.donor[1]
				donor := New(donorCfg)
				warm := &lockstep{t: t, a: donor, b: New(donorCfg)}
				warm.run(rand.New(rand.NewSource(1)), 600, 4*int64(donor.Capacity()))
				if donor.DirtyCount() == 0 {
					t.Fatal("donor released no dirty lines")
				}
				donor.CollectDirty(nil, 4) // and some lines mid-flush
				tags, meta := donor.tags, donor.meta
				donor.Release()
				recycled := New(cfg)
				if &recycled.tags[0] != &tags[0] || &recycled.meta[0] != &meta[0] {
					t.Fatal("New did not reuse the released line arrays")
				}

				if !bytes.Equal(encodeCache(fresh), encodeCache(recycled)) {
					t.Fatal("a recycled cache starts in another state than a fresh one")
				}
				l := &lockstep{t: t, a: fresh, b: recycled}
				l.run(rand.New(rand.NewSource(2)), 3000, 4*int64(fresh.Capacity()))
				if !bytes.Equal(encodeCache(fresh), encodeCache(recycled)) {
					t.Fatal("final encoded state differs between fresh and recycled caches")
				}
			})
		}
	}
}

// TestRecycleAllocBudget: building a default-geometry cache right after
// releasing one reuses its 2 MiB of line arrays. The test holds the
// released pair, so no GC can free it first.
func TestRecycleAllocBudget(t *testing.T) {
	resetFreeLines()
	c := New(DefaultConfig())
	tags, meta := c.tags, c.meta
	c.Release()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := New(DefaultConfig())
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 512<<10 {
		t.Errorf("building on released arrays allocated %d bytes, want < 0.5 MiB", got)
	}
	if &n.tags[0] != &tags[0] || &n.meta[0] != &meta[0] {
		t.Error("New did not reuse the released line arrays")
	}
}

// TestRecycleUseAfterRelease: a released cache fails loudly on every use,
// and a second Release hands nothing over, so two builds never share one
// pair of arrays.
func TestRecycleUseAfterRelease(t *testing.T) {
	resetFreeLines()
	cfg := Config{BlockSectors: 8, Sets: 4, Ways: 2}
	c := New(cfg)
	c.Access(block.Write, ext(0, 8), 0)
	payload := encodeCache(c)
	tags := c.tags
	c.Release()
	c.Release()
	for name, use := range map[string]func(){
		"read":            func() { c.Access(block.Read, ext(0, 8), 0) },
		"write":           func() { c.Access(block.Write, ext(8, 8), 0) },
		"Contains":        func() { c.Contains(0) },
		"DirtyIn":         func() { c.DirtyIn(ext(0, 8)) },
		"Invalidate":      func() { c.Invalidate(ext(0, 8)) },
		"MarkClean":       func() { c.MarkClean(0, 1) },
		"ExtractClean":    func() { c.ExtractClean(0) },
		"InsertClean":     func() { c.InsertClean(3) },
		"Prewarm":         func() { c.Prewarm(nil) },
		"CollectDirty":    func() { c.CollectDirty(nil, 4) },
		"Stats":           func() { c.Stats() },
		"NeedsFlush":      func() { c.NeedsFlush() },
		"FlushSatisfied":  func() { c.FlushSatisfied() },
		"CheckInvariants": func() { c.CheckInvariants() },
		"EncodeState":     func() { encodeCache(c) },
		"DecodeState":     func() { c.DecodeState(ckpt.NewDecoder(payload)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released cache did not panic", name)
				}
			}()
			use()
		}()
	}
	a, b := New(cfg), New(cfg)
	if &a.tags[0] != &tags[0] {
		t.Error("New did not reuse the released line arrays")
	}
	if &b.tags[0] == &a.tags[0] {
		t.Fatal("a double release handed one pair of line arrays to two caches")
	}
}

// TestRecycleConcurrent: caches built and released from several goroutines
// at once, as parallel array volumes and sweep workers do, never share a
// pair of line arrays, and each starts reset.
func TestRecycleConcurrent(t *testing.T) {
	cfg := Config{BlockSectors: 8, Sets: 16, Ways: 4}
	var wg sync.WaitGroup
	for g := int64(0); g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := New(cfg)
				for j, tag := range c.tags {
					if tag != -1 || c.meta[j] != (lineMeta{}) {
						t.Errorf("line %d of a new cache holds tag %d, state %+v", j, tag, c.meta[j])
						return
					}
					c.tags[j] = g
				}
				runtime.Gosched()
				for _, tag := range c.tags {
					if tag != g {
						t.Errorf("two live caches share line arrays: tag %d in goroutine %d's cache", tag, g)
						return
					}
				}
				c.Release()
			}
		}()
	}
	wg.Wait()
}

// TestCollectDirtyNoAllocs: a flush round that collects into the previous
// round's buffer allocates nothing.
func TestCollectDirtyNoAllocs(t *testing.T) {
	c := New(Config{BlockSectors: 8, Sets: 1024, Ways: 8})
	for i := int64(0); i < 4096; i++ {
		c.Access(block.Write, ext(i*8, 8), 0)
	}
	var buf []DirtyBlock
	allocs := testing.AllocsPerRun(100, func() {
		buf = c.CollectDirty(buf[:0], 16)
		for _, db := range buf {
			c.MarkClean(db.Block, db.Epoch)
		}
	})
	if allocs != 0 {
		t.Errorf("a flush round made %v allocations, want 0", allocs)
	}
	if len(buf) != 16 {
		t.Errorf("last round collected %d blocks, want 16", len(buf))
	}
}
