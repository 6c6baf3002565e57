package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"lbica/internal/block"
	"lbica/internal/ckpt"
)

// refCollect is the linear scan CollectDirty ran before the flushable
// bitmap: the first max lines in index order whose tag is non-negative and
// that are dirty and not flushing. It reads the lines and changes nothing.
func refCollect(c *Cache, max int) []DirtyBlock {
	var out []DirtyBlock
	if max <= 0 || c.dirty == 0 {
		return out
	}
	for i, tag := range c.tags {
		if m := &c.meta[i]; tag >= 0 && m.dirty() && !m.flushing() {
			out = append(out, DirtyBlock{Block: tag, Epoch: m.epoch()})
			if len(out) == max {
				break
			}
		}
	}
	return out
}

// opGeometries are the caches an op sequence runs on: one partial bitmap
// word, two whole words, and a set count that is no power of two over a
// partial last word.
var opGeometries = [][2]int{{8, 4}, {16, 8}, {12, 7}}

// cacheOps replays the op sequence ops encodes on a new cache and fails
// the test at the first CollectDirty that differs from refCollect, the
// first broken invariant (the flushable bitmap included) or a codec round
// trip that changes the state. The first byte picks the geometry and the
// replacement policy; after it each op is two bytes, the operation and its
// argument.
func cacheOps(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) == 0 {
		return
	}
	g := opGeometries[int(ops[0])%len(opGeometries)]
	cfg := Config{BlockSectors: 8, Sets: g[0], Ways: g[1],
		Replacement: Replacement(int(ops[0]/3) % 3), ReplacementSeed: 7}
	c := New(cfg)
	defer func() { c.Release() }()
	blocks := 4 * int64(c.Capacity())
	var inflight []DirtyBlock
	var buf []DirtyBlock
	for i := 1; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		blk := int64(arg) % blocks
		switch op % 13 {
		case 0:
			c.SetPolicy(Policy(int(arg) % NumPolicies))
		case 1, 2:
			c.Access(block.Read, ext(blk*8, 8*int64(1+op/13%3)), 0)
		case 3, 4:
			c.Access(block.Write, ext(blk*8, 8*int64(1+op/13%3)), 0)
		case 5:
			c.Invalidate(ext(blk*8, 8*int64(1+op/13%2)))
		case 6:
			n := int(arg % 10) // 0 collects nothing
			want := refCollect(c, n)
			buf = c.CollectDirty(buf[:0], n)
			if !slices.Equal(buf, want) {
				t.Fatalf("op %d: CollectDirty(%d) = %v, linear scan %v", i/2, n, buf, want)
			}
			inflight = append(inflight, buf...)
		case 7:
			// Complete a flush: its epoch is current unless the line
			// was rewritten, replaced or dropped since.
			if len(inflight) > 0 {
				k := int(arg) % len(inflight)
				db := inflight[k]
				inflight = slices.Delete(inflight, k, k+1)
				c.MarkClean(db.Block, db.Epoch)
			}
		case 8:
			// A completion whose epoch is off by one either way, or
			// current for a line no flush picked.
			if j := c.find(blk); j >= 0 {
				c.MarkClean(blk, c.meta[j].epoch()+uint64(op/13%3)-1)
			}
		case 9:
			c.ExtractClean(blk)
		case 10:
			c.InsertClean(blk)
		case 11:
			hot := make([]int64, 1+op/13%8)
			for j := range hot {
				hot[j] = (blk + int64(j)*int64(cfg.Sets)) % blocks
			}
			c.Prewarm(hot)
		case 12:
			payload := encodeCache(c)
			if op/13%2 == 0 {
				// Encode → decode into a new cache; the old one
				// releases its lines after.
				r, err := decodeCache(cfg, payload)
				if err != nil {
					t.Fatalf("op %d: decode: %v", i/2, err)
				}
				if !slices.Equal(r.flushable, c.flushable) {
					t.Fatalf("op %d: decoded flushable bitmap %x, encoded cache's %x", i/2, r.flushable, c.flushable)
				}
				c.Release()
				c = r
			} else {
				// Release → New: an empty cache on the same lines,
				// while the old flushes are still in flight.
				c.Release()
				c = New(cfg)
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("op %d (%d, %d): %v", i/2, op%13, arg, err)
		}
	}
	payload := encodeCache(c)
	if r, err := decodeCache(cfg, payload); err != nil || !bytes.Equal(encodeCache(r), payload) {
		t.Fatalf("final state does not round-trip through the codec (decode error %v)", err)
	}
}

// decodeCache decodes a cache payload into a new cache of geometry cfg.
func decodeCache(cfg Config, payload []byte) (*Cache, error) {
	r := New(cfg)
	d := ckpt.NewDecoder(payload)
	r.DecodeState(d)
	return r, d.Err()
}

// randomOps returns a random op sequence for cacheOps.
func randomOps(r *rand.Rand, n int) []byte {
	ops := make([]byte, 1+2*n)
	r.Read(ops)
	return ops
}

// TestCollectDirtyMatchesLinearScan: over random op sequences on every
// geometry, replacement and write policy, each flush batch the bitmap
// walk picks equals the linear scan's, block for block and epoch for
// epoch, and the bitmap matches the line state after every op.
func TestCollectDirtyMatchesLinearScan(t *testing.T) {
	seqs, steps := 90, 3000
	if testing.Short() {
		seqs = 18
	}
	for seed := int64(0); seed < int64(seqs); seed++ {
		ops := randomOps(rand.New(rand.NewSource(seed)), steps)
		ops[0] = byte(seed) // every geometry × replacement pair
		cacheOps(t, ops)
	}
}

// FuzzCacheOps drives cacheOps with arbitrary op sequences. The seed
// corpus in testdata/fuzz holds random sequences on each geometry, flush
// batches that straddle bitmap words, flushes in flight across a codec
// round trip and across Release → New, and through-writes over dirty
// lines.
func FuzzCacheOps(f *testing.F) {
	f.Fuzz(cacheOps)
}

// TestGenCacheOpsCorpus regenerates the committed FuzzCacheOps corpus.
func TestGenCacheOpsCorpus(t *testing.T) {
	if os.Getenv("GEN_CORPUS") == "" {
		t.Skip("set GEN_CORPUS=1 to regenerate")
	}
	corpus := map[string][]byte{}
	for g, name := range []string{"random-8x4-lru", "random-16x8-fifo", "random-12x7-rand"} {
		ops := randomOps(rand.New(rand.NewSource(int64(100+g))), 400)
		ops[0] = byte(4 * g) // geometry g, replacement g
		corpus[name] = ops
	}
	// 16×8 WB cache: dirty every line, then collect batches of 9, which
	// cross the word boundary at line 64, completing every other one.
	straddle := []byte{1}
	for b := range 128 {
		straddle = append(straddle, 3, byte(b))
	}
	for range 14 {
		straddle = append(straddle, 6, 9, 7, 0)
	}
	corpus["straddle-words"] = straddle
	// Flushes in flight across an encode → decode, then across a
	// Release → New, then their completions.
	inflight := []byte{2}
	for b := range 40 {
		inflight = append(inflight, 3, byte(3*b))
	}
	inflight = append(inflight, 6, 5, 12, 0, 7, 1, 6, 4, 25, 0, 7, 0, 7, 2, 3, 9, 6, 9)
	corpus["inflight-codec-release"] = inflight
	// WB writes, then WT through-writes over two of the dirty lines.
	corpus["writethrough-over-dirty"] = []byte{0, 3, 1, 3, 2, 3, 3, 0, 1, 3, 2, 16, 3, 6, 9}

	dir := filepath.Join("testdata", "fuzz", "FuzzCacheOps")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, ops := range corpus {
		cacheOps(t, ops)
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", ops)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// corruptPayloads encodes c once per edit, each edit applied to a copy of
// c decoded from its own payload: the encoder writes whatever the lines and
// counters hold, so an edit to the state is an edit to the wire.
func corruptPayloads(t *testing.T, c *Cache, edits map[string]func(*Cache)) map[string][]byte {
	t.Helper()
	payload := encodeCache(c)
	out := make(map[string][]byte, len(edits))
	for name, edit := range edits {
		d, err := decodeCache(c.cfg, payload)
		if err != nil {
			t.Fatalf("intact payload: %v", err)
		}
		edit(d)
		out[name] = encodeCache(d)
	}
	return out
}

// TestDecodeRejectsCorruptOccupancy: a cache payload whose valid or dirty
// counter disagrees with its lines, or whose free line carries a dirty or
// flushing flag, does not decode. A wrong dirty count would steer
// NeedsFlush and CollectDirty's early exit off the lines.
func TestDecodeRejectsCorruptOccupancy(t *testing.T) {
	c := small()
	for i := int64(0); i < 10; i++ {
		c.Access(block.Write, ext(i*8, 8), 0)
	}
	c.Prewarm([]int64{40, 41, 42})
	c.CollectDirty(nil, 3)
	free := slices.Index(c.tags, -1)
	clean := slices.Index(c.tags, 40)
	bad := corruptPayloads(t, c, map[string]func(*Cache){
		"dirty counter one high": func(d *Cache) { d.dirty++ },
		"dirty counter one low":  func(d *Cache) { d.dirty-- },
		"dirty counter zero":     func(d *Cache) { d.dirty = 0 },
		"valid counter one high": func(d *Cache) { d.valid++ },
		"valid counter one low":  func(d *Cache) { d.valid-- },
		"free line dirty":        func(d *Cache) { d.meta[free].state |= lineDirty },
		"free line flushing":     func(d *Cache) { d.meta[free].state |= lineFlushing },
		"clean line flushing":    func(d *Cache) { d.meta[clean].state |= lineFlushing },
	})
	for name, b := range bad {
		if _, err := decodeCache(c.cfg, b); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// TestDecodeRejectsMisplacedLines: a payload that puts a block in a line
// of another set, or caches one block twice in its set, must fail to
// decode. Either cache would pass the occupancy counters, but find would
// miss the misplaced block, and the duplicate would count twice. Each edit
// keeps the counters right, so only the placement check can refuse it.
func TestDecodeRejectsMisplacedLines(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{{16, 4}, {12, 4}} { // 12 sets: no set mask
		c := New(Config{BlockSectors: 8, Sets: g.sets, Ways: g.ways})
		for b := int64(0); b < int64(3*g.sets); b++ {
			c.Access(block.Write, c.BlockExtent(b), 0)
		}
		set1 := c.setBase(1)
		bad := corruptPayloads(t, c, map[string]func(*Cache){
			// Block 1 moves to the line of block 2's set that held block 2.
			"block in another set": func(d *Cache) { d.tags[d.find(2)] = 1 },
			// The second way of block 1's set takes the first way's block.
			"block twice in a set": func(d *Cache) { d.tags[set1+1] = d.tags[set1] },
		})
		for name, b := range bad {
			_, err := decodeCache(c.cfg, b)
			if err == nil || !strings.Contains(err.Error(), "set") {
				t.Errorf("%dx%d %s: err %v, want a placement error", g.sets, g.ways, name, err)
			}
		}
	}
}
