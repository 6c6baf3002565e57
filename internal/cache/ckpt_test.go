package cache

import (
	"encoding/binary"
	"testing"

	"lbica/internal/block"
	"lbica/internal/ckpt"
)

// A line's dirty and flushing flags share a word with its write epoch, so
// the codec round-trips all three, and a payload whose epoch does not fit
// beside the flags must not decode into a silently truncated one.
func TestCodecLineStateAndEpochRange(t *testing.T) {
	c := small()
	c.SetPolicy(WB)
	for i := int64(0); i < 6; i++ {
		c.Access(block.Write, ext(i*8, 8), 0)
	}
	c.Access(block.Write, ext(0, 8), 0) // epoch 2 on block 0
	flushing := c.CollectDirty(nil, 2)

	enc := ckpt.NewEncoder(0)
	c.EncodeState(enc)
	payload := enc.Data()
	decode := func(b []byte) (*Cache, error) {
		r := small()
		d := ckpt.NewDecoder(b)
		r.DecodeState(d)
		return r, d.Err()
	}
	r, err := decode(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if r.DirtyCount() != c.DirtyCount() || r.ValidCount() != c.ValidCount() {
		t.Fatalf("restored dirty/valid %d/%d, want %d/%d", r.DirtyCount(), r.ValidCount(), c.DirtyCount(), c.ValidCount())
	}
	for i := range c.meta {
		if r.meta[i] != c.meta[i] {
			t.Fatalf("line %d restored as %+v, want %+v", i, r.meta[i], c.meta[i])
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A flush started before the round trip completes after it.
	for _, fb := range flushing {
		r.MarkClean(fb.Block, fb.Epoch)
		c.MarkClean(fb.Block, fb.Epoch)
	}
	if r.DirtyCount() != c.DirtyCount() {
		t.Fatalf("after MarkClean restored dirty %d, original %d", r.DirtyCount(), c.DirtyCount())
	}

	// The first line's epoch follows the section marker, the policy byte,
	// the line count and the tags.
	off := 4 + len("cache.Cache") + 1 + 4 + 8*len(c.tags)
	bad := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint64(bad[off:], 1<<62-1)
	if _, err := decode(bad); err != nil {
		t.Fatalf("largest epoch a line holds: %v", err)
	}
	binary.LittleEndian.PutUint64(bad[off:], 1<<62)
	if _, err := decode(bad); err == nil {
		t.Fatal("an epoch beyond the line's range decoded")
	}
}
