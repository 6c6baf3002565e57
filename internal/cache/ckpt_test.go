package cache

import (
	"bytes"
	"encoding/binary"
	"slices"
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
	c.Prewarm([]int64{40})              // a clean line
	flushing := c.CollectDirty(nil, 2)

	enc := ckpt.NewEncoder(0)
	c.EncodeState(enc)
	payload := enc.Data()
	clean := c.find(40)
	cleanState := c.meta[clean].state
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

	// The clean line's state word (write epoch × 4 | flags) follows the
	// section marker, the policy byte, the line count, the lines before it
	// (a tag, a state word and two ticks each) and its own tag.
	hdr := ckpt.NewDecoder(payload)
	hdr.Section("cache.Cache")
	hdr.U8()
	hdr.U32()
	for range clean {
		hdr.Varint()
		hdr.Uvarint()
		hdr.Uvarint()
		hdr.Uvarint()
	}
	hdr.Varint()
	off := len(payload) - hdr.Remaining()
	orig := hdr.Uvarint()
	end := len(payload) - hdr.Remaining()
	if hdr.Err() != nil || orig != cleanState {
		t.Fatalf("clean line's state word read as %d (err %v), want %d", orig, hdr.Err(), cleanState)
	}
	withState := func(word []byte) []byte {
		return slices.Concat(payload[:off], word, payload[end:])
	}
	r, err = decode(withState(binary.AppendUvarint(nil, (1<<62-1)*lineEpoch)))
	if err != nil {
		t.Fatalf("largest epoch a line holds: %v", err)
	}
	if got := r.meta[clean].epoch(); got != 1<<62-1 {
		t.Fatalf("largest epoch restored as %d", got)
	}
	// Epoch 2^62 needs a 65th bit: nine continuation bytes, then 0b10. A
	// reader that dropped the high bits, or read the value as zero, would
	// restore a clean line of epoch 0, which the counters agree with.
	beyond := append(bytes.Repeat([]byte{0x80}, 9), 0x02)
	if _, err := decode(withState(beyond)); err == nil {
		t.Fatal("an epoch beyond the line's range decoded")
	}
}
