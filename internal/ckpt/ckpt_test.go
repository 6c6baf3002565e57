package ckpt

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// The encoder error is sticky-first: a failure during a deep state walk
// must surface the root cause, not whatever later write happened to
// trip over the broken stream.
func TestEncoderFailfSticky(t *testing.T) {
	e := NewEncoder(0)
	if e.Err() != nil {
		t.Fatalf("fresh encoder carries error %v", e.Err())
	}
	e.Failf("root cause: %d", 1)
	e.Failf("later symptom")
	if e.Err() == nil || e.Err().Error() != "ckpt: root cause: 1" {
		t.Errorf("sticky error = %v, want the first failure", e.Err())
	}
}

// Varints round-trip at every length boundary, and the sizing pass counts
// exactly the bytes the writing pass appends.
func TestVarintRoundTrip(t *testing.T) {
	us := []uint64{0, 1, 127, 128, 16383, 16384, 1<<56 - 1, 1 << 56, 1<<63 - 1, 1 << 63, math.MaxUint64}
	is := []int64{0, -1, 1, -64, 63, -65, 64, math.MinInt64, math.MaxInt64}
	var w Writer
	sz := Writer{sizing: true}
	for _, u := range us {
		w.Uvarint(u)
		sz.Uvarint(u)
	}
	for _, i := range is {
		w.Varint(i)
		sz.Varint(i)
	}
	if sz.Len() != w.Len() {
		t.Fatalf("sizing pass counted %d bytes, the write %d", sz.Len(), w.Len())
	}
	r := NewReader(w.Data())
	for _, u := range us {
		if got := r.Uvarint(); got != u {
			t.Errorf("Uvarint %d read back as %d", u, got)
		}
	}
	for _, i := range is {
		if got := r.Varint(); got != i {
			t.Errorf("Varint %d read back as %d", i, got)
		}
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("after the reads: err %v, %d bytes left", r.Err(), r.Remaining())
	}
	// A free cache line's tag and an idle line's ticks take one byte each.
	var one Writer
	one.Varint(-1)
	one.Uvarint(0)
	if one.Len() != 2 {
		t.Errorf("-1 and 0 took %d bytes, want 2", one.Len())
	}
}

// A malformed varint sets the sticky error without a panic, and the reads
// after it return zero values: input that ends inside the value, a value
// longer than ten bytes, and a ten-byte value past 64 bits. Each input
// that does not end inside its varint is followed by one more byte, which
// a read after the failure must not return.
func TestVarintRejectsMalformed(t *testing.T) {
	cont := func(n int, tail ...byte) []byte { return append(bytes.Repeat([]byte{0x80}, n), tail...) }
	for _, k := range []struct {
		name string
		in   []byte
		want string
	}{
		{"empty", nil, "truncated varint"},
		{"ends inside the value", cont(3), "truncated varint"},
		{"ends after nine continuation bytes", cont(9), "truncated varint"},
		{"eleven bytes", cont(10, 0x01, 0x05), "longer than 10 bytes"},
		{"all continuation bytes", cont(32, 0x05), "longer than 10 bytes"},
		{"2^64", cont(9, 0x02, 0x05), "overflows 64 bits"},
		{"2^70-1", append(bytes.Repeat([]byte{0xff}, 9), 0x7f, 0x05), "overflows 64 bits"},
	} {
		for _, read := range []struct {
			name string
			fn   func(*Reader)
		}{
			{"Uvarint", func(r *Reader) { r.Uvarint() }},
			{"Varint", func(r *Reader) { r.Varint() }},
		} {
			r := NewReader(k.in)
			read.fn(r)
			if r.Err() == nil || !strings.Contains(r.Err().Error(), k.want) {
				t.Errorf("%s %s: err %v, want %q", read.name, k.name, r.Err(), k.want)
				continue
			}
			if u, v := r.Uvarint(), r.U8(); u != 0 || v != 0 {
				t.Errorf("%s %s: reads after the failure returned %d, %d", read.name, k.name, u, v)
			}
		}
	}
	// The largest ten-byte value still reads.
	r := NewReader(append(bytes.Repeat([]byte{0xff}, 9), 0x01))
	if got := r.Uvarint(); r.Err() != nil || got != math.MaxUint64 {
		t.Fatalf("MaxUint64: got %d, err %v", got, r.Err())
	}
}
