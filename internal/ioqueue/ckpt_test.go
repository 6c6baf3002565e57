package ioqueue

import (
	"bytes"
	"encoding/binary"
	"testing"

	"lbica/internal/block"
	"lbica/internal/ckpt"
)

func encodeQueue(q *Queue) []byte {
	enc := ckpt.NewEncoder(0)
	enc.RegisterComponent(q)
	q.EncodeState(enc)
	return enc.Data()
}

func decodeQueue(payload []byte) (*Queue, error) {
	q := New("ssd")
	d := ckpt.NewDecoder(payload)
	d.RegisterComponent(q)
	q.DecodeState(d)
	return q, d.Err()
}

// A queue whose index lacks a queued node's boundary (overwritten by a
// later node, then vacated when that node left) must restore without the
// entry, so the restored queue makes the original's merge decisions; a
// payload whose key is not its node's boundary must not decode.
func TestCheckpointKeepsVacatedBoundaries(t *testing.T) {
	const far = 1 << 40 // a distinctive sector, so its encoded key is unique
	q := New("ssd")
	q.Push(req(1, block.AppWrite, 100, 8), 0) // A = [100,108)
	q.Push(req(2, block.AppWrite, 108, 8), 0) // back-merges: A = [100,116)
	q.Push(req(3, block.AppRead, 108, 8), 0)  // B = [108,116): takes back[116] and front[108]
	q.Push(req(4, block.AppWrite, far, 8), 0) // C, indexed normally
	if out := q.Extract(func(_ int, r *block.Request) bool { return r.Origin == block.AppRead }); len(out) != 1 {
		t.Fatalf("extracted %d requests, want B alone", len(out))
	}
	if q.back.get(116) != nil {
		t.Fatal("setup: A's back boundary should have been vacated with B")
	}

	payload := encodeQueue(q)
	r, err := decodeQueue(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	probes := []struct {
		lba   int64
		merge bool
	}{
		{116, false},    // would extend A if its vacated back boundary were rebuilt
		{92, true},      // front-merges into A: front[100] survived
		{far + 8, true}, // back-merges into C
		{far - 8, true}, // front-merges into C
		{5000, false},   // merges with nothing
	}
	for i, p := range probes {
		want := q.Push(req(uint64(10+i), block.AppWrite, p.lba, 8), 0)
		got := r.Push(req(uint64(10+i), block.AppWrite, p.lba, 8), 0)
		if want != p.merge || got != want {
			t.Errorf("probe %d at sector %d: merged %v restored, %v original, want %v", i, p.lba, got, want, p.merge)
		}
	}
	orig, rest := q.Snapshot(), r.Snapshot()
	if len(orig) != len(rest) {
		t.Fatalf("depth %d after probes, original %d", len(rest), len(orig))
	}
	for i := range orig {
		if orig[i].Extent != rest[i].Extent || orig[i].Merged != rest[i].Merged {
			t.Errorf("position %d: restored %v (merged %d), original %v (merged %d)",
				i, rest[i].Extent, rest[i].Merged, orig[i].Extent, orig[i].Merged)
		}
	}

	// C's back key (its End) occurs once in the payload: in the back index.
	var key [8]byte
	binary.LittleEndian.PutUint64(key[:], uint64(far+8))
	if n := bytes.Count(payload, key[:]); n != 1 {
		t.Fatalf("C's back key occurs %d times in the payload, want 1", n)
	}
	bad := bytes.Clone(payload)
	binary.LittleEndian.PutUint64(bad[bytes.Index(bad, key[:]):], uint64(far+16))
	if _, err := decodeQueue(bad); err == nil {
		t.Fatal("a back-index key that is not its node's End decoded")
	}
}
