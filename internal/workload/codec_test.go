package workload

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"lbica/internal/block"
	"lbica/internal/sim"
)

func TestCodecRoundTrip(t *testing.T) {
	g := MixedRW(100*time.Millisecond, 5000, 1024, sim.NewRNG(1, "c"))
	var orig []Request
	for len(orig) < 500 {
		r, ok := g.Next()
		if !ok {
			break
		}
		orig = append(orig, r)
	}
	if len(orig) == 0 {
		t.Fatal("no requests to record")
	}
	var buf bytes.Buffer
	if err := SaveRequests(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRequests(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("loaded %d of %d", len(got), len(orig))
	}
	for i := range got {
		if got[i] != orig[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, got[i], orig[i])
		}
	}
}

func TestCodecEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveRequests(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRequests(&buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v %v", got, err)
	}
	// A totally empty reader yields an empty stream, not an error.
	got, err = LoadRequests(bytes.NewReader(nil))
	if err != nil || got != nil {
		t.Fatalf("empty reader: %v %v", got, err)
	}
}

func TestCodecBadMagic(t *testing.T) {
	if _, err := LoadRequests(strings.NewReader("NOTAWORKLOAD....")); err != ErrBadWorkloadMagic {
		t.Fatalf("err = %v, want ErrBadWorkloadMagic", err)
	}
}

func TestCodecTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveRequests(&buf, []Request{{At: 1, Op: block.Read, Extent: block.Extent{LBA: 1, Sectors: 8}}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := LoadRequests(bytes.NewReader(raw[:len(raw)-2])); err == nil || err == io.EOF {
		t.Fatalf("truncated stream must error, got %v", err)
	}
}

// Property: any request slice round-trips exactly.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(ats []int64, ops []bool, lbas []int64) bool {
		n := len(ats)
		if len(ops) < n {
			n = len(ops)
		}
		if len(lbas) < n {
			n = len(lbas)
		}
		reqs := make([]Request, n)
		for i := 0; i < n; i++ {
			op := block.Read
			if ops[i] {
				op = block.Write
			}
			reqs[i] = Request{
				At:     time.Duration(ats[i]),
				Op:     op,
				Extent: block.Extent{LBA: lbas[i], Sectors: int64(i%64) + 1},
			}
		}
		var buf bytes.Buffer
		if SaveRequests(&buf, reqs) != nil {
			return false
		}
		got, err := LoadRequests(&buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != reqs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDrainMatchesTee(t *testing.T) {
	mk := func() Generator { return RandomRead(50*time.Millisecond, 2000, 256, sim.NewRNG(9, "d")) }
	direct := Drain(mk())
	var captured []Request
	teed := NewTee(mk(), &captured)
	for {
		if _, ok := teed.Next(); !ok {
			break
		}
	}
	if len(direct) != len(captured) {
		t.Fatalf("drain %d vs tee %d", len(direct), len(captured))
	}
}
