package block

import (
	"testing"
	"testing/quick"
)

func TestOriginOp(t *testing.T) {
	cases := []struct {
		o    Origin
		want Op
	}{
		{AppRead, Read},
		{AppWrite, Write},
		{Promote, Write},
		{Evict, Read},
		{ReadMiss, Read},
		{Writeback, Write},
		{BypassRead, Read},
		{BypassWrite, Write},
	}
	for _, c := range cases {
		if got := c.o.Op(); got != c.want {
			t.Errorf("%v.Op() = %v, want %v", c.o, got, c.want)
		}
	}
}

func TestOriginStrings(t *testing.T) {
	want := map[Origin]string{
		AppRead: "R", AppWrite: "W", Promote: "P", Evict: "E",
		ReadMiss: "Rm", Writeback: "WB", BypassRead: "BR", BypassWrite: "BW",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), s)
		}
	}
}

func TestExtentGeometry(t *testing.T) {
	a := Extent{LBA: 100, Sectors: 8}
	if a.End() != 108 {
		t.Errorf("End = %d", a.End())
	}
	if a.Bytes() != 8*SectorSize {
		t.Errorf("Bytes = %d", a.Bytes())
	}
	b := Extent{LBA: 108, Sectors: 4}
	if !a.Adjacent(b) || !b.Adjacent(a) {
		t.Error("adjacency must be symmetric")
	}
	if c := (Extent{LBA: 104, Sectors: 8}); a.Adjacent(c) {
		t.Error("overlapping extents must not be adjacent")
	}
	u := a.Union(b)
	if u.LBA != 100 || u.Sectors != 12 {
		t.Errorf("union = %v", u)
	}
}

// Property: the union of overlapping-or-adjacent extents covers exactly
// both inputs and nothing before/after them.
func TestExtentUnionProperty(t *testing.T) {
	f := func(lba uint16, n1, gap, n2 uint8) bool {
		a := Extent{LBA: int64(lba), Sectors: int64(n1%32) + 1}
		b := Extent{LBA: a.End() - int64(gap%2), Sectors: int64(n2%32) + 1} // overlap or adjacency
		u := a.Union(b)
		if u.LBA > a.LBA || u.LBA > b.LBA {
			return false
		}
		if u.End() < a.End() || u.End() < b.End() {
			return false
		}
		lo := a.LBA
		if b.LBA < lo {
			lo = b.LBA
		}
		hi := a.End()
		if b.End() > hi {
			hi = b.End()
		}
		return u.LBA == lo && u.End() == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRequestTimings(t *testing.T) {
	r := Request{Submit: 100, Dispatch: 150, Complete: 400}
	if r.QueueTime() != 50 {
		t.Errorf("queue time = %v", r.QueueTime())
	}
	if r.Latency() != 300 {
		t.Errorf("latency = %v", r.Latency())
	}
}

func TestStringRenderings(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("op strings wrong")
	}
	if Origin(200).String() == "" {
		t.Error("out-of-range origin must render")
	}
	e := Extent{LBA: 8, Sectors: 4}
	if e.String() != "[8,+4)" {
		t.Errorf("extent string = %q", e.String())
	}
	r := Request{ID: 7, Origin: Promote, Extent: e}
	if s := r.String(); s != "req#7 P write [8,+4)" {
		t.Errorf("request string = %q", s)
	}
	var c Census
	if c.String() != "census(empty)" {
		t.Errorf("empty census string = %q", c.String())
	}
	c[AppRead] = 3
	c[Promote] = 1
	if got := c.String(); got == "" || got == "census(empty)" {
		t.Errorf("census string = %q", got)
	}
}

func TestCensus(t *testing.T) {
	var c Census
	if c.Total() != 0 || c.Ratio(AppRead) != 0 {
		t.Error("empty census must read zero")
	}
	c[AppRead] = 44
	c[AppWrite] = 2
	c[Promote] = 51
	c[Evict] = 3
	if c.Total() != 100 {
		t.Fatalf("total = %d", c.Total())
	}
	if c.Ratio(Promote) != 0.51 {
		t.Errorf("P ratio = %v", c.Ratio(Promote))
	}
	if c.Ratio(AppRead) != 0.44 {
		t.Errorf("R ratio = %v", c.Ratio(AppRead))
	}
}
