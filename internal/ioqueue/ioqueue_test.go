package ioqueue

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"lbica/internal/block"
)

func req(id uint64, o block.Origin, lba, sectors int64) *block.Request {
	return &block.Request{ID: id, Origin: o, Extent: block.Extent{LBA: lba, Sectors: sectors}}
}

func TestFIFOOrder(t *testing.T) {
	q := New("ssd", WithMaxMergeSectors(0))
	for i := 0; i < 5; i++ {
		q.Push(req(uint64(i), block.AppRead, int64(i*1000), 8), 0)
	}
	for i := 0; i < 5; i++ {
		r := q.Pop()
		if r == nil || r.ID != uint64(i) {
			t.Fatalf("pop %d returned %v", i, r)
		}
	}
	if q.Pop() != nil {
		t.Fatal("pop on empty queue must return nil")
	}
}

func TestBackMerge(t *testing.T) {
	q := New("ssd")
	a := req(1, block.AppWrite, 100, 8)
	b := req(2, block.AppWrite, 108, 8)
	if q.Push(a, 0) {
		t.Fatal("first push must not merge")
	}
	if !q.Push(b, 10) {
		t.Fatal("contiguous same-origin push must back-merge")
	}
	if q.Depth() != 1 {
		t.Fatalf("depth = %d, want 1", q.Depth())
	}
	h := q.Peek()
	if h.Extent.LBA != 100 || h.Extent.Sectors != 16 {
		t.Errorf("merged extent = %v", h.Extent)
	}
	if h.Merged != 1 {
		t.Errorf("merged count = %d", h.Merged)
	}
	if q.Merges() != 1 {
		t.Errorf("Merges() = %d", q.Merges())
	}
}

func TestFrontMerge(t *testing.T) {
	q := New("ssd")
	a := req(1, block.AppWrite, 108, 8)
	b := req(2, block.AppWrite, 100, 8)
	q.Push(a, 0)
	if !q.Push(b, 0) {
		t.Fatal("front merge failed")
	}
	h := q.Peek()
	if h.Extent.LBA != 100 || h.Extent.Sectors != 16 {
		t.Errorf("merged extent = %v", h.Extent)
	}
}

func TestNoMergeAcrossShadowFlags(t *testing.T) {
	q := New("ssd")
	a := req(1, block.AppWrite, 100, 8)
	a.Shadowed = true
	b := req(2, block.AppWrite, 108, 8)
	q.Push(a, 0)
	if q.Push(b, 0) {
		t.Fatal("shadowed and unshadowed writes must not merge")
	}
	// Two shadowed writes do merge.
	c := req(3, block.AppWrite, 92, 8)
	c.Shadowed = true
	if !q.Push(c, 0) {
		t.Fatal("two shadowed writes should merge")
	}
}

func TestArrivalsCensusAccumulates(t *testing.T) {
	q := New("ssd", WithMaxMergeSectors(0))
	q.Push(req(1, block.AppRead, 0, 8), 0)
	q.Push(req(2, block.Promote, 100, 8), 0)
	q.Pop()
	q.Pop()
	// Arrivals never decrease on pop.
	a := q.Arrivals()
	if a[block.AppRead] != 1 || a[block.Promote] != 1 {
		t.Fatalf("arrivals = %v", a)
	}
	// Merged arrivals still count.
	q2 := New("ssd")
	q2.Push(req(3, block.AppWrite, 0, 8), 0)
	q2.Push(req(4, block.AppWrite, 8, 8), 0) // merges
	if got := q2.Arrivals()[block.AppWrite]; got != 2 {
		t.Fatalf("merged arrival not counted: %d", got)
	}
}

func TestNoMergeAcrossOrigins(t *testing.T) {
	q := New("ssd")
	q.Push(req(1, block.AppWrite, 100, 8), 0)
	if q.Push(req(2, block.Promote, 108, 8), 0) {
		t.Fatal("requests of different origins must not merge")
	}
	if q.Depth() != 2 {
		t.Fatalf("depth = %d", q.Depth())
	}
}

func TestMergeSizeCap(t *testing.T) {
	q := New("ssd", WithMaxMergeSectors(12))
	q.Push(req(1, block.AppWrite, 100, 8), 0)
	if q.Push(req(2, block.AppWrite, 108, 8), 0) {
		t.Fatal("merge beyond size cap must be refused")
	}
	if !q.Push(req(3, block.AppWrite, 96, 4), 0) {
		t.Fatal("merge within cap must succeed")
	}
}

func TestMergeDisabled(t *testing.T) {
	q := New("ssd", WithMaxMergeSectors(0))
	q.Push(req(1, block.AppWrite, 100, 8), 0)
	if q.Push(req(2, block.AppWrite, 108, 8), 0) {
		t.Fatal("merging disabled but merge happened")
	}
}

func TestMergedCompletionChains(t *testing.T) {
	q := New("ssd")
	var done []uint64
	a := req(1, block.AppWrite, 100, 8)
	a.OnComplete = block.CompleterFunc(func(r *block.Request) { done = append(done, 1) })
	b := req(2, block.AppWrite, 108, 8)
	b.OnComplete = block.CompleterFunc(func(r *block.Request) {
		done = append(done, 2)
		if r.Complete != 500 {
			t.Errorf("absorbed request Complete = %v, want 500", r.Complete)
		}
		if r.Submit != 10 {
			t.Errorf("absorbed request Submit = %v, want its own 10", r.Submit)
		}
	})
	q.Push(a, 0)
	q.Push(b, 10)
	h := q.Pop()
	h.Dispatch = 100
	h.Complete = 500
	if h.OnComplete != nil {
		h.OnComplete.Complete(h)
	}
	if len(done) != 2 || done[0] != 1 || done[1] != 2 {
		t.Fatalf("completion chain = %v, want [1 2]", done)
	}
}

func TestCensusTracksPushPop(t *testing.T) {
	q := New("ssd", WithMaxMergeSectors(0))
	q.Push(req(1, block.AppRead, 0, 8), 0)
	q.Push(req(2, block.AppRead, 100, 8), 0)
	q.Push(req(3, block.Promote, 200, 8), 0)
	c := q.Census()
	if c[block.AppRead] != 2 || c[block.Promote] != 1 {
		t.Fatalf("census = %v", c)
	}
	q.Pop()
	c = q.Census()
	if c[block.AppRead] != 1 {
		t.Fatalf("census after pop = %v", c)
	}
}

func TestSnapshotOrder(t *testing.T) {
	q := New("ssd", WithMaxMergeSectors(0))
	for i := 0; i < 4; i++ {
		q.Push(req(uint64(i), block.AppWrite, int64(i)*100, 8), 0)
	}
	snap := q.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	for i, r := range snap {
		if r.ID != uint64(i) {
			t.Fatalf("snapshot order wrong: %v", snap)
		}
	}
}

func TestExtractTail(t *testing.T) {
	q := New("ssd", WithMaxMergeSectors(0))
	for i := 0; i < 6; i++ {
		q.Push(req(uint64(i), block.AppWrite, int64(i)*100, 8), 0)
	}
	// LBICA's Group-3 rule: everything past the bottleneck threshold.
	out := q.Extract(func(pos int, _ *block.Request) bool { return pos >= 2 })
	if len(out) != 4 {
		t.Fatalf("extracted %d, want 4", len(out))
	}
	if out[0].ID != 2 || out[3].ID != 5 {
		t.Errorf("extracted wrong requests: %v", out)
	}
	if q.Depth() != 2 {
		t.Errorf("depth after extract = %d", q.Depth())
	}
	if q.Extracted() != 4 {
		t.Errorf("Extracted() = %d", q.Extracted())
	}
	// Remaining queue still dispatches in order.
	if q.Pop().ID != 0 || q.Pop().ID != 1 {
		t.Error("remaining order broken")
	}
}

func TestExtractPredicate(t *testing.T) {
	q := New("ssd", WithMaxMergeSectors(0))
	q.Push(req(1, block.AppRead, 0, 8), 0)
	q.Push(req(2, block.AppWrite, 100, 8), 0)
	q.Push(req(3, block.AppRead, 200, 8), 0)
	out := q.Extract(func(_ int, r *block.Request) bool { return r.Origin == block.AppWrite })
	if len(out) != 1 || out[0].ID != 2 {
		t.Fatalf("extract by origin = %v", out)
	}
	if q.Census()[block.AppWrite] != 0 {
		t.Error("census not updated by extract")
	}
}

func TestExtractedRequestCannotMergeAnymore(t *testing.T) {
	q := New("ssd")
	q.Push(req(1, block.AppWrite, 100, 8), 0)
	out := q.Extract(func(int, *block.Request) bool { return true })
	if len(out) != 1 {
		t.Fatal("extract failed")
	}
	// A new contiguous request must NOT merge into the extracted one.
	if q.Push(req(2, block.AppWrite, 108, 8), 0) {
		t.Fatal("merged into an extracted (gone) request")
	}
}

// Property: depth always equals pushes − merges − pops − extractions, the
// census total always equals depth, and snapshot length matches.
func TestAccountingInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := New("x")
		ops := 200 + r.Intn(200)
		for i := 0; i < ops; i++ {
			switch r.Intn(10) {
			case 0:
				q.Pop()
			case 1:
				keep := r.Intn(8)
				q.Extract(func(pos int, _ *block.Request) bool { return pos >= keep })
			default:
				o := block.Origin(r.Intn(4))
				lba := int64(r.Intn(64)) * 8
				q.Push(req(uint64(i), o, lba, 8), time.Duration(i))
			}
			want := int(q.Pushed()) - int(q.Merges()) - int(q.Popped()) - int(q.Extracted())
			if q.Depth() != want {
				return false
			}
			if q.Census().Total() != q.Depth() {
				return false
			}
			if len(q.Snapshot()) != q.Depth() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: a merged head's extent always covers every absorbed request's
// extent exactly (no gaps or spill past the union).
func TestMergeExtentProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := New("x")
		base := int64(r.Intn(1000)) * 8
		// Sequential stream of same-origin requests: all should chain-merge
		// until the size cap interferes.
		total := int64(0)
		for i := 0; i < 20; i++ {
			n := int64(1 + r.Intn(16))
			q.Push(req(uint64(i), block.AppWrite, base+total, n), 0)
			total += n
		}
		covered := int64(0)
		for {
			h := q.Pop()
			if h == nil {
				break
			}
			if h.Extent.LBA != base+covered {
				return false // gap or overlap
			}
			if h.Extent.Sectors > DefaultMaxMergeSectors {
				return false
			}
			covered += h.Extent.Sectors
		}
		return covered == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
