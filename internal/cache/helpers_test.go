package cache

import (
	"testing"

	"lbica/internal/block"
)

func TestBlockGeometryHelpers(t *testing.T) {
	c := New(Config{BlockSectors: 8, Sets: 4, Ways: 2})
	if c.BlockSectors() != 8 {
		t.Errorf("BlockSectors = %d", c.BlockSectors())
	}
	e := c.BlockExtent(3)
	if e.LBA != 24 || e.Sectors != 8 {
		t.Errorf("BlockExtent(3) = %v", e)
	}
	if c.Capacity() != 8 {
		t.Errorf("Capacity = %d", c.Capacity())
	}
}

func TestValidCountTracksContents(t *testing.T) {
	c := New(Config{BlockSectors: 8, Sets: 4, Ways: 2})
	if c.ValidCount() != 0 {
		t.Fatal("fresh cache not empty")
	}
	c.Prewarm([]int64{0, 1, 2})
	if c.ValidCount() != 3 {
		t.Errorf("valid = %d", c.ValidCount())
	}
	c.Invalidate(block.Extent{LBA: 0, Sectors: 8})
	if c.ValidCount() != 2 {
		t.Errorf("valid after invalidate = %d", c.ValidCount())
	}
}

func TestDirtyInHelper(t *testing.T) {
	c := New(Config{BlockSectors: 8, Sets: 4, Ways: 2})
	c.Access(block.Write, ext(0, 8), 0)
	c.Prewarm([]int64{1})
	if !c.DirtyIn(ext(0, 16)) {
		t.Error("extent covering a dirty block must report dirty")
	}
	if c.DirtyIn(ext(8, 8)) {
		t.Error("clean block reported dirty")
	}
	if c.DirtyIn(ext(64, 8)) {
		t.Error("uncached block reported dirty")
	}
}

func TestCollectDirtyZeroMax(t *testing.T) {
	c := New(Config{BlockSectors: 8, Sets: 4, Ways: 2})
	c.Access(block.Write, ext(0, 8), 0)
	if got := c.CollectDirty(nil, 0); got != nil {
		t.Errorf("CollectDirty(0) = %v", got)
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-set cache must panic")
		}
	}()
	New(Config{BlockSectors: 8, Sets: 0, Ways: 2})
}

// TestNewPanicsOnBlockSectorsNotPowerOfTwo: blocksOf shifts, so a block
// size that is not a power of two is bad geometry.
func TestNewPanicsOnBlockSectorsNotPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a 12-sector block must panic")
		}
	}()
	New(Config{BlockSectors: 12, Sets: 4, Ways: 2})
}

func TestPolicyStringUnknown(t *testing.T) {
	if Policy(99).String() == "" {
		t.Error("unknown policy must still render")
	}
	if Replacement(99).String() == "" {
		t.Error("unknown replacement must still render")
	}
}

func TestNegativeLBAHandled(t *testing.T) {
	// Negative addresses never occur in the stack, but the set index must
	// not panic if one sneaks in via a hand-built request.
	c := New(Config{BlockSectors: 8, Sets: 4, Ways: 2})
	d := c.Access(block.Read, block.Extent{LBA: -8, Sectors: 8}, 0)
	if d.Action.Has(Hit) {
		t.Error("negative-address read cannot hit")
	}
	if err := c.CheckInvariants(); err == nil {
		// A negative block lands in a set by absolute value; invariants
		// may flag the set mismatch — either way, no panic is the contract.
		_ = err
	}
}
