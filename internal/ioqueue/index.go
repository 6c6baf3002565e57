package ioqueue

import "math/bits"

// sectorIndex maps a boundary sector to the most recent queued node with
// that boundary: the elevator's merge-candidate lookup. It is an
// open-addressing table of (sector, node) slots, a power of two long, with
// Fibonacci hashing and linear probing at load <= 1/2. Deletion shifts the
// rest of the probe run back, so there are no tombstones, and the hash has
// no seed, so the table's layout is a pure function of its operations. The
// zero value is an empty index; the table is allocated on first insert.
type sectorIndex struct {
	slots []slot // nil until the first insert
	n     int    // occupied slots
	shift uint   // 64 - log2(len(slots))
}

// slot is one table entry; node == nil marks it empty (sector 0 is a valid
// key).
type slot struct {
	key  int64
	node *node
}

const minIndexSlots = 16

// home is key's preferred slot: the top log2(len(slots)) bits of the key
// times 2^64/φ.
func (x *sectorIndex) home(key int64) int {
	return int((uint64(key) * 0x9E3779B97F4A7C15) >> x.shift)
}

// get returns the node indexed under key, or nil.
func (x *sectorIndex) get(key int64) *node {
	if i := x.find(key); i >= 0 {
		return x.slots[i].node
	}
	return nil
}

// find returns key's slot, or -1 when key is absent.
func (x *sectorIndex) find(key int64) int {
	if x.n == 0 {
		return -1
	}
	mask := len(x.slots) - 1
	for i := x.home(key); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.node == nil {
			return -1
		}
		if s.key == key {
			return i
		}
	}
}

// put indexes n under key, replacing any node already there.
func (x *sectorIndex) put(key int64, n *node) {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	mask := len(x.slots) - 1
	for i := x.home(key); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.node == nil {
			s.key, s.node = key, n
			x.n++
			return
		}
		if s.key == key {
			s.node = n
			return
		}
	}
}

// deleteIf removes key's entry only if it still names n: an entry a later
// node overwrote stays.
func (x *sectorIndex) deleteIf(key int64, n *node) {
	i := x.find(key)
	if i < 0 || x.slots[i].node != n {
		return
	}
	mask := len(x.slots) - 1
	// Backward-shift: walk the rest of the probe run and move back every
	// entry whose home does not lie between the hole and its slot.
	for j := (i + 1) & mask; x.slots[j].node != nil; j = (j + 1) & mask {
		if (j-x.home(x.slots[j].key))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = slot{}
	x.n--
}

// grow doubles the table (or allocates the first one) and reinserts every
// entry.
func (x *sectorIndex) grow() {
	old := x.slots
	size := 2 * len(old)
	if size < minIndexSlots {
		size = minIndexSlots
	}
	x.slots = make([]slot, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	x.n = 0
	for _, s := range old {
		if s.node != nil {
			x.put(s.key, s.node)
		}
	}
}

// each calls fn for every entry, in table order.
func (x *sectorIndex) each(fn func(key int64, n *node)) {
	for _, s := range x.slots {
		if s.node != nil {
			fn(s.key, s.node)
		}
	}
}
