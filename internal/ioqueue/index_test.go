package ioqueue

import (
	"math"
	"testing"
)

// fuzzKeys is the sector-key set FuzzSectorIndex draws from: keys homed in
// the first table's last slot (their probe runs wrap to slot 0), keys
// homed in its slot 0 (they collide with the wrapped runs), and keys
// spread elsewhere, with 0, negative and extreme sectors among them. There
// are more keys than a first table may hold, so inserts force growth.
var fuzzKeys = func() []int64 {
	var first sectorIndex
	first.grow()
	var last, zero []int64
	for k := int64(1); len(last) < 4 || len(zero) < 4; k++ {
		switch first.home(k) {
		case minIndexSlots - 1:
			if len(last) < 4 {
				last = append(last, k)
			}
		case 0:
			if len(zero) < 4 {
				zero = append(zero, k)
			}
		}
	}
	keys := append(last, zero...)
	return append(keys, 0, -8, 8, 1024, 4096, 1<<40, math.MaxInt64, math.MinInt64,
		77, 78, 79, 80, 81, 82, 83, 84)
}()

// FuzzSectorIndex drives a sectorIndex and a map reference with the same
// insert, delete-if-same-node and lookup operations and compares every
// result and the final contents. Each operation is two bytes: the first
// picks the operation (low two bits: insert, insert, delete, lookup) and
// the node (the rest), the second picks the key. The seed corpus in
// testdata/fuzz holds wraparound, growth and overwrite-then-vacate
// sequences plus random and engine-found inputs.
func FuzzSectorIndex(f *testing.F) {
	nodes := []*node{{}, {}, {}}
	f.Fuzz(func(t *testing.T, ops []byte) {
		var x sectorIndex
		ref := map[int64]*node{}
		for i := 0; i+1 < len(ops); i += 2 {
			n := nodes[int(ops[i]>>2)%len(nodes)]
			k := fuzzKeys[int(ops[i+1])%len(fuzzKeys)]
			switch ops[i] & 3 {
			case 0, 1:
				x.put(k, n)
				ref[k] = n
			case 2:
				x.deleteIf(k, n)
				if ref[k] == n {
					delete(ref, k)
				}
			case 3:
				if got, want := x.get(k), ref[k]; got != want {
					t.Fatalf("op %d: get(%d) = %p, reference %p", i/2, k, got, want)
				}
			}
			if x.n != len(ref) {
				t.Fatalf("op %d: %d entries, reference %d", i/2, x.n, len(ref))
			}
			checkIndexLayout(t, &x)
		}
		seen := 0
		x.each(func(k int64, n *node) {
			seen++
			if ref[k] != n {
				t.Errorf("entry %d -> %p, reference %p", k, n, ref[k])
			}
		})
		if seen != len(ref) {
			t.Errorf("each visited %d entries, reference holds %d", seen, len(ref))
		}
		for k, n := range ref {
			if got := x.get(k); got != n {
				t.Errorf("get(%d) = %p, reference %p", k, got, n)
			}
		}
	})
}

// checkIndexLayout asserts the table's structural invariants: load at
// most 1/2, an entry count that matches the occupied slots, unique keys,
// and no empty slot between any entry's home and its slot (the property
// backward-shift deletion must preserve for lookups to find every entry).
func checkIndexLayout(t *testing.T, x *sectorIndex) {
	t.Helper()
	if 2*x.n > len(x.slots) {
		t.Fatalf("load %d/%d above 1/2", x.n, len(x.slots))
	}
	mask := len(x.slots) - 1
	occupied := 0
	keys := map[int64]bool{}
	for i, s := range x.slots {
		if s.node == nil {
			continue
		}
		occupied++
		if keys[s.key] {
			t.Fatalf("key %d stored twice", s.key)
		}
		keys[s.key] = true
		for j := x.home(s.key); j != i; j = (j + 1) & mask {
			if x.slots[j].node == nil {
				t.Fatalf("key %d in slot %d, but slot %d of its probe run (home %d) is empty",
					s.key, i, j, x.home(s.key))
			}
		}
	}
	if occupied != x.n {
		t.Fatalf("%d occupied slots, count says %d", occupied, x.n)
	}
}
