package cache

import (
	"slices"
	"sync"
	"weak"
)

// lines is one cache's line storage: the tag array, the metadata array
// parallel to it and the flushable bitmap over both.
type lines struct {
	tags      []int64
	meta      []lineMeta
	flushable []uint64
}

// freeLines holds the line arrays of released caches for the next New of
// the same line count. Its pointers are weak, so a released pair never
// counts as live heap: until the next GC a build takes it over instead of
// allocating, and a GC that runs first frees it, as if it had never been
// released. A strong list would keep every released pair alive across that
// GC and raise the heap goal with it.
var freeLines struct {
	sync.Mutex
	l []weak.Pointer[lines]
}

// takeLines removes and returns a released pair of n lines, or nil when
// none is left; it drops the entries whose pairs a GC has freed.
func takeLines(n int) *lines {
	freeLines.Lock()
	defer freeLines.Unlock()
	var got *lines
	freeLines.l = slices.DeleteFunc(freeLines.l, func(wp weak.Pointer[lines]) bool {
		l := wp.Value()
		if l == nil {
			return true
		}
		if got == nil && len(l.tags) == n {
			got = l
			return true
		}
		return false
	})
	return got
}

// Release hands the cache's line arrays to the next New of the same line
// count, which resets them. The cache is unusable afterwards: every call
// that reads or writes its lines, its statistics or its dirty ratio
// panics. Releasing twice is a no-op.
func (c *Cache) Release() {
	if c.tags == nil {
		return
	}
	wp := weak.Make(&lines{tags: c.tags, meta: c.meta, flushable: c.flushable})
	c.tags, c.meta, c.flushable, c.victims = nil, nil, nil, nil
	freeLines.Lock()
	freeLines.l = append(freeLines.l, wp)
	freeLines.Unlock()
}

// mustLive panics on a released cache. The per-request paths need no
// check: they index the line arrays, which Release leaves nil.
func (c *Cache) mustLive() {
	if c.tags == nil {
		panic("cache: use of a released cache")
	}
}
