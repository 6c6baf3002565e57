package cache_test

import (
	"testing"
	"time"

	"lbica/internal/block"
	"lbica/internal/cache"
	"lbica/internal/perf"
)

// The hit, miss/evict, flush-round and access-mix benchmarks delegate to
// internal/perf so `go test -bench` and `lbicabench -perf` measure the
// exact same bodies.

func BenchmarkCacheReadHit(b *testing.B)       { perf.BenchCacheReadHit(b) }
func BenchmarkCacheReadMissEvict(b *testing.B) { perf.BenchCacheMissEvict(b) }
func BenchmarkCacheCollectDirty(b *testing.B)  { perf.BenchCacheCollectDirty(b) }
func BenchmarkCacheAccess(b *testing.B)        { perf.BenchCacheAccess(b) }

// BenchmarkCacheWriteDirtyEvict measures dirtying writes with dirty-victim
// eviction — the write-back worst case.
func BenchmarkCacheWriteDirtyEvict(b *testing.B) {
	c := cache.New(cache.Config{BlockSectors: 8, Sets: 1024, Ways: 8})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(block.Write, block.Extent{LBA: int64(i) * 8, Sectors: 8}, time.Duration(i))
	}
}

// BenchmarkCacheDirtyIn measures the balancer's re-route safety check.
func BenchmarkCacheDirtyIn(b *testing.B) {
	c := cache.New(cache.Config{BlockSectors: 8, Sets: 1024, Ways: 8})
	for i := int64(0); i < 8192; i++ {
		c.Access(block.Write, block.Extent{LBA: i * 8, Sectors: 8}, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := int64(i) % 16384
		c.DirtyIn(block.Extent{LBA: n * 8, Sectors: 8})
	}
}
