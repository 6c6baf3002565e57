package ioqueue_test

import (
	"testing"

	"lbica/internal/block"
	"lbica/internal/ioqueue"
	"lbica/internal/perf"
)

// The push/pop, merge and deep push/pop benchmarks delegate to internal/perf
// so `go test -bench` and `lbicabench -perf` measure the exact same bodies.

func BenchmarkQueuePushPop(b *testing.B)     { perf.BenchQueuePushPop(b) }
func BenchmarkQueueMerge(b *testing.B)       { perf.BenchQueueMerge(b) }
func BenchmarkQueueDeepPushPop(b *testing.B) { perf.BenchQueueDeepPushPop(b) }

// BenchmarkQueueCensusSnapshot measures the monitor-side reads.
func BenchmarkQueueCensusSnapshot(b *testing.B) {
	q := ioqueue.New("bench")
	for i := 0; i < 32; i++ {
		q.Push(&block.Request{ID: uint64(i), Origin: block.Origin(i % block.NumOrigins),
			Extent: block.Extent{LBA: int64(i) * 4096, Sectors: 8}}, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := q.Census()
		if c.Total() != 32 {
			b.Fatal("census lost requests")
		}
	}
}
