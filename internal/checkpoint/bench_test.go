package checkpoint_test

import (
	"testing"

	"lbica/internal/perf"
)

// The encode and decode benchmarks delegate to internal/perf so `go test
// -bench` and `lbicabench -perf` measure the exact same bodies.

func BenchmarkEncodeStack(b *testing.B) { perf.BenchCkptEncodeStack(b) }
func BenchmarkDecodeStack(b *testing.B) { perf.BenchCkptDecodeStack(b) }
