package sim_test

import (
	"testing"

	"lbica/internal/perf"
)

// The kernel and generator benchmarks delegate to internal/perf so
// `go test -bench` and `lbicabench -perf` measure the exact same bodies.

func BenchmarkEngineScheduleFire(b *testing.B)   { perf.BenchKernelScheduleFire(b) }
func BenchmarkEngineScheduleFire16(b *testing.B) { perf.BenchKernelScheduleFire16(b) }
func BenchmarkZipfNext(b *testing.B)             { perf.BenchZipfNext(b) }
func BenchmarkPhaseGenNext(b *testing.B)         { perf.BenchPhaseGenNext(b) }
