package device_test

import (
	"testing"

	"lbica/internal/perf"
)

// The dispatch benchmark delegates to internal/perf so `go test -bench` and
// `lbicabench -perf` measure the exact same body.

func BenchmarkSSDCycle(b *testing.B) { perf.BenchSSDCycle(b) }
