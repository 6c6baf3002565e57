package array_test

import (
	"testing"

	"lbica/internal/perf"
)

// The route-pick benchmark delegates to internal/perf so `go test -bench`
// and `lbicabench -perf` measure the exact same body.

func BenchmarkRouterZipfPick(b *testing.B) { perf.BenchRouterZipfPick(b) }
