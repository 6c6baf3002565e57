package sweep

import (
	"bytes"
	"reflect"
	"testing"
)

// quickGrid is a multi-axis grid at reduced scale: every axis has length
// > 1 so the determinism check exercises the full expansion, but runs stay
// short enough for the -short quick path.
func quickGrid() Grid {
	return Grid{
		Workloads:      []string{"tpcc", "web"},
		Schemes:        nil, // all three
		CacheMults:     []float64{0.5, 1},
		RateFactors:    []float64{1, 1.25},
		SeedReplicates: 2,
		Seed:           7,
		Intervals:      8,
	}
}

// TestSweepParallelMatchesSerial is the sweep layer's determinism golden
// test, the same pattern as the experiments package's
// TestMatrixParallelMatchesSerial: a sweep executed across the full worker
// pool must be byte-identical, cell by cell, to the Workers == 1 serial
// baseline — every run metric, every aggregated cell, and every rendered
// report. Meaningful under -race: the parallel sweep aggregates through
// the runner into shared slices.
func TestSweepParallelMatchesSerial(t *testing.T) {
	g := quickGrid()
	serial, err := Execute(t.Context(), g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Execute(t.Context(), g, Options{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Completed != serial.Total || serial.Completed == 0 {
		t.Fatalf("serial sweep completed %d of %d", serial.Completed, serial.Total)
	}
	if len(serial.Runs) != len(parallel.Runs) {
		t.Fatalf("run counts diverge: %d serial vs %d parallel", len(serial.Runs), len(parallel.Runs))
	}
	for i := range serial.Runs {
		if serial.Runs[i].Requests == 0 {
			t.Fatalf("serial run %d completed no requests: %+v", i, serial.Runs[i])
		}
		if !reflect.DeepEqual(serial.Runs[i], parallel.Runs[i]) {
			t.Errorf("run %d diverges:\n  serial:   %+v\n  parallel: %+v", i, serial.Runs[i], parallel.Runs[i])
		}
	}
	if !reflect.DeepEqual(serial.Cells, parallel.Cells) {
		t.Errorf("aggregated cells diverge between serial and parallel sweeps")
	}

	// The emitted artifacts must match byte for byte, not just value for
	// value.
	for _, render := range []struct {
		name string
		fn   func(*Result) []byte
	}{
		{"csv", func(r *Result) []byte {
			var b bytes.Buffer
			if err := WriteCellsCSV(&b, r.Cells); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}},
		{"json", func(r *Result) []byte {
			var b bytes.Buffer
			if err := WriteJSON(&b, r); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}},
		{"report", func(r *Result) []byte {
			var b bytes.Buffer
			if err := WriteReport(&b, r); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}},
	} {
		if s, p := render.fn(serial), render.fn(parallel); !bytes.Equal(s, p) {
			t.Errorf("%s artifact differs between serial and parallel sweeps", render.name)
		}
	}
}

// TestSweepControlledComparison: inside one replicate every scheme must
// see the identical workload — equal request counts per (workload,
// cache-mult, rate, replicate) coordinate across schemes.
func TestSweepControlledComparison(t *testing.T) {
	g := quickGrid()
	res, err := Execute(t.Context(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	type coord struct {
		wl  string
		cm  float64
		rf  float64
		rep int
	}
	want := make(map[coord]uint64)
	for _, r := range res.Runs {
		k := coord{r.Workload, r.CacheMult, r.RateFactor, r.Replicate}
		if prev, ok := want[k]; ok {
			if r.Requests != prev {
				t.Errorf("%v: scheme %s saw %d requests, siblings saw %d — the controlled comparison broke",
					k, r.Scheme, r.Requests, prev)
			}
		} else {
			want[k] = r.Requests
		}
	}
}
