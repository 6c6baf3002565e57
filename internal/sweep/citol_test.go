package sweep

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"lbica/internal/stats"
)

// ciGrid is the early-termination test grid: one coordinate per
// workload, several seed replicates, short runs.
func ciGrid(replicates int, tol float64) Grid {
	return Grid{
		Workloads:      []string{"tpcc"},
		Schemes:        []string{"WB", "LBICA"},
		SeedReplicates: replicates,
		Seed:           7,
		Intervals:      20,
		CITolerance:    tol,
	}
}

// A loose tolerance terminates the coordinate at the replicate floor:
// the remaining replicates are never launched, the cell is marked with
// its actual replicate count and achieved half-width, and the report
// still aggregates cleanly.
func TestAdaptiveSweepTerminatesEarly(t *testing.T) {
	res, err := Execute(t.Context(), ciGrid(5, 1e3), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed >= res.Total {
		t.Fatalf("loose tolerance never terminated: %d of %d runs executed", res.Completed, res.Total)
	}
	if len(res.Cells) == 0 {
		t.Fatal("no cells aggregated")
	}
	for _, c := range res.Cells {
		if !c.EarlyTerminated {
			t.Errorf("cell %s/%s not marked early-terminated", c.Workload, c.Scheme)
		}
		if c.Replicates < minCIReplicates || c.Replicates >= 5 {
			t.Errorf("cell %s/%s ran %d replicates, want in [%d, 5)", c.Workload, c.Scheme, c.Replicates, minCIReplicates)
		}
		if c.QCIHalfUS <= 0 {
			t.Errorf("cell %s/%s missing achieved half-width", c.Workload, c.Scheme)
		}
	}
}

// The determinism guarantee holds on the adaptive path too: runs, cells
// and emitted CSV are byte-identical for every worker count.
func TestAdaptiveSweepParallelMatchesSerial(t *testing.T) {
	g := ciGrid(4, 0.05)
	want, err := Execute(t.Context(), g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4} {
		got, err := Execute(t.Context(), g, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Runs, want.Runs) || !reflect.DeepEqual(got.Cells, want.Cells) {
			t.Fatalf("workers=%d adaptive sweep differs from the serial baseline", workers)
		}
		var gb, wb bytes.Buffer
		if err := WriteCellsCSV(&gb, got.Cells); err != nil {
			t.Fatal(err)
		}
		if err := WriteCellsCSV(&wb, want.Cells); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Fatalf("workers=%d cells CSV differs from the serial baseline", workers)
		}
	}
}

// A tolerance too tight to ever trigger runs the full grid and matches
// the tolerance-off sweep run for run; the only difference is the CI
// annotation on each cell.
func TestAdaptiveSweepTightToleranceMatchesClassic(t *testing.T) {
	classic, err := Execute(t.Context(), ciGrid(3, 0), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := Execute(t.Context(), ciGrid(3, 1e-12), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Completed != adaptive.Total {
		t.Fatalf("tight tolerance terminated early: %d of %d", adaptive.Completed, adaptive.Total)
	}
	if !reflect.DeepEqual(adaptive.Runs, classic.Runs) {
		t.Error("adaptive runs differ from the classic path")
	}
	stripped := append([]Cell(nil), adaptive.Cells...)
	for i := range stripped {
		if stripped[i].EarlyTerminated {
			t.Errorf("cell %s/%s marked terminated on a full sweep", stripped[i].Workload, stripped[i].Scheme)
		}
		if stripped[i].QCIHalfUS <= 0 {
			t.Errorf("cell %s/%s missing CI annotation", stripped[i].Workload, stripped[i].Scheme)
		}
		stripped[i].QCIHalfUS = 0
	}
	if !reflect.DeepEqual(stripped, classic.Cells) {
		t.Error("adaptive cells (annotations stripped) differ from the classic path")
	}
	// Classic cells must stay clean of adaptive-only fields.
	for _, c := range classic.Cells {
		if c.QCIHalfUS != 0 || c.EarlyTerminated {
			t.Errorf("tolerance-off cell %s/%s carries CI fields: %+v", c.Workload, c.Scheme, c)
		}
	}
}

// HalfWidth95 is the termination criterion's kernel; pin its behavior on
// hand-checked inputs.
func TestHalfWidth95(t *testing.T) {
	if hw := stats.HalfWidth95(nil); !math.IsInf(hw, 1) {
		t.Errorf("HalfWidth95(nil) = %v, want +Inf", hw)
	}
	if hw := stats.HalfWidth95([]float64{3}); !math.IsInf(hw, 1) {
		t.Errorf("HalfWidth95(one value) = %v, want +Inf", hw)
	}
	if hw := stats.HalfWidth95([]float64{5, 5, 5}); hw != 0 {
		t.Errorf("HalfWidth95(constant) = %v, want 0", hw)
	}
	// n=2: s = |a-b|/sqrt(2), hw = 12.706 * s / sqrt(2) = 12.706 * |a-b| / 2.
	if hw, want := stats.HalfWidth95([]float64{1, 3}), 12.706; math.Abs(hw-want) > 1e-9 {
		t.Errorf("HalfWidth95({1,3}) = %v, want %v", hw, want)
	}
	// Large n falls back to the normal quantile: hw = 1.96 * s / sqrt(n).
	big := make([]float64, 100)
	for i := range big {
		big[i] = float64(i % 2) // mean .5, sample sd ~.502
	}
	sd := math.Sqrt(float64(len(big)) / float64(len(big)-1) * 0.25)
	if hw, want := stats.HalfWidth95(big), 1.96*sd/10; math.Abs(hw-want) > 1e-9 {
		t.Errorf("HalfWidth95(big) = %v, want %v", hw, want)
	}
}
