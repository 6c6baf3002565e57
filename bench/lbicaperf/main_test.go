package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"lbica/internal/sweep"
)

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) (endToEnd, perLayer []specMetric) {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

// TestWorkloadsShort runs every workload at four intervals, untraced and
// traced, and checks the output contract: every metric BENCHMARK.json names
// is printed with its unit and reported on the result line, no cell fails,
// and — since a traced cell that differs from the untraced sweep counts as
// failed — the hand-built cells reproduce sweep.Execute.
func TestWorkloadsShort(t *testing.T) {
	endToEnd, perLayer := loadSpec(t)
	for _, name := range workloadNames {
		for _, traced := range []int{0, 1} {
			dir := t.TempDir()
			args := []string{"-workload", name, "-seed", "1", "-intervals", "4", "-reps", "1",
				"-trace", strconv.Itoa(traced), "-workdir", dir}
			want := endToEnd
			if traced == 1 {
				args = append(args, "-spans", filepath.Join(dir, "spans.json"))
				want = perLayer
			}
			var out bytes.Buffer
			if err := run(context.Background(), args, &out); err != nil {
				t.Fatalf("%s trace %d: %v", name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: result line: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %d: correct %v, %d of %d cells failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics on the result line, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			printed := make(map[string]string)
			for _, l := range lines[:len(lines)-1] {
				if f := strings.Fields(l); len(f) == 3 {
					printed[f[0]] = f[2]
				}
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: result line has %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
				if printed[m.Name] != m.Unit {
					t.Errorf("%s trace %d: %s printed with unit %q, want %q", name, traced, m.Name, printed[m.Name], m.Unit)
				}
			}
			if traced == 1 {
				raw, err := os.ReadFile(filepath.Join(dir, "spans.json"))
				if err != nil {
					t.Fatal(err)
				}
				var tf struct{ Spans []span }
				if err := json.Unmarshal(raw, &tf); err != nil || len(tf.Spans) == 0 {
					t.Errorf("%s: trace file has %d spans (%v)", name, len(tf.Spans), err)
				}
			}
		}
	}
}

func TestScorePassCountsMismatchedDigest(t *testing.T) {
	res := &sweep.Result{Total: 3, Completed: 3, Runs: []sweep.Run{{Requests: 5}, {Requests: 5}, {Requests: 5}}}
	for _, tc := range []struct {
		sum, want string
		failed    int
	}{
		{"abc", "abc", 0},
		{"abc", "", 0},
		{"abc", "abd", 3},
	} {
		if a, f := scorePass(res, tc.sum, tc.want); a != 3 || f != tc.failed {
			t.Errorf("digest %q against %q: %d of %d failed, want %d of 3", tc.sum, tc.want, f, a, tc.failed)
		}
	}
	res.Runs[1].Requests = 0
	res.Runs = res.Runs[:2]
	res.Completed = 2
	if a, f := scorePass(res, "abc", "abc"); a != 3 || f != 2 {
		t.Errorf("one missing and one empty cell: %d of %d failed, want 2 of 3", f, a)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 40},  // overlaps the first: [10, 40] counts once
		{Start: 90, End: 120}, // sticks out of the parent: only [90, 100]
		{Start: -5, End: 2},   // starts before the parent: only [0, 2]
		{Start: 50, End: 50},  // empty
	}
	if got := selfTime(parent, kids); got != 58 {
		t.Errorf("self time %d, want 100 - 30 - 10 - 2 = 58", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children %d, want 100", got)
	}
	if got := selfTime(parent, []span{{Start: -10, End: 200}}); got != 0 {
		t.Errorf("self time under a covering child %d, want 0", got)
	}
}

// A stretch too short to give the probe any time still gets one chunk, so
// the host speed of a tiny set-up pass is a finite, positive number.
func TestHostProbeSamplesAtLeastOneChunk(t *testing.T) {
	var p hostProbe
	p.sample(0)
	if p.steps != probeChunk || p.elapsed <= 0 {
		t.Fatalf("after an empty stretch: %v steps in %v, want %d steps in a positive time", p.steps, p.elapsed, probeChunk)
	}
	if s := p.speed(); !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("speed %v, want a finite positive number", s)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v %v %v, want 1 2 4", q1, med, q3)
	}
}
