package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first quartile, median and third quartile of v by
// the method of Python's statistics.quantiles(v, n=4) (the default,
// "exclusive"), so spreads read the same as they do there.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// readRecords loads a -record file: workload → untraced results.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]result)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace == 0 {
			out[rec.Workload] = append(out[rec.Workload], rec.Result)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, per end-to-end metric and workload, each side's median
// and quartiles and a verdict: "within" its bound, "worse" when B's median is
// worse than A's by more than the bound, or "unresolved" when either side's
// spread (quartile distance over median) exceeds the bound.
func compareFiles(w io.Writer, specPath, pathA, pathB string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	var wls []string
	for wl := range a {
		if len(b[wl]) > 0 {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	if len(wls) == 0 {
		return fmt.Errorf("no workload has untraced runs in both %s and %s", pathA, pathB)
	}
	fmt.Fprintf(w, "%-18s %-12s %5s %-40s %-40s %8s %8s %s\n", "metric", "workload", "bound", "A median [q1 q3] n", "B median [q1 q3] n", "spread", "change", "verdict")
	for _, m := range spec.EndToEnd {
		for _, wl := range wls {
			va, vb := values(a[wl], m.Name), values(b[wl], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-18s %-12s %5.2f missing\n", m.Name, wl, m.Bound)
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			spread := max((a3-a1)/math.Abs(am), (b3-b1)/math.Abs(bm))
			change := (bm - am) / math.Abs(am)
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "within"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			}
			fmt.Fprintf(w, "%-18s %-12s %5.2f %-40s %-40s %7.2f%% %+7.2f%% %s\n", m.Name, wl, m.Bound,
				fmt.Sprintf("%.6g [%.6g %.6g] %d", am, a1, a3, len(va)),
				fmt.Sprintf("%.6g [%.6g %.6g] %d", bm, b1, b3, len(vb)),
				100*spread, 100*change, verdict)
		}
	}
	return nil
}

func values(rs []result, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}
