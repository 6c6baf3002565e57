package perf

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRunFiltered(t *testing.T) {
	// "cache/" pins the cache microbenchmarks alone — the bare substring
	// would also catch the sweep/warm-cache-* end-to-end entries.
	rep := Run("cache/", 2)
	if len(rep.Results) != 4 {
		t.Fatalf("filter \"cache/\" matched %d benchmarks, want 4", len(rep.Results))
	}
	for _, r := range rep.Results {
		if !strings.Contains(r.Name, "cache/") {
			t.Errorf("filter leaked %q", r.Name)
		}
		if r.Iterations <= 0 || r.NsPerOp <= 0 {
			t.Errorf("%s: degenerate measurement %+v", r.Name, r)
		}
	}
	if rep.GOOS == "" || rep.GoVersion == "" {
		t.Errorf("environment not recorded: %+v", rep)
	}
}

// RunExact runs exactly the named entries — no substring surprises —
// and silently drops unknown names (Check flags those as missing).
func TestRunExact(t *testing.T) {
	rep := RunExact([]string{"kernel/schedule-fire", "no/such-bench"}, 1)
	if len(rep.Results) != 1 || rep.Results[0].Name != "kernel/schedule-fire" {
		t.Fatalf("RunExact results = %+v, want exactly kernel/schedule-fire", rep.Results)
	}
}

// Check's tolerance band: allocs gate tight, ns gate loose, missing
// entries always breach, extra current entries ignored.
func TestCheckToleranceBand(t *testing.T) {
	base := Report{Results: []Result{
		{Name: "a", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "gone", NsPerOp: 1, AllocsPerOp: 1},
	}}
	cur := Report{Results: []Result{
		{Name: "a", NsPerOp: 1000 * NsTolerance * 0.99, AllocsPerOp: 100*AllocsTolerance + allocsSlack},
		{Name: "extra", NsPerOp: 1e12, AllocsPerOp: 1 << 30},
	}}
	breaches := Check(base, cur)
	if len(breaches) != 1 || !strings.Contains(breaches[0], "gone") {
		t.Fatalf("at the band edge want only the missing-entry breach, got %v", breaches)
	}

	cur.Results[0].NsPerOp = 1000*NsTolerance + 1
	cur.Results[0].AllocsPerOp = 100*AllocsTolerance + allocsSlack + 1
	breaches = Check(base, cur)
	if len(breaches) != 3 {
		t.Fatalf("past the band want ns + allocs + missing breaches, got %v", breaches)
	}
	for _, b := range breaches[:2] {
		if !strings.Contains(b, "a:") {
			t.Errorf("breach %q does not name its benchmark", b)
		}
	}

	if got := Check(base, Report{Results: base.Results}); got != nil {
		t.Errorf("identical reports breach: %v", got)
	}
}

func TestSuiteNamesUniqueAndReportSerializes(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Suite(0) {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark name %q", b.Name)
		}
		seen[b.Name] = true
		if b.Fn == nil {
			t.Errorf("%s has nil Fn", b.Name)
		}
	}
	rep := Run("schedule-fire-16", 1)
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != len(rep.Results) {
		t.Fatal("report does not round-trip")
	}
}
