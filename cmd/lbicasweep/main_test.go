package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lbica/internal/cli"
	"lbica/internal/sweep"
)

// sweepArgs is a minimal fast grid shared by the smoke tests.
var sweepArgs = []string{"-workloads", "tpcc", "-schemes", "wb,lbica", "-cache-mult", "0.5,1", "-seeds", "1", "-intervals", "4", "-q"}

func TestRunTextReport(t *testing.T) {
	var out, errBuf strings.Builder
	if err := run(t.Context(), sweepArgs, &out, &errBuf); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}
	got := out.String()
	if !strings.Contains(got, "1 workloads × 2 schemes × 2 cache sizes × 1 rates × 1 seeds = 4 runs (4 completed)") {
		t.Errorf("missing grid header, got:\n%s", got)
	}
	for _, want := range []string{"tpcc", "WB", "LBICA", "vs WB"} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}

func TestRunCSVFormat(t *testing.T) {
	var out, errBuf strings.Builder
	if err := run(t.Context(), append([]string{"-format", "csv"}, sweepArgs...), &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	cells, err := sweep.ParseCellsCSV(strings.NewReader(out.String()))
	if err != nil {
		t.Fatalf("emitted CSV does not parse back: %v\n%s", err, out.String())
	}
	if len(cells) != 4 {
		t.Errorf("got %d cells, want 4", len(cells))
	}
}

func TestRunJSONFormat(t *testing.T) {
	var out, errBuf strings.Builder
	if err := run(t.Context(), append([]string{"-format", "json"}, sweepArgs...), &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	var res sweep.Result
	if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
		t.Fatalf("emitted JSON does not decode: %v", err)
	}
	if res.Completed != 4 || len(res.Runs) != 4 || len(res.Cells) != 4 {
		t.Errorf("decoded result = %d completed, %d runs, %d cells; want 4 each",
			res.Completed, len(res.Runs), len(res.Cells))
	}
}

// TestRunOutArtifacts: -out writes the cells CSV and the full JSON, and
// the CSV on disk parses back to the same cells as a -format csv run.
func TestRunOutArtifacts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "artifacts")
	var out, errBuf strings.Builder
	if err := run(t.Context(), append([]string{"-out", dir}, sweepArgs...), &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "sweep_cells.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fromFile, err := sweep.ParseCellsCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	var csvOut strings.Builder
	if err := run(t.Context(), append([]string{"-format", "csv"}, sweepArgs...), &csvOut, &errBuf); err != nil {
		t.Fatal(err)
	}
	fromStdout, err := sweep.ParseCellsCSV(strings.NewReader(csvOut.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFile, fromStdout) {
		t.Errorf("-out artifact diverges from -format csv output")
	}
	if _, err := os.Stat(filepath.Join(dir, "sweep.json")); err != nil {
		t.Errorf("sweep.json artifact missing: %v", err)
	}
}

func TestRunHelpIsNotAnError(t *testing.T) {
	var out, errBuf strings.Builder
	if err := run(t.Context(), []string{"-h"}, &out, &errBuf); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h returned %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(errBuf.String(), "Usage of lbicasweep") {
		t.Errorf("-h did not print usage:\n%s", errBuf.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-format", "xml"},
		{"-cache-mult", "a,b"},
		{"-rate", "1,,nope"},
		{"-burst-mult", "2x"},
	} {
		var out, errBuf strings.Builder
		if err := run(t.Context(), args, &out, &errBuf); !errors.Is(err, cli.ErrUsage) {
			t.Errorf("%v returned %v, want cli.ErrUsage", args, err)
		}
	}
}

// TestRunRejectsSilentClampCandidates: values that earlier versions
// silently rewrote to defaults (negative interval counts, lengths and
// replicate counts, zero multipliers) must now surface as errors.
func TestRunRejectsSilentClampCandidates(t *testing.T) {
	for _, args := range [][]string{
		{"-intervals", "-5"},
		{"-interval", "-1s"},
		{"-seeds", "-2"},
		{"-rate", "0"},
		{"-burst-mult", "0"},
		{"-burst-mult", "-1"},
		{"-cache-mult", "0"},
		{"-cache-mult", "1e-9"},
		{"-cache-mult", "512", "-volumes", "1,2"},
		{"-warmup", "-1"},
		{"-ci-tol", "-0.5"},
		{"-ci-tol", "NaN"},
	} {
		var out, errBuf strings.Builder
		err := run(t.Context(), append(append([]string{}, args...), "-q"), &out, &errBuf)
		if err == nil {
			t.Errorf("%v ran instead of erroring", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v produced a report despite the invalid axis:\n%s", args, out.String())
		}
	}
}

// TestRunRejectsUnboundedGrids: a grid past a run bound exits with an
// error naming the bound before any run starts. Before the bounds 10^8
// intervals and 10^9 seeds ran out of memory, and 2^62 seeds overflowed
// the grid size into a makeslice panic.
func TestRunRejectsUnboundedGrids(t *testing.T) {
	for _, c := range []struct {
		args  []string
		bound string
	}{
		{[]string{"-intervals", "100000000"}, "volume-interval bound"},
		{[]string{"-seeds", "1000000000"}, "run bound"},
		{[]string{"-seeds", "4611686018427387904"}, "run bound"},
		{[]string{"-rate", "1e12"}, "10000"},
		{[]string{"-burst-mult", "1e6"}, "100]"},
	} {
		var out, errBuf strings.Builder
		err := run(t.Context(), append(c.args, "-q"), &out, &errBuf)
		if err == nil || errors.Is(err, cli.ErrUsage) || !strings.Contains(err.Error(), c.bound) {
			t.Errorf("%v returned %v, want an error naming %q", c.args, err, c.bound)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed a report:\n%s", c.args, out.String())
		}
	}
}

// TestRunSeriesDirSmoke: the -series-dir flag writes one parseable
// per-interval CSV per run of a tiny grid, and -workload (the singular
// alias) accepts catalog names with a burst axis.
func TestRunSeriesDirSmoke(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "series")
	var out, errBuf strings.Builder
	args := []string{"-workload", "burst-mix-hi", "-schemes", "wb,lbica",
		"-burst-mult", "1,2", "-intervals", "4", "-series-dir", dir, "-q"}
	if err := run(t.Context(), args, &out, &errBuf); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 4 { // 1 workload × 2 schemes × 2 bursts × 1 seed
		t.Fatalf("got %d series files, want 4", len(ents))
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
		if !strings.HasPrefix(lines[0], "interval,cache_load_us,disk_load_us,hit_ratio,group,policy") {
			t.Errorf("%s: unexpected header %q", e.Name(), lines[0])
		}
		if len(lines)-1 != 4 {
			t.Errorf("%s: %d data rows, want the 4 intervals", e.Name(), len(lines)-1)
		}
	}
	if !strings.Contains(out.String(), "burst×") {
		t.Errorf("burst-axis report missing the burst column:\n%s", out.String())
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out, errBuf strings.Builder
	err := run(t.Context(), []string{"-workloads", "nope", "-intervals", "2", "-q"}, &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("got %v, want unknown-workload error", err)
	}
}

// TestRunCancelledBeforeStart: a context cancelled before any run
// completes yields the error, not an empty report.
func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	var out, errBuf strings.Builder
	if err := run(ctx, sweepArgs, &out, &errBuf); !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
	if out.Len() != 0 {
		t.Errorf("cancelled-before-start run still produced a report:\n%s", out.String())
	}
}

// Smoke: -cpuprofile/-memprofile must write non-empty profile files.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	var out, errBuf strings.Builder
	args := append(append([]string{}, sweepArgs...), "-cpuprofile", cpu, "-memprofile", mem)
	if err := run(t.Context(), args, &out, &errBuf); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// The array axes reach the sweep: -volumes/-route-skew must expand the
// grid and surface in the emitted CSV's array layout.
func TestRunArrayAxes(t *testing.T) {
	var out, errBuf strings.Builder
	err := run(t.Context(),
		[]string{"-workloads", "tpcc", "-schemes", "wb,lbica", "-volumes", "2,4",
			"-route-skew", "0,1.2", "-intervals", "3", "-format", "csv", "-q"},
		&out, &errBuf)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if !strings.Contains(lines[0], "volumes,route_skew") {
		t.Fatalf("array sweep emitted header %q without array columns", lines[0])
	}
	if got, want := len(lines)-1, 2*2*2; got != want {
		t.Errorf("emitted %d cells, want %d", got, want)
	}
	// Bad axis values are usage errors, not silent rewrites.
	for _, args := range [][]string{
		{"-volumes", "0"},
		{"-volumes", "x"},
		{"-volumes", "2", "-route-skew", "-1"},
		{"-volumes", "2", "-route-variant", "nope"},
	} {
		var o, e strings.Builder
		if err := run(t.Context(), append(args, "-intervals", "2", "-q"), &o, &e); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// -ci-tol drives the adaptive scheduler end to end: a loose tolerance
// stops replicates at the CI floor, the text report carries the
// early-termination summary, and stderr logs the count.
func TestRunCITol(t *testing.T) {
	var out, errBuf strings.Builder
	err := run(t.Context(),
		[]string{"-workloads", "tpcc", "-schemes", "wb,lbica", "-seeds", "4",
			"-intervals", "4", "-ci-tol", "1000"},
		&out, &errBuf)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}
	if !strings.Contains(out.String(), "early termination: 2 of 2 cells stopped below 4 replicates (ci tolerance 1000)") {
		t.Errorf("report missing the early-termination summary:\n%s", out.String())
	}
	if !strings.Contains(errBuf.String(), "early termination:") {
		t.Errorf("stderr missing the early-termination count:\n%s", errBuf.String())
	}
}

// -warmup surfaces the warm plan's outcome counts on stderr, so a sweep
// that silently stopped sharing is visible.
func TestRunWarmPlanLog(t *testing.T) {
	var out, errBuf strings.Builder
	err := run(t.Context(),
		[]string{"-workloads", "tpcc", "-schemes", "wb,sib,lbica",
			"-intervals", "6", "-warmup", "2"},
		&out, &errBuf)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "warm plan: 1 leader,") {
		t.Errorf("stderr missing the warm-plan summary:\n%s", errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "sib ×1") {
		t.Errorf("stderr missing the sib fallback count:\n%s", errBuf.String())
	}
}

// -warm-cache: the first invocation stores the warmup prefixes (the
// shared leader prefix and the scratch SIB member's private one), the
// second restores both, both emit byte-identical reports, and the stderr
// warm-plan line carries the cache tallies.
func TestRunWarmCache(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "warm-cache")
	args := []string{"-workloads", "tpcc", "-schemes", "wb,sib,lbica",
		"-intervals", "6", "-warmup", "2", "-warm-cache", dir, "-format", "csv"}

	var out1, err1 strings.Builder
	if err := run(t.Context(), args, &out1, &err1); err != nil {
		t.Fatalf("first run: %v (stderr: %s)", err, err1.String())
	}
	if !strings.Contains(err1.String(), "cache: 0 hit, 2 stored") {
		t.Errorf("first run stderr missing the store tally:\n%s", err1.String())
	}

	var out2, err2 strings.Builder
	if err := run(t.Context(), args, &out2, &err2); err != nil {
		t.Fatalf("second run: %v (stderr: %s)", err, err2.String())
	}
	if !strings.Contains(err2.String(), "cache: 2 hit, 0 stored") {
		t.Errorf("second run stderr missing the hit tally:\n%s", err2.String())
	}
	if out1.String() != out2.String() {
		t.Errorf("cache hit changed the emitted report:\n--- first\n%s--- second\n%s", out1.String(), out2.String())
	}
}

// -warm-cache validation is eager: a missing -warmup and an unusable
// directory are flag-parse failures, before any simulation starts.
func TestRunWarmCacheValidation(t *testing.T) {
	var out, errBuf strings.Builder
	err := run(t.Context(), []string{"-warm-cache", t.TempDir(), "-q"}, &out, &errBuf)
	if !errors.Is(err, cli.ErrUsage) {
		t.Errorf("-warm-cache without -warmup returned %v, want cli.ErrUsage", err)
	}
	if !strings.Contains(errBuf.String(), "-warmup") {
		t.Errorf("stderr does not explain the -warmup requirement:\n%s", errBuf.String())
	}

	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errBuf.Reset()
	err = run(t.Context(), []string{"-warmup", "2", "-warm-cache", file, "-q"}, &out, &errBuf)
	if !errors.Is(err, cli.ErrUsage) {
		t.Errorf("-warm-cache over a regular file returned %v, want cli.ErrUsage", err)
	}
	if out.Len() != 0 {
		t.Errorf("invalid cache dir still produced a report:\n%s", out.String())
	}
}

// A mixed-width grid with a non-zero skew runs in one invocation: skew is
// inert at one volume, so the width-1 cells canonicalize to skew 0 and
// the collapsed combinations land in the log instead of failing the run.
func TestRunMixedWidthSkew(t *testing.T) {
	var out, errBuf strings.Builder
	err := run(t.Context(),
		[]string{"-workloads", "tpcc", "-schemes", "wb", "-volumes", "1,4",
			"-route-skew", "0,1.2", "-intervals", "2", "-format", "csv"},
		&out, &errBuf)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}
	// 3 cells survive: (1,0), (4,0), (4,1.2) — the (1,1.2) combo collapses.
	if got, want := len(strings.Split(strings.TrimSpace(out.String()), "\n"))-1, 3; got != want {
		t.Errorf("emitted %d cells, want %d:\n%s", got, want, out.String())
	}
	if !strings.Contains(errBuf.String(), "skipped") || !strings.Contains(errBuf.String(), "1.2") {
		t.Errorf("stderr does not log the collapsed combination:\n%s", errBuf.String())
	}
}
