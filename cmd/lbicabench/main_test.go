package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lbica/internal/cli"
	"lbica/internal/perf"
)

// Smoke: a reduced-scale sweep must emit every figure CSV with content
// plus the headline table.
func TestRunEmitsFigures(t *testing.T) {
	dir := t.TempDir()
	var out, errBuf strings.Builder
	err := run(t.Context(),
		[]string{"-out", dir, "-intervals", "10", "-workers", "2"},
		&out, &errBuf)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}
	for _, name := range []string{
		"fig4_tpcc_cache_load.csv", "fig4_mail_cache_load.csv", "fig4_web_cache_load.csv",
		"fig5_tpcc_disk_load.csv", "fig6_mail_lbica_timeline.csv", "fig7_avg_latency.csv",
	} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s not written: %v", name, err)
		}
		if lines := strings.Count(string(b), "\n"); lines < 2 {
			t.Errorf("%s has %d lines — header only?", name, lines)
		}
	}
	if !strings.Contains(out.String(), "headline aggregates") {
		t.Errorf("stdout missing headline table:\n%s", out.String())
	}
	if !strings.Contains(errBuf.String(), "9/9 runs done") {
		t.Errorf("stderr missing progress lines:\n%s", errBuf.String())
	}
}

func TestRunSummaryOnly(t *testing.T) {
	var out, errBuf strings.Builder
	err := run(t.Context(), []string{"-summary", "-intervals", "8"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "| workload |") || !strings.Contains(got, "average") {
		t.Errorf("headline table malformed:\n%s", got)
	}
	if strings.Contains(got, "wrote ") {
		t.Error("-summary still wrote CSV files")
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	var out, errBuf strings.Builder
	if err := run(ctx, []string{"-summary", "-intervals", "5"}, &out, &errBuf); err == nil {
		t.Error("cancelled context returned nil error")
	}
}

func TestRunHelpIsNotAnError(t *testing.T) {
	var out, errBuf strings.Builder
	// flag.ErrHelp is the success-exit sentinel cli.Main maps to code 0.
	if err := run(t.Context(), []string{"-h"}, &out, &errBuf); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h returned %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(errBuf.String(), "Usage of lbicabench") {
		t.Errorf("-h did not print usage:\n%s", errBuf.String())
	}
}

// Smoke: -perf emits a machine-readable JSON report for the filtered
// benchmark set without touching the figure pipeline.
func TestRunPerfMode(t *testing.T) {
	var out, errBuf strings.Builder
	err := run(t.Context(), []string{"-perf", "-perf-filter", "schedule-fire-16"}, &out, &errBuf)
	if err != nil {
		t.Fatalf("run -perf: %v (stderr: %s)", err, errBuf.String())
	}
	var rep perf.Report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("stdout is not a perf report: %v\n%s", err, out.String())
	}
	if len(rep.Results) != 1 || rep.Results[0].Name != "kernel/schedule-fire-16" {
		t.Fatalf("unexpected results: %+v", rep.Results)
	}
	if rep.Results[0].NsPerOp <= 0 {
		t.Errorf("degenerate measurement: %+v", rep.Results[0])
	}
}

// -perf-check reruns a committed baseline's benchmarks and gates on the
// tolerance band: a self-consistent baseline passes, an absurdly fast
// one fails with named regressions, and a missing or malformed baseline
// file is an error before any benchmark runs.
func TestRunPerfCheck(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep perf.Report) string {
		t.Helper()
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// Generous baseline for a cheap microbenchmark: must pass.
	pass := write("pass.json", perf.Report{Intervals: 1, Results: []perf.Result{
		{Name: "kernel/schedule-fire", NsPerOp: 1e9, AllocsPerOp: 1 << 20},
	}})
	var out, errBuf strings.Builder
	if err := run(t.Context(), []string{"-perf-check", pass}, &out, &errBuf); err != nil {
		t.Fatalf("generous baseline failed: %v (stderr: %s)", err, errBuf.String())
	}
	var rep perf.Report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("stdout is not a perf report: %v\n%s", err, out.String())
	}
	if !strings.Contains(errBuf.String(), "within tolerance") {
		t.Errorf("pass verdict missing from stderr:\n%s", errBuf.String())
	}

	// Unreachable baseline plus a vanished benchmark: must fail and name
	// both breaches.
	fail := write("fail.json", perf.Report{Intervals: 1, Results: []perf.Result{
		{Name: "kernel/schedule-fire", NsPerOp: 1e-6, AllocsPerOp: 0},
		{Name: "no/such-bench", NsPerOp: 1, AllocsPerOp: 1},
	}})
	out.Reset()
	errBuf.Reset()
	if err := run(t.Context(), []string{"-perf-check", fail}, &out, &errBuf); err == nil {
		t.Fatal("regressed baseline passed the perf check")
	}
	if s := errBuf.String(); !strings.Contains(s, "kernel/schedule-fire") || !strings.Contains(s, "no/such-bench") {
		t.Errorf("breaches not named on stderr:\n%s", s)
	}

	if err := run(t.Context(), []string{"-perf-check", filepath.Join(dir, "absent.json")}, &out, &errBuf); err == nil {
		t.Error("missing baseline file passed")
	}
	empty := write("empty.json", perf.Report{})
	if err := run(t.Context(), []string{"-perf-check", empty}, &out, &errBuf); err == nil {
		t.Error("baseline naming no benchmarks passed")
	}
}

// -perf-check takes a comma-separated baseline list, checking each in
// turn; every baseline must be a perf report (the one BENCH_*.json
// schema).
func TestRunPerfCheckMultiBaseline(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep perf.Report) string {
		t.Helper()
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	report := write("report.json", perf.Report{Intervals: 1, Results: []perf.Result{
		{Name: "kernel/schedule-fire-16", NsPerOp: 1e9, AllocsPerOp: 1 << 20},
	}})
	second := write("second.json", perf.Report{Results: []perf.Result{
		{Name: "kernel/schedule-fire", NsPerOp: 1e9, AllocsPerOp: 1 << 20},
	}})

	var out, errBuf strings.Builder
	if err := run(t.Context(), []string{"-perf-check", report + "," + second}, &out, &errBuf); err != nil {
		t.Fatalf("generous baseline list failed: %v (stderr: %s)", err, errBuf.String())
	}
	if got := strings.Count(errBuf.String(), "within tolerance"); got != 2 {
		t.Errorf("want 2 pass verdicts (one per baseline), got %d:\n%s", got, errBuf.String())
	}

	// A regression in any listed baseline fails the whole gate.
	regressed := write("regressed.json", perf.Report{Results: []perf.Result{
		{Name: "kernel/schedule-fire", NsPerOp: 1e-6, AllocsPerOp: 0},
	}})
	errBuf.Reset()
	if err := run(t.Context(), []string{"-perf-check", report + "," + regressed}, &out, &errBuf); err == nil {
		t.Fatal("regressed baseline passed the multi-baseline gate")
	}

	// A file in any other schema is an error, not an empty gate.
	other := filepath.Join(dir, "other.json")
	if err := os.WriteFile(other, []byte(`{"results": {"kernel/schedule-fire": {"after": {"ns_per_op": 1}}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), []string{"-perf-check", other}, &out, &errBuf); err == nil {
		t.Error("a baseline that is not a perf report passed")
	}
}

// Bad matrix flags are usage errors before anything runs — in the perf
// suite too — and -fig only names a figure that exists.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-intervals", "-3", "-summary"},
		{"-rate", "-1"},
		{"-perf", "-perf-filter", "matrix", "-intervals", "-1"},
		{"-fig", "9"},
	} {
		var out, errBuf strings.Builder
		if err := run(t.Context(), append(args, "-out", t.TempDir()), &out, &errBuf); !errors.Is(err, cli.ErrUsage) {
			t.Errorf("args %v: err = %v, want cli.ErrUsage", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("args %v: wrote to stdout:\n%s", args, out.String())
		}
	}
}

// -volumes threads the array width through the whole matrix; bad values
// are usage errors.
func TestRunArrayMatrix(t *testing.T) {
	var out, errBuf strings.Builder
	if err := run(t.Context(), []string{"-summary", "-intervals", "3", "-volumes", "2"}, &out, &errBuf); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}
	if !strings.Contains(out.String(), "| workload |") {
		t.Errorf("array matrix produced no headline table:\n%s", out.String())
	}
	for _, args := range [][]string{
		{"-volumes", "0"},
		{"-volumes", "2", "-route-skew", "-2"},
		{"-volumes", "1", "-route-skew", "1.2"},
	} {
		var o, e strings.Builder
		if err := run(t.Context(), append([]string{"-summary", "-intervals", "2"}, args...), &o, &e); !errors.Is(err, cli.ErrUsage) {
			t.Errorf("args %v: err = %v, want cli.ErrUsage", args, err)
		}
	}
}
