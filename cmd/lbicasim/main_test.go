package main

import (
	"context"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lbica/internal/block"
	"lbica/internal/cli"
	"lbica/internal/workload"
)

// Smoke: a tiny run must produce the summary table with a non-zero
// request count.
func TestRunTable(t *testing.T) {
	var out, errBuf strings.Builder
	err := run(t.Context(),
		[]string{"-workload", "tpcc", "-scheme", "lbica", "-intervals", "5", "-cold"},
		&out, &errBuf)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}
	got := out.String()
	if !strings.Contains(got, "workload tpcc under LBICA (5 intervals") {
		t.Errorf("missing header, got:\n%s", got)
	}
	if !strings.Contains(got, "summary: ") || strings.Contains(got, "summary: 0 requests") {
		t.Errorf("missing or empty summary, got:\n%s", got)
	}
}

func TestRunCSV(t *testing.T) {
	var out, errBuf strings.Builder
	err := run(t.Context(),
		[]string{"-workload", "mail", "-scheme", "wb", "-intervals", "4", "-cold", "-csv"},
		&out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if lines[0] != "interval,cache_load_us,disk_load_us,burst,r_pct,w_pct,p_pct,e_pct,avg_latency_us,policy" {
		t.Errorf("csv header = %q", lines[0])
	}
	if len(lines) != 5 {
		t.Errorf("csv rows = %d, want 4 intervals + header", len(lines))
	}
}

func TestRunRecordReplay(t *testing.T) {
	rec := filepath.Join(t.TempDir(), "run.rec")
	var out, errBuf strings.Builder
	if err := run(t.Context(),
		[]string{"-workload", "web", "-scheme", "wb", "-intervals", "3", "-cold", "-record", rec},
		&out, &errBuf); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(t.Context(),
		[]string{"-replay", rec, "-intervals", "3", "-cold"},
		&out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "workload replay") {
		t.Errorf("replay output missing, got:\n%s", out.String())
	}
}

func TestRunHelpIsNotAnError(t *testing.T) {
	var out, errBuf strings.Builder
	// flag.ErrHelp is the success-exit sentinel cli.Main maps to code 0.
	if err := run(t.Context(), []string{"-h"}, &out, &errBuf); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h returned %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(errBuf.String(), "Usage of lbicasim") {
		t.Errorf("-h did not print usage:\n%s", errBuf.String())
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out, errBuf strings.Builder
	if err := run(t.Context(), []string{"-workload", "nope", "-intervals", "2"}, &out, &errBuf); err == nil {
		t.Error("unknown workload returned nil error")
	}
}

// TestRunRejectsUnboundedInputs: every input past a run bound exits with
// an error naming the bound and prints no report. Before the bounds a NaN
// rate ran a one-request simulation, a 10^12 or infinite rate hung, 10^8
// intervals ran out of memory, a record at 2^63−10 ns or a phase of
// 2^31−1 blocks crashed or exhausted the process, and a phase at 10^-12
// IOPS or a 10^-300 rate factor ran one request at t≈0.
func TestRunRejectsUnboundedInputs(t *testing.T) {
	dir := t.TempDir()
	late := filepath.Join(dir, "late.rec")
	f, err := os.Create(late)
	if err != nil {
		t.Fatal(err)
	}
	ext := block.Extent{LBA: 64, Sectors: 8}
	if err := workload.SaveRequests(f, []workload.Request{
		{At: time.Millisecond, Op: block.Read, Extent: ext},
		{At: math.MaxInt64 - 9, Op: block.Read, Extent: ext},
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	slowPhase := filepath.Join(dir, "slow.json")
	if err := os.WriteFile(slowPhase, []byte(`{"intervals": 3, "phases": [{"name": "slow", "duration": "1000h",
		"base_iops": 1e-12, "read_ratio": 1, "working_set_blocks": 1024}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	bigPhase := filepath.Join(dir, "phase.json")
	if err := os.WriteFile(bigPhase, []byte(`{"phases": [{"duration": "1s", "base_iops": 100,
		"read_ratio": 1, "working_set_blocks": 2147483647}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args  []string
		bound string
	}{
		{[]string{"-rate", "NaN"}, "10000"},
		{[]string{"-rate", "1e12"}, "10000"},
		{[]string{"-rate", "+Inf"}, "10000"},
		{[]string{"-intervals", "100000000"}, "volume-interval bound"},
		{[]string{"-interval", "2562047h"}, "clock bound"},
		{[]string{"-replay", late, "-intervals", "3"}, "request 1"},
		{[]string{"-config", bigPhase}, "16777216"},
		{[]string{"-config", slowPhase}, "workload.MinIOPS"},
		{[]string{"-workload", "tpcc", "-rate", "1e-300", "-intervals", "3"}, "workload.MinIOPS"},
	} {
		var out, errBuf strings.Builder
		err := run(t.Context(), c.args, &out, &errBuf)
		if err == nil || errors.Is(err, cli.ErrUsage) || !strings.Contains(err.Error(), c.bound) {
			t.Errorf("%v returned %v, want an error naming %q", c.args, err, c.bound)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed a report:\n%s", c.args, out.String())
		}
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	var out, errBuf strings.Builder
	if err := run(ctx, []string{"-intervals", "2", "-cold"}, &out, &errBuf); err == nil {
		t.Error("cancelled context returned nil error")
	}
}

// Smoke: -cpuprofile/-memprofile must write non-empty profile files.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	var out, errBuf strings.Builder
	err := run(t.Context(),
		[]string{"-workload", "tpcc", "-scheme", "wb", "-intervals", "3", "-cold",
			"-cpuprofile", cpu, "-memprofile", mem},
		&out, &errBuf)
	if err != nil {
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

// An unwritable profile path must fail up front, before the run.
func TestRunRejectsBadProfilePath(t *testing.T) {
	var out, errBuf strings.Builder
	err := run(t.Context(),
		[]string{"-workload", "tpcc", "-intervals", "1", "-cpuprofile", t.TempDir()},
		&out, &errBuf)
	if err == nil {
		t.Fatal("directory as -cpuprofile did not error")
	}
}

// -checkpoint saves mid-run state; -restore resumes it with output
// byte-identical to the uninterrupted run — a statically routed array's
// per-volume lines included.
func TestRunCheckpointRestore(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "warm.ckpt")
	base := []string{"-workload", "tpcc", "-scheme", "lbica", "-intervals", "6", "-cold"}
	array := []string{"-workload", "tpcc", "-intervals", "6", "-volumes", "3", "-route-skew", "1.2"}
	arrayLB := func(variant string) []string {
		return append([]string{"-scheme", "array-lb", "-seed", "3", "-route-variant", variant}, array...)
	}
	for _, tc := range []struct {
		args []string
		want string // a line the plain output must hold
	}{
		{base, "summary: "},
		{array, "  v2: "},
		{arrayLB("p2c"), "  v2: "},
		{arrayLB("weighted"), "  v2: "},
	} {
		var plain, saved, restored, errBuf strings.Builder
		if err := run(t.Context(), tc.args, &plain, &errBuf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plain.String(), tc.want) {
			t.Fatalf("%v: plain output lacks %q:\n%s", tc.args, tc.want, plain.String())
		}
		if err := run(t.Context(), append(tc.args, "-checkpoint", ckpt, "-checkpoint-at", "2"), &saved, &errBuf); err != nil {
			t.Fatal(err)
		}
		if saved.String() != plain.String() {
			t.Errorf("%v: checkpointing run's output diverged from the plain run's", tc.args)
		}
		if fi, err := os.Stat(ckpt); err != nil || fi.Size() == 0 {
			t.Fatalf("%v: checkpoint file not written: %v", tc.args, err)
		}
		if err := run(t.Context(), append(tc.args, "-restore", ckpt), &restored, &errBuf); err != nil {
			t.Fatal(err)
		}
		if restored.String() != plain.String() {
			t.Errorf("%v: restored run's output diverged from the plain run's", tc.args)
		}
	}

	// Restoring under different run flags is a hard error, not a
	// divergent resume: the file's key names the run, the array-lb
	// controller's variant included.
	var o, e strings.Builder
	if err := run(t.Context(), []string{"-workload", "mail", "-intervals", "6", "-cold", "-restore", ckpt}, &o, &e); err == nil {
		t.Error("restore under a different workload accepted")
	}
	err := run(t.Context(), append(arrayLB("p2c"), "-restore", ckpt), &o, &e)
	if err == nil || !strings.Contains(err.Error(), "different run configuration") {
		t.Errorf("a weighted array-lb checkpoint restored under -route-variant p2c: %v", err)
	}
}

func TestRunCheckpointFlagValidation(t *testing.T) {
	var o, e strings.Builder
	if err := run(t.Context(), []string{"-checkpoint", "a", "-restore", "b", "-intervals", "2"}, &o, &e); err == nil {
		t.Error("-checkpoint with -restore accepted")
	}
	if err := run(t.Context(), []string{"-checkpoint-at", "3", "-intervals", "2"}, &o, &e); err == nil {
		t.Error("-checkpoint-at without -checkpoint accepted")
	}
	if err := run(t.Context(), []string{"-checkpoint", filepath.Join(t.TempDir(), "x.ckpt"),
		"-checkpoint-at", "9", "-intervals", "2", "-cold"}, &o, &e); err == nil {
		t.Error("-checkpoint-at past the run end accepted")
	}
}

// -volumes shards the run and reports the per-volume breakdown.
func TestRunArrayVolumes(t *testing.T) {
	var out, errBuf strings.Builder
	err := run(t.Context(),
		[]string{"-workload", "tpcc", "-scheme", "lbica", "-intervals", "3",
			"-volumes", "2", "-route-policy", "hash", "-shard-workers", "1"},
		&out, &errBuf)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}
	if !strings.Contains(out.String(), "per-volume (array run):") ||
		!strings.Contains(out.String(), "v1:") {
		t.Errorf("array run output lacks the per-volume breakdown:\n%s", out.String())
	}
	var o, e strings.Builder
	if err := run(t.Context(), []string{"-volumes", "2", "-route-policy", "robin", "-intervals", "2"}, &o, &e); err == nil {
		t.Error("unknown -route-policy accepted")
	}
}
