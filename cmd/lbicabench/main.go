// Command lbicabench regenerates the paper's entire evaluation section:
// Figs. 4 and 5 (per-interval cache and disk load under WB, SIB and
// LBICA), Fig. 6 (LBICA's decision timeline), Fig. 7 (average latency),
// and the headline aggregates, as CSV files plus a summary on stdout.
//
// The 3 workloads × 3 schemes matrix is fanned out across a bounded
// worker pool (-workers, default GOMAXPROCS); output is byte-identical
// for every worker count, including -workers 1. Ctrl-C cancels the
// sweep at the next simulation event boundary.
//
// Usage:
//
//	lbicabench                 # everything into ./results/
//	lbicabench -out /tmp/r     # choose the output directory
//	lbicabench -fig 6          # only Fig. 6
//	lbicabench -summary        # just the headline table on stdout
//	lbicabench -workers 1      # serial baseline
//
// With -perf it instead runs the hot-path benchmark suite (kernel
// schedule/fire, generator Zipf draw and tpcc request, router Zipf pick,
// cache hit/miss, queue push/merge, full-matrix end-to-end) and emits
// machine-readable JSON — the command that regenerates BENCH_hotpath.json:
//
//	lbicabench -perf                          # full suite, paper-scale matrix
//	lbicabench -perf -perf-filter kernel      # kernel microbenchmarks only
//	lbicabench -perf -perf-filter generator   # generator microbenchmarks only
//	lbicabench -perf -intervals 20            # coarse, fast matrix scale
//
// -volumes runs the whole evaluation over a sharded multi-volume array
// (optionally with -route-skew for skewed routing), and
// `-perf -perf-filter shard` measures shard scaling — the command that
// regenerates BENCH_shard.json:
//
//	lbicabench -volumes 4 -summary
//	lbicabench -perf -perf-filter shard
//
// `-perf -perf-filter array` measures the array-lb controller's
// overhead on the pinned hot-shard regime (static vs controlled
// routing) — the command that regenerates BENCH_array.json — and
// `-perf -perf-filter sweep` measures the shared-warmup sweep win
// (scratch vs warm-fork on a three-scheme comparison grid), the command
// that regenerates BENCH_sweep.json; the file also carries the checkpoint
// codec's entries, from `-perf -perf-filter ckpt/`. -perf-check is the CI
// gate around the committed baselines: given a comma-separated list it
// reruns exactly each baseline's benchmarks at its recorded scale and
// exits non-zero on any regression beyond the tolerance band:
//
//	lbicabench -perf -perf-filter array > BENCH_array.json
//	lbicabench -perf -perf-filter sweep > BENCH_sweep.json
//	lbicabench -perf-check BENCH_array.json,BENCH_hotpath.json,BENCH_shard.json,BENCH_sweep.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lbica/internal/array"
	"lbica/internal/cli"
	"lbica/internal/experiments"
	"lbica/internal/perf"
)

func main() { cli.Main("lbicabench", run) }

// loadBaseline parses a committed perf baseline: the perf.Report
// artifact `-perf` emits, the one schema every BENCH_*.json file uses.
func loadBaseline(path string) (perf.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return perf.Report{}, err
	}
	var base perf.Report
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&base); err != nil {
		return perf.Report{}, fmt.Errorf("lbicabench: baseline %s is not a perf report: %w", path, err)
	}
	return base, nil
}

// runPerfCheck is the CI perf gate: load each committed perf baseline
// (comma-separated paths), rerun exactly its benchmarks at its recorded
// matrix scale, and fail on any breach of the tolerance band (allocs
// tight, wall time loose — see perf.Check). The fresh measurements go to
// stdout as JSON so a failing run leaves a diffable artifact.
func runPerfCheck(paths string, stdout, stderr io.Writer) error {
	var failures []error
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	for _, path := range strings.Split(paths, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		base, err := loadBaseline(path)
		if err != nil {
			return err
		}
		if len(base.Results) == 0 {
			return fmt.Errorf("lbicabench: baseline %s names no benchmarks", path)
		}
		names := make([]string, len(base.Results))
		for i, r := range base.Results {
			names[i] = r.Name
		}
		fmt.Fprintf(stderr, "perf check: rerunning %d benchmarks from %s (matrix intervals %d)...\n",
			len(names), path, base.Intervals)
		cur := perf.RunExact(names, base.Intervals)
		if err := enc.Encode(cur); err != nil {
			return err
		}
		breaches := perf.Check(base, cur)
		for _, b := range breaches {
			fmt.Fprintln(stderr, "perf check: REGRESSION:", b)
		}
		if len(breaches) > 0 {
			failures = append(failures, fmt.Errorf("lbicabench: %d perf regressions against %s", len(breaches), path))
			continue
		}
		fmt.Fprintf(stderr, "perf check: all %d benchmarks within tolerance of %s\n", len(names), path)
	}
	return errors.Join(failures...)
}

// run is the testable body of main: flags in, CSV/summary out.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lbicabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out        = fs.String("out", "results", "output directory for CSV files")
		fig        = fs.Int("fig", 0, "regenerate only this figure (4, 5, 6 or 7); 0 = all")
		summary    = fs.Bool("summary", false, "print only the headline table")
		seed       = fs.Int64("seed", 1, "random seed")
		rate       = fs.Float64("rate", 1, "workload IOPS scale factor")
		workers    = fs.Int("workers", 0, "worker pool size for the matrix (0 = GOMAXPROCS, 1 = serial)")
		intervals  = fs.Int("intervals", 0, "override the per-run interval count (0 = paper scale)")
		volumes    = fs.Int("volumes", 1, "shard every matrix cell across this many independent cache+disk volumes (1 = the paper's single stack)")
		routeSkew  = fs.Float64("route-skew", 0, "router Zipf skew over volume popularity (0 = uniform routing; needs -volumes > 1)")
		perfMode   = fs.Bool("perf", false, "run the hot-path benchmark suite and emit JSON results on stdout")
		perfFilter = fs.String("perf-filter", "", "with -perf: run only benchmarks whose name contains this substring")
		perfCheck  = fs.String("perf-check", "", "comma-separated committed baseline JSONs: rerun the benchmarks each names at its recorded scale and fail on any regression beyond the tolerance band")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	if *perfCheck != "" {
		return runPerfCheck(*perfCheck, stdout, stderr)
	}

	// Every matrix spec is checked before anything runs — the perf suite's
	// matrix entries included — so a bad flag is a usage error, not a
	// panic inside the worker pool.
	if *fig != 0 && (*fig < 4 || *fig > 7) {
		fmt.Fprintf(stderr, "lbicabench: -fig %d is not one of 0, 4, 5, 6, 7\n", *fig)
		return cli.ErrUsage
	}
	if *volumes < 1 || *volumes > array.MaxVolumes {
		fmt.Fprintf(stderr, "lbicabench: -volumes %d outside [1, %d]\n", *volumes, array.MaxVolumes)
		return cli.ErrUsage
	}
	if *routeSkew != 0 && (*volumes < 2 || !(*routeSkew > 0 && *routeSkew <= array.MaxSkew)) {
		fmt.Fprintf(stderr, "lbicabench: -route-skew %v needs -volumes > 1 and a value in (0, %v]\n", *routeSkew, array.MaxSkew)
		return cli.ErrUsage
	}
	specs := experiments.MatrixSpecs(*seed, *rate)
	for i := range specs {
		specs[i].Intervals = *intervals
		specs[i].Volumes = *volumes
		specs[i].RouteSkew = *routeSkew
		if err := specs[i].Validate(); err != nil {
			fmt.Fprintf(stderr, "lbicabench: %v\n", err)
			return cli.ErrUsage
		}
	}

	if *perfMode {
		rep := perf.Run(*perfFilter, *intervals)
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}

	start := time.Now()
	fmt.Fprintf(stderr, "running the 3 workloads × 3 schemes matrix...\n")
	m, err := experiments.RunSpecs(ctx, specs, *workers, func(done, total int) {
		fmt.Fprintf(stderr, "  %d/%d runs done (%v)\n", done, total, time.Since(start).Round(time.Millisecond))
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "matrix done in %v\n", time.Since(start).Round(time.Millisecond))

	if *summary {
		return experiments.WriteHeadlines(stdout, experiments.ComputeHeadlines(m))
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	emit := func(name string, write func(f *os.File) error) error {
		path := filepath.Join(*out, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", path)
		return nil
	}

	want := func(n int) bool { return *fig == 0 || *fig == n }

	for _, wl := range experiments.Workloads {
		if want(4) {
			if err := emit(fmt.Sprintf("fig4_%s_cache_load.csv", wl), func(f *os.File) error {
				return experiments.Fig4(m, wl).WriteCSV(f)
			}); err != nil {
				return err
			}
		}
		if want(5) {
			if err := emit(fmt.Sprintf("fig5_%s_disk_load.csv", wl), func(f *os.File) error {
				return experiments.Fig5(m, wl).WriteCSV(f)
			}); err != nil {
				return err
			}
		}
		if want(6) {
			if err := emit(fmt.Sprintf("fig6_%s_lbica_timeline.csv", wl), func(f *os.File) error {
				return experiments.WriteFig6CSV(f, experiments.Fig6(m[wl][experiments.SchemeLBICA]))
			}); err != nil {
				return err
			}
		}
	}
	if want(7) {
		if err := emit("fig7_avg_latency.csv", func(f *os.File) error {
			return experiments.WriteFig7CSV(f, experiments.Fig7(m))
		}); err != nil {
			return err
		}
	}

	if *fig == 0 {
		fmt.Fprintln(stdout, "\nheadline aggregates (LBICA improvement, positive = better):")
		if err := experiments.WriteHeadlines(stdout, experiments.ComputeHeadlines(m)); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "\nLBICA decision timelines:")
		for _, wl := range experiments.Workloads {
			res := m[wl][experiments.SchemeLBICA]
			fmt.Fprintf(stdout, "  %s:\n", wl)
			for _, pc := range res.Timeline {
				fmt.Fprintf(stdout, "    interval %3d: %-4s (%s)\n", pc.Interval, pc.Policy, pc.Group)
			}
		}
	}
	return nil
}
