// Command lbicasweep runs a parameter-sweep grid — workloads × schemes ×
// cache-size multipliers × rate factors × seed replicates — through the
// bounded worker pool and reports per-cell summaries: mean/min/max
// max-queue-time, latency, hit ratio, policy-flip counts, and
// LBICA-vs-WB / LBICA-vs-SIB speedups.
//
// The paper evaluates a fixed 3 workloads × 3 schemes matrix; lbicasweep
// generalizes it along the axes the claims should be robust to. Every
// scheme inside a seed replicate shares the replicate's seed, so schemes
// always see an identical workload (the paper's controlled comparison),
// and output is byte-identical for every -workers value. Ctrl-C cancels
// the sweep at the next event boundary and emits a partial report over
// the runs that completed.
//
// # Usage
//
// Sweep the full paper matrix across three cache sizes, three arrival
// rates and three seeds (3×3×3×3×3 runs), with progress on stderr:
//
//	lbicasweep -cache-mult 0.5,1,2 -rate 0.8,1,1.2 -seeds 3
//
// Restrict the axes and pick the output format:
//
//	lbicasweep -workloads tpcc -schemes wb,lbica -cache-mult 0.5,1,2 -format csv
//	lbicasweep -seeds 5 -format json > sweep.json
//
// Write the machine-readable artifacts (cells CSV + full JSON) into a
// directory while keeping the text report on stdout:
//
//	lbicasweep -cache-mult 0.5,1,2 -out results/sweep
//
// Shorten runs for a quick look (the paper runs 200 intervals; 20 is a
// coarse but fast preview), serial baseline for determinism checks:
//
//	lbicasweep -intervals 20 -workers 1
//
// -warmup shares one simulated warmup prefix across all schemes of a
// grid coordinate: the prefix runs once and each scheme's run is
// restored from the warm state. Output bytes are identical to -warmup 0; only
// wall-clock time shrinks:
//
//	lbicasweep -warmup 50
//
// -warm-cache persists those shared warmup prefixes across invocations:
// each prefix is looked up in the content-addressed checkpoint store at
// DIR before being simulated and written through after, so re-running a
// sweep — narrowing axes, adding seeds, recovering from an interrupt —
// skips the warmup simulation entirely on the second pass. Output bytes
// stay identical; corrupt or stale cache entries fall back to simulation
// and are overwritten. Requires -warmup:
//
//	lbicasweep -warmup 50 -warm-cache ~/.cache/lbica-warm
//
// -ci-tol turns on cross-cell early termination: a grid coordinate stops
// launching further seed replicates once every scheme's 95% confidence
// half-width over the q-mean metric is within this fraction of its mean
// (at least two replicates always run), and the freed worker slot moves
// on to unfinished coordinates. Terminated cells are marked in the
// output with their achieved half-width and actual replicate count:
//
//	lbicasweep -seeds 8 -ci-tol 0.05
//
// Beyond the paper trio, -workload accepts any workload-catalog name —
// synthetic primitives (synth-randread, synth-seqwrite, ...), Zipf-
// parameterized variants (synth-randread-zipf1.2) and the burst-mix
// family whose ON-rate multiple, duty cycle and read ratio ride in the
// name (burst-mix-hi, burst-mix-on6x-duty0.45-read0.35). -burst-mult adds
// the burst-intensity axis (scaling every bursting phase's ON rate and
// duty cycle), and -series-dir exports each cell's per-interval timeline:
//
//	lbicasweep -workload synth-randread-zipf1.2,burst-mix-hi \
//	    -burst-mult 0.5,1,2 -series-dir out/
//
// -volumes shards every run across an array of independent cache+disk
// volumes behind a deterministic router (volume-per-core), and
// -route-skew Zipf-skews the router's volume popularity — the
// imbalanced-fleet regime:
//
//	lbicasweep -workloads tpcc -schemes wb,lbica -volumes 2,4 -route-skew 0,1.2
//
// Skew is inert at one volume, so mixed-width grids work in one
// invocation — width-1 cells canonicalize to the skew-0 cell and the
// collapsed combinations are logged, not fatal:
//
//	lbicasweep -volumes 1,4 -route-skew 0,1.2
//
// Scheme array-lb adds the array-level controller (adaptive routing +
// hot-block migration) on top of per-volume LBICA; -route-variant picks
// its routing mechanism:
//
//	lbicasweep -workloads tpcc -schemes lbica,array-lb -volumes 3 \
//	    -route-skew 1.2 -route-variant weighted
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"lbica"
	"lbica/internal/checkpoint"
	"lbica/internal/cli"
	"lbica/internal/experiments"
)

func main() { cli.Main("lbicasweep", run) }

// splitList parses a comma-separated flag value ("" = nil).
func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// splitInts parses a comma-separated integer list ("" = nil).
func splitInts(s string) ([]int, error) {
	parts := splitList(s)
	if parts == nil {
		return nil, nil
	}
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in list %q", p, s)
		}
		out[i] = v
	}
	return out, nil
}

// splitFloats parses a comma-separated float list ("" = nil).
func splitFloats(s string) ([]float64, error) {
	parts := splitList(s)
	if parts == nil {
		return nil, nil
	}
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q in list %q", p, s)
		}
		out[i] = v
	}
	return out, nil
}

// run is the testable body of main: flags in, report out.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lbicasweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names, patterns := experiments.WorkloadCatalog()
	workloadHelp := "comma list of workload-catalog names (empty = the paper trio): " +
		strings.Join(names, ",") + "; families: " + strings.Join(patterns, ", ")
	var workloads string
	fs.StringVar(&workloads, "workloads", "", workloadHelp)
	fs.StringVar(&workloads, "workload", "", "alias for -workloads")
	var (
		schemes      = fs.String("schemes", "", "comma list of schemes: wb,sib,lbica,array-lb (empty = the paper trio wb,sib,lbica)")
		cacheMult    = fs.String("cache-mult", "1", "comma list of cache-size multipliers (1 = the paper's 256 MiB)")
		rate         = fs.String("rate", "1", "comma list of workload IOPS scale factors")
		burstMult    = fs.String("burst-mult", "1", "comma list of burst-intensity multipliers scaling every bursting phase's ON rate and duty cycle (1 = the published burst shapes)")
		volumes      = fs.String("volumes", "1", "comma list of array widths: shard each run across this many independent cache+disk volumes (1 = the paper's single stack)")
		routeSkew    = fs.String("route-skew", "0", "comma list of router Zipf skews over volume popularity (0 = uniform routing; inert at one volume — width-1 cells collapse to skew 0)")
		routeVariant = fs.String("route-variant", "", "array-lb controller routing mechanism: weighted|p2c (empty = weighted; other schemes ignore it)")
		seeds        = fs.Int("seeds", 1, "seed replicates per cell (replicate seeds derive from -seed)")
		seed         = fs.Int64("seed", 1, "base random seed")
		intervals    = fs.Int("intervals", 0, "monitor intervals per run (0 = paper default per workload)")
		interval     = fs.Duration("interval", 200*time.Millisecond, "monitor interval length (virtual time)")
		warmup       = fs.Int("warmup", 0, "shared-warmup intervals: schemes at the same grid coordinate share one simulated warmup prefix of this length via state forking (0 = off; output bytes are identical either way)")
		warmCache    = fs.String("warm-cache", "", "persist shared warmup prefixes in the checkpoint store at this directory (created if absent) and restore them on later invocations; requires -warmup, output bytes are identical either way")
		ciTol        = fs.Float64("ci-tol", 0, "relative confidence tolerance for early termination: stop a coordinate's seed replicates once every scheme's 95% CI half-width over the q-mean metric is within this fraction of its mean (0 = off, run every replicate; needs -seeds > 2 to save anything)")
		workers      = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
		format       = fs.String("format", "text", "stdout format: text|csv|json")
		out          = fs.String("out", "", "also write sweep_cells.csv and sweep.json into this directory")
		seriesDir    = fs.String("series-dir", "", "write each cell's per-interval series (cache/disk load, hit ratio, group, policy) as one CSV into this directory")
		quiet        = fs.Bool("q", false, "suppress the progress log on stderr")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProfile   = fs.String("memprofile", "", "write a heap profile (post-sweep) to this file")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	stopProfiles, err := cli.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "lbicasweep: profile:", err)
		}
	}()
	switch *format {
	case "text", "csv", "json":
	default:
		fmt.Fprintf(stderr, "lbicasweep: unknown -format %q (want text|csv|json)\n", *format)
		return cli.ErrUsage
	}
	mults, err := splitFloats(*cacheMult)
	if err != nil {
		fmt.Fprintln(stderr, "lbicasweep: -cache-mult:", err)
		return cli.ErrUsage
	}
	rates, err := splitFloats(*rate)
	if err != nil {
		fmt.Fprintln(stderr, "lbicasweep: -rate:", err)
		return cli.ErrUsage
	}
	bursts, err := splitFloats(*burstMult)
	if err != nil {
		fmt.Fprintln(stderr, "lbicasweep: -burst-mult:", err)
		return cli.ErrUsage
	}
	vols, err := splitInts(*volumes)
	if err != nil {
		fmt.Fprintln(stderr, "lbicasweep: -volumes:", err)
		return cli.ErrUsage
	}
	skews, err := splitFloats(*routeSkew)
	if err != nil {
		fmt.Fprintln(stderr, "lbicasweep: -route-skew:", err)
		return cli.ErrUsage
	}
	if *warmCache != "" {
		// Eager validation, before any simulation: a cache directory that
		// is missing gets created now, and one that can never work (a
		// regular file in the way, an unwritable parent) fails the
		// invocation at flag-parse time instead of mid-sweep.
		if *warmup <= 0 {
			fmt.Fprintln(stderr, "lbicasweep: -warm-cache requires -warmup > 0 (the cache stores shared warmup prefixes)")
			return cli.ErrUsage
		}
		if _, err := checkpoint.Open(*warmCache); err != nil {
			fmt.Fprintln(stderr, "lbicasweep: -warm-cache:", err)
			return cli.ErrUsage
		}
	}

	grid := lbica.GridSpec{
		Workloads:       splitList(workloads),
		Schemes:         splitList(*schemes),
		CacheMults:      mults,
		RateFactors:     rates,
		BurstMults:      bursts,
		Volumes:         vols,
		RouteSkews:      skews,
		RouteVariant:    *routeVariant,
		SeedReplicates:  *seeds,
		Seed:            *seed,
		Intervals:       *intervals,
		IntervalLength:  *interval,
		WarmupIntervals: *warmup,
		WarmCacheDir:    *warmCache,
		CITolerance:     *ciTol,
	}
	opt := lbica.SweepOptions{Workers: *workers, SeriesDir: *seriesDir}
	start := time.Now()
	if !*quiet {
		opt.OnProgress = func(done, total int) {
			fmt.Fprintf(stderr, "  %d/%d runs done (%v)\n", done, total, time.Since(start).Round(time.Millisecond))
		}
	}

	res, runErr := lbica.Sweep(ctx, grid, opt)
	// An interrupted sweep still reports the runs that finished; a sweep
	// with nothing completed has no report worth rendering.
	if runErr != nil && (res == nil || res.Completed == 0) {
		return runErr
	}
	if errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "lbicasweep: sweep interrupted — partial report over %d/%d runs follows\n",
			res.Completed, res.Total)
	}
	if !*quiet {
		// Combinations the expansion canonicalized away (inert skew at
		// width 1) are a notice, not an error — the text report repeats
		// them, but csv/json stdout would swallow them silently.
		for _, s := range res.Skipped {
			fmt.Fprintln(stderr, "lbicasweep: skipped:", s)
		}
		// The warm plan's hit rate: without it a sharing regression (say,
		// every cell silently falling back to scratch) only shows up as an
		// unexplained slowdown.
		if res.Warm != nil {
			fmt.Fprintf(stderr, "lbicasweep: warm plan: %d leader, %d forked, %d scratch%s%s\n",
				res.Warm.Leaders, res.Warm.Forked, res.Warm.Scratch,
				fallbackSummary(res.Warm.Fallbacks), cacheSummary(res.Warm))
		}
		if grid.CITolerance > 0 {
			reps := grid.SeedReplicates
			if reps < 1 {
				reps = 1
			}
			term, saved := 0, 0
			for _, c := range res.Cells {
				if c.EarlyTerminated {
					term++
					saved += reps - c.Replicates
				}
			}
			fmt.Fprintf(stderr, "lbicasweep: early termination: %d/%d cells stopped early, %d replicate runs saved\n",
				term, len(res.Cells), saved)
		}
	}

	var emitErr error
	switch *format {
	case "csv":
		emitErr = res.WriteCSV(stdout)
	case "json":
		emitErr = res.WriteJSON(stdout)
	default:
		emitErr = res.WriteReport(stdout)
	}

	var outErr error
	if *out != "" {
		// Notices go to stderr: with -format csv/json, stdout is a
		// machine-readable stream that trailing "wrote ..." lines would
		// corrupt.
		outErr = writeArtifacts(*out, res, stderr)
	}
	if *seriesDir != "" {
		// Count what actually landed on disk: the export can fail (bad
		// path, full disk) with its error folded into runErr, and claiming
		// res.Completed files were written would contradict that error.
		if n := countSeriesFiles(*seriesDir); n > 0 {
			fmt.Fprintf(stderr, "wrote %d per-interval series files into %s\n", n, *seriesDir)
		}
	}
	return errors.Join(runErr, emitErr, outErr)
}

// fallbackSummary renders the scratch-fallback reasons of a warm plan as
// a parenthesized, deterministically ordered suffix ("" when every run
// shared).
func fallbackSummary(m map[string]int) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s ×%d", k, m[k])
	}
	return " (" + strings.Join(parts, ", ") + ")"
}

// cacheSummary renders the persistent warm-cache traffic as a "; cache:"
// suffix for the warm-plan line ("" when no store was configured).
func cacheSummary(w *lbica.SweepWarmStats) string {
	if w.CacheHits == 0 && w.CacheStores == 0 && w.CacheCorrupt == 0 {
		return ""
	}
	s := fmt.Sprintf("; cache: %d hit, %d stored", w.CacheHits, w.CacheStores)
	if w.CacheCorrupt > 0 {
		s += fmt.Sprintf(", %d corrupt entries replaced", w.CacheCorrupt)
	}
	return s
}

// countSeriesFiles returns how many exported series CSVs dir holds (0 on
// any read error).
func countSeriesFiles(dir string) int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "series_") && strings.HasSuffix(e.Name(), ".csv") {
			n++
		}
	}
	return n
}

// writeArtifacts drops the machine-readable outputs into dir, logging
// each path to the notices writer.
func writeArtifacts(dir string, res *lbica.SweepResult, notices io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, art := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"sweep_cells.csv", res.WriteCSV},
		{"sweep.json", res.WriteJSON},
	} {
		path := filepath.Join(dir, art.name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := art.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintln(notices, "wrote", path)
	}
	return nil
}
