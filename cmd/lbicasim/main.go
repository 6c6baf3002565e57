// Command lbicasim runs one workload under one scheme and prints the
// per-interval statistics, the policy timeline, and a summary. Ctrl-C
// cancels the run at the next simulation event boundary.
//
// Usage:
//
//	lbicasim -workload mail -scheme lbica
//	lbicasim -workload tpcc -scheme wb -intervals 50 -csv
//	lbicasim -workload web -scheme sib -trace run.trc
//	lbicasim -workload tpcc -volumes 4 -route-skew 1.2   # sharded array
//	lbicasim -workload tpcc -scheme array-lb -volumes 3 -route-skew 1.2
//	lbicasim -workload tpcc -checkpoint warm.ckpt -checkpoint-at 100
//	lbicasim -workload tpcc -restore warm.ckpt           # same output, resumed
//	lbicasim -workload tpcc -volumes 3 -route-skew 1.2 -checkpoint arr.ckpt -checkpoint-at 100
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"lbica"
	"lbica/internal/cli"
	"lbica/internal/experiments"
)

func main() { cli.Main("lbicasim", run) }

// run is the testable body of main: flags in, table/CSV out.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lbicasim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names, patterns := experiments.WorkloadCatalog()
	var (
		workloadName = fs.String("workload", "tpcc", "workload-catalog name: "+strings.Join(names, "|")+"; families: "+strings.Join(patterns, ", "))
		scheme       = fs.String("scheme", "lbica", "scheme: wb|sib|lbica|array-lb or a static policy wt|ro|wo|wtwo")
		seed         = fs.Int64("seed", 1, "random seed (runs with equal seeds are bit-identical)")
		intervals    = fs.Int("intervals", 0, "monitor intervals to run (0 = paper default for the workload)")
		interval     = fs.Duration("interval", 200*time.Millisecond, "monitor interval length (virtual time)")
		rate         = fs.Float64("rate", 1, "workload IOPS scale factor")
		csv          = fs.Bool("csv", false, "emit per-interval CSV instead of the table")
		tracePath    = fs.String("trace", "", "write the binary block-layer trace to this file")
		recordPath   = fs.String("record", "", "record the application request stream to this file")
		replayPath   = fs.String("replay", "", "replay a request stream recorded with -record")
		cacheMiB     = fs.Int("cache-mib", 0, "cache size in MiB (0 = default 256)")
		volumes      = fs.Int("volumes", 0, "shard the run across this many independent cache+disk volumes (0/1 = single stack)")
		routePolicy  = fs.String("route-policy", "", "array routing policy: uniform|hash|zipf (needs -volumes > 1)")
		routeSkew    = fs.Float64("route-skew", 0, "router Zipf skew over volume popularity (needs -volumes > 1; under -scheme array-lb it seeds the controller's initial weights)")
		routeVariant = fs.String("route-variant", "", "array-lb controller routing mechanism: weighted|p2c (needs -scheme array-lb)")
		shardWorkers = fs.Int("shard-workers", 0, "array shard pool size (0 = GOMAXPROCS, 1 = serial)")
		cold         = fs.Bool("cold", false, "start with a cold cache (skip prewarm)")
		ckptPath     = fs.String("checkpoint", "", "save the warmed simulation state to this file mid-run, then finish (resume with -restore)")
		ckptAt       = fs.Int("checkpoint-at", 0, "interval barrier -checkpoint saves at (0 = half the run)")
		restorePath  = fs.String("restore", "", "resume a run saved with -checkpoint (all other flags must describe the same run)")
		configPath   = fs.String("config", "", "load run options from a JSON file (flags override nothing; the file wins)")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile   = fs.String("memprofile", "", "write a heap profile (post-run) to this file")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *ckptPath != "" && *restorePath != "" {
		return errors.New("lbicasim: -checkpoint and -restore are mutually exclusive (save a run, then resume it in a later invocation)")
	}
	if *ckptAt != 0 && *ckptPath == "" {
		return errors.New("lbicasim: -checkpoint-at needs -checkpoint")
	}
	stopProfiles, err := cli.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "lbicasim: profile:", err)
		}
	}()

	opts := lbica.Options{
		Workload:       *workloadName,
		Scheme:         *scheme,
		Seed:           *seed,
		Intervals:      *intervals,
		IntervalLength: *interval,
		RateFactor:     *rate,
		CacheMiB:       *cacheMiB,
		DisablePrewarm: *cold,
		Volumes:        *volumes,
		RoutePolicy:    *routePolicy,
		RouteSkew:      *routeSkew,
		RouteVariant:   *routeVariant,
		ShardWorkers:   *shardWorkers,
	}
	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			return err
		}
		opts, err = lbica.LoadOptions(f)
		f.Close()
		if err != nil {
			return err
		}
	}

	// Best-effort close on error paths; the success path below closes
	// explicitly so flush errors are surfaced.
	var closers []*os.File
	closed := false
	defer func() {
		if !closed {
			for _, f := range closers {
				f.Close()
			}
		}
	}()
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		closers = append(closers, f)
		opts.TraceWriter = f
	}
	if *recordPath != "" {
		f, err := os.Create(*recordPath)
		if err != nil {
			return err
		}
		closers = append(closers, f)
		opts.RecordTo = f
	}
	if *replayPath != "" {
		f, err := os.Open(*replayPath)
		if err != nil {
			return err
		}
		closers = append(closers, f)
		opts.ReplayFrom = f
	}

	// A cancelled run still yields the partial report accumulated up to
	// the cancellation — render it before surfacing the error. A report
	// with no intervals carries no data worth presenting as "partial".
	var report *lbica.Report
	var runErr error
	switch {
	case *ckptPath != "":
		report, runErr = lbica.RunCheckpoint(ctx, opts, *ckptPath, *ckptAt)
	case *restorePath != "":
		report, runErr = lbica.RunRestore(ctx, opts, *restorePath)
	default:
		report, runErr = lbica.RunContext(ctx, opts)
	}
	if runErr != nil && (report == nil || len(report.Intervals) == 0) {
		return runErr
	}
	for _, f := range closers {
		if err := f.Close(); err != nil {
			if runErr == nil {
				return err
			}
			// The interruption is the primary error; don't let a flush
			// failure of an already-partial file suppress the report.
			fmt.Fprintln(stderr, "lbicasim:", err)
		}
	}
	closed = true
	if errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
		fmt.Fprintln(stderr, "lbicasim: run interrupted — partial results follow")
	}

	if *csv {
		return errors.Join(runErr, report.WriteCSV(stdout))
	}

	fmt.Fprintf(stdout, "workload %s under %s (%d intervals × %v)\n\n",
		report.Workload, report.Scheme, len(report.Intervals), report.IntervalLength)
	fmt.Fprintf(stdout, "%8s %14s %14s %6s %6s %6s %6s %6s %12s\n",
		"interval", "cacheQ(us)", "diskQ(us)", "burst", "R%", "W%", "P%", "E%", "avg_lat")
	step := len(report.Intervals) / 50
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(report.Intervals); i += step {
		iv := report.Intervals[i]
		fmt.Fprintf(stdout, "%8d %14.1f %14.1f %6v %6.1f %6.1f %6.1f %6.1f %12v\n",
			iv.Index, iv.CacheLoadMicros, iv.DiskLoadMicros, iv.Burst,
			iv.ReadPct, iv.WritePct, iv.PromotePct, iv.EvictPct, iv.AvgLatency.Round(time.Microsecond))
	}

	if len(report.Policies) > 0 {
		fmt.Fprintln(stdout, "\npolicy timeline:")
		for _, p := range report.Policies {
			fmt.Fprintf(stdout, "  interval %3d: %-4s (%s)\n", p.Interval, p.Policy, p.Group)
		}
	}

	s := report.Summary
	fmt.Fprintf(stdout, "\nsummary: %d requests, hit ratio %.3f\n", s.Requests, s.HitRatio)
	fmt.Fprintf(stdout, "  latency: avg %v  p50 %v  p99 %v  max %v\n",
		s.AvgLatency.Round(time.Microsecond), s.P50Latency.Round(time.Microsecond),
		s.P99Latency.Round(time.Microsecond), s.MaxLatency.Round(time.Microsecond))
	fmt.Fprintf(stdout, "  load: cache %.0fµs  disk %.0fµs (per-interval max-latency means)\n", s.CacheLoadMean, s.DiskLoadMean)
	fmt.Fprintf(stdout, "  bypassed to disk: %d, policy switches: %d\n", s.BypassedToDisk, s.PolicySwitches)
	fmt.Fprintf(stdout, "  utilization: ssd %.2f  disk %.2f\n", s.SSDUtilization, s.HDDUtilization)
	if len(report.PerVolume) > 0 {
		fmt.Fprintln(stdout, "\nper-volume (array run):")
		for v, vr := range report.PerVolume {
			if vr == nil {
				fmt.Fprintf(stdout, "  v%d: (cancelled before completion)\n", v)
				continue
			}
			vs := vr.Summary
			fmt.Fprintf(stdout, "  v%d: %d reqs, avg %v, hit %.3f, cache load %.0fµs, flips %d\n",
				v, vs.Requests, vs.AvgLatency.Round(time.Microsecond), vs.HitRatio, vs.CacheLoadMean, len(vr.Policies))
		}
	}
	return runErr
}
