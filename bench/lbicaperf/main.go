// Command lbicaperf is the repository benchmark. It runs one workload — a
// sweep grid — per process, as a closed batch through sweep.Execute with one
// worker, checks the outputs, and prints every metric by name with its unit.
// The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 36, "failed": 0, "metrics": {"cpu_s": {"value": 1.92, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced as
// medians over reps. With -trace 1 they are the per-layer ones, from a
// separate pass that drives the same cells by hand through each layer's
// public functions and times those calls. -compare reads two sets of
// recorded runs and judges each end-to-end metric against its bound. See
// bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lbicaperf:", err)
		os.Exit(1)
	}
}

// options are one measuring run's settings.
type options struct {
	seed      int64
	seconds   time.Duration
	reps      int
	intervals int
	workdir   string
	spans     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type namedMetric struct {
	name string
	metric
	info bool // printed, but not part of the result line
}

// metrics keeps metrics in the order they are printed.
type metrics []namedMetric

func (m *metrics) add(name string, value float64, unit string) {
	*m = append(*m, namedMetric{name: name, metric: metric{value, unit}})
}

// info adds a metric that is printed for the reader but is not one the
// result line reports.
func (m *metrics) info(name string, value float64, unit string) {
	*m = append(*m, namedMetric{name: name, metric: metric{value, unit}, info: true})
}

// result is a run's outcome, printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a -record file: a run's result with what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lbicaperf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-read|burst-write|array-skew|sweep-warm")
	seed := fs.Int64("seed", 1, "grid seed (non-zero); the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 0, "keep starting reps while they fit in this many seconds (0: run -reps reps)")
	reps := fs.Int("reps", 3, "minimum number of measured reps")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	spans := fs.String("spans", "", "with -trace 1, write the spans and per-layer metrics to this JSON file")
	intervals := fs.Int("intervals", 0, "override the paper's run length in monitor intervals (0: paper length)")
	workdir := fs.String("workdir", ".bench_build", "directory for the sweep-warm checkpoint stores")
	recordTo := fs.String("record", "", "append the run's result as one JSON line to this file")
	compare := fs.Bool("compare", false, "compare two -record files A B against the bounds in -spec")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark description holding the metric bounds, for -compare")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two record files, got %d arguments", fs.NArg())
		}
		return compareFiles(stdout, *spec, fs.Arg(0), fs.Arg(1))
	}
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	case *seed == 0:
		return errors.New("-seed must be non-zero")
	case *traceMode != 0 && *traceMode != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", *traceMode)
	case *reps < 1:
		return fmt.Errorf("-reps %d: want at least 1", *reps)
	case !(*seconds >= 0):
		return fmt.Errorf("-seconds %v: want a non-negative number", *seconds)
	case *intervals < 0:
		return fmt.Errorf("-intervals %d: want 0 (paper length) or more", *intervals)
	case *spans != "" && *traceMode == 0:
		return errors.New("-spans needs -trace 1")
	}
	w, err := lookupWorkload(*name, *seed, *intervals)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	// One process per workload and no more threads than cores: the cells
	// run back to back on one worker, and the second processor (when there
	// is one) takes the garbage collector.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	o := options{
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		reps:      *reps,
		intervals: *intervals,
		workdir:   *workdir,
		spans:     *spans,
	}
	var (
		ms  metrics
		tly tally
	)
	if *traceMode == 1 {
		ms, tly, err = traceRun(ctx, w, o)
	} else {
		ms, tly, err = measureRun(ctx, w, o)
	}
	if err != nil {
		return err
	}

	res := result{Correct: tly.failed == 0, Attempted: tly.attempted, Failed: tly.failed, Metrics: make(map[string]metric, len(ms))}
	ms.info("fail_frac", tly.failFrac(), "ratio")
	fmt.Fprintf(stdout, "%-30s %s\n", "digest", tly.digest)
	for _, m := range ms {
		fmt.Fprintf(stdout, "%-30s %-22.10g %s\n", m.name, m.Value, m.Unit)
		if !m.info {
			res.Metrics[m.name] = m.metric
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if *recordTo != "" {
		if err := appendRecord(*recordTo, record{Workload: w.name, Seed: *seed, Trace: *traceMode, Result: res}); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
