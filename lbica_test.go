package lbica

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"lbica/internal/block"
	"lbica/internal/experiments"
	"lbica/internal/workload"
)

// quick returns small-run options so facade tests stay fast.
func quick(workload, scheme string) Options {
	return Options{
		Workload:       workload,
		Scheme:         scheme,
		Intervals:      12,
		IntervalLength: 100 * time.Millisecond,
		RateFactor:     0.5,
	}
}

func TestRunDefaults(t *testing.T) {
	r, err := Run(Options{Intervals: 4, IntervalLength: 50 * time.Millisecond, RateFactor: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "tpcc" || r.Scheme != "LBICA" {
		t.Errorf("defaults = %s/%s", r.Workload, r.Scheme)
	}
	if len(r.Intervals) != 4 {
		t.Errorf("intervals = %d", len(r.Intervals))
	}
	if r.Summary.Requests == 0 {
		t.Error("no requests simulated")
	}
}

func TestRunUnknownInputs(t *testing.T) {
	if _, err := Run(Options{Workload: "nope"}); err == nil {
		t.Error("unknown workload must error")
	}
	if _, err := Run(Options{Scheme: "nope"}); err == nil {
		t.Error("unknown scheme must error")
	}
	if _, err := Run(Options{CacheMiB: 1, CacheWays: 10000}); err == nil {
		t.Error("impossible cache geometry must error")
	}
}

func TestAllSchemesRun(t *testing.T) {
	for _, sc := range []string{SchemeWB, SchemeSIB, SchemeLBICA, SchemeArrayLB, SchemeStaticWT, SchemeStaticRO, SchemeStaticWO, SchemeStaticWTWO} {
		r, err := Run(quick(WorkloadMixed, sc))
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if r.Summary.Requests == 0 {
			t.Errorf("%s: no requests", sc)
		}
	}
}

func TestAllWorkloadsRun(t *testing.T) {
	for _, wl := range []string{WorkloadTPCC, WorkloadMail, WorkloadWeb, WorkloadRandomRead,
		WorkloadRandomWrite, WorkloadSeqRead, WorkloadSeqWrite, WorkloadMixed} {
		r, err := Run(quick(wl, SchemeWB))
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if r.Summary.Requests == 0 {
			t.Errorf("%s: no requests", wl)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(quick(WorkloadMail, SchemeLBICA))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quick(WorkloadMail, SchemeLBICA))
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != b.Summary {
		t.Errorf("summaries differ:\n%+v\n%+v", a.Summary, b.Summary)
	}
}

func TestCustomPhases(t *testing.T) {
	r, err := Run(Options{
		Name:   "spike",
		Scheme: SchemeLBICA,
		Phases: []Phase{
			{Name: "calm", Duration: 200 * time.Millisecond, BaseIOPS: 1000, ReadRatio: 0.9, WorkingSetBlocks: 4096, ZipfExponent: 0.9},
			{Name: "storm", Duration: 400 * time.Millisecond, BaseIOPS: 2000, BurstIOPS: 15000,
				BurstOn: 40 * time.Millisecond, BurstOff: 60 * time.Millisecond,
				ReadRatio: 0.9, WorkingSetBlocks: 131072, ZipfExponent: 0.7},
		},
		Intervals:      6,
		IntervalLength: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "spike" {
		t.Errorf("workload = %q", r.Workload)
	}
	if r.Summary.Requests == 0 {
		t.Error("custom workload produced nothing")
	}
}

// TestInvalidPhasesAreErrors: a custom schedule is validated at the run
// boundary. Each case used to panic inside the generator or run on
// degenerate requests; zero fields keep their default meaning and run.
func TestInvalidPhasesAreErrors(t *testing.T) {
	base := Phase{Name: "p", Duration: time.Second, BaseIOPS: 100, ReadRatio: 1, WorkingSetBlocks: 1024}
	for _, c := range []struct {
		name string
		edit func(*Phase)
		ok   bool
	}{
		{"empty working set", func(p *Phase) { p.WorkingSetBlocks = 0 }, false},
		{"empty working set, bursts only", func(p *Phase) {
			p.BaseIOPS, p.BurstIOPS, p.BurstOn, p.WorkingSetBlocks = 0, 500, time.Millisecond, 0
		}, false},
		{"negative working set", func(p *Phase) { p.WorkingSetBlocks = -5 }, false},
		{"negative write working set", func(p *Phase) { p.WriteWorkingSetBlocks = -1 }, false},
		{"negative duration", func(p *Phase) { p.Duration = -time.Second }, false},
		{"negative burst period", func(p *Phase) { p.BurstOff = -time.Millisecond }, false},
		{"negative IOPS", func(p *Phase) { p.BaseIOPS = -100 }, false},
		{"NaN burst IOPS", func(p *Phase) { p.BurstIOPS = math.NaN() }, false},
		{"NaN exponent", func(p *Phase) { p.ZipfExponent = math.NaN() }, false},
		{"negative exponent", func(p *Phase) { p.ZipfExponent = -1 }, false},
		{"infinite write exponent", func(p *Phase) { p.WriteZipfExponent = math.Inf(1) }, false},
		{"read ratio above 1", func(p *Phase) { p.ReadRatio = 1.5 }, false},
		{"negative read ratio", func(p *Phase) { p.ReadRatio = -0.1 }, false},
		{"sequential above 1", func(p *Phase) { p.Sequential = 2 }, false},
		{"zero request size", func(p *Phase) { p.SizesSectors = []int64{8, 0} }, false},
		{"negative request size", func(p *Phase) { p.SizesSectors = []int64{-8} }, false},
		{"request size past the bound", func(p *Phase) { p.SizesSectors = []int64{8, workload.MaxRequestSectors + 1} }, false},
		{"negative base block", func(p *Phase) { p.BaseBlock = -1 }, false},
		{"negative write base block", func(p *Phase) { p.WriteWorkingSetBlocks, p.WriteBaseBlock = 64, -1 }, false},
		{"base block past the address space", func(p *Phase) { p.BaseBlock = math.MaxInt64 / 8 }, false},
		{"working set past the Zipf-rank bound", func(p *Phase) { p.WorkingSetBlocks = math.MaxInt32 }, false},
		{"write working set past the Zipf-rank bound", func(p *Phase) { p.WriteWorkingSetBlocks = workload.MaxZipfRanks + 1 }, false},
		{"schedule ends past the clock bound", func(p *Phase) { p.Duration = workload.MaxArrival + 1 }, false},
		// A rate this slow overflowed the mean arrival gap and ran one
		// request at t≈0.
		{"base IOPS below the floor", func(p *Phase) { p.BaseIOPS = 1e-12 }, false},
		{"burst IOPS below the floor", func(p *Phase) { p.BurstIOPS, p.BurstOn = workload.MinIOPS/2, time.Millisecond }, false},
		{"IOPS at the floor", func(p *Phase) { p.BaseIOPS = workload.MinIOPS }, true},
		{"valid", func(p *Phase) {}, true},
		{"zero fields keep defaults", func(p *Phase) { p.ZipfExponent, p.ReadRatio = 0, 0 }, true},
		{"idle phase needs no working set", func(p *Phase) { p.BaseIOPS, p.WorkingSetBlocks = 0, 0 }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := base
			c.edit(&p)
			// An idle phase 0 is followed by a live one so the run has work.
			_, err := Run(Options{Scheme: "WB", Intervals: 3, Phases: []Phase{p, base}})
			switch {
			case c.ok && err != nil:
				t.Fatalf("valid phase rejected: %v", err)
			case !c.ok && err == nil:
				t.Fatalf("phase %+v ran instead of erroring", p)
			case !c.ok && !strings.Contains(err.Error(), "phase 0"):
				t.Errorf("error %q does not name the phase", err)
			}
		})
	}
}

// TestInvalidReplayIsError: a recorded stream is validated at the run
// boundary, record by record. Each case used to run silently (or, for a
// request past the size bound, to run unboundedly long).
func TestInvalidReplayIsError(t *testing.T) {
	ok := workload.Request{At: time.Millisecond, Op: block.Read, Extent: block.Extent{LBA: 64, Sectors: 8}}
	for _, c := range []struct {
		name string
		edit func(*workload.Request)
	}{
		{"op byte 7", func(r *workload.Request) { r.Op = 7 }},
		{"zero sectors", func(r *workload.Request) { r.Extent.Sectors = 0 }},
		{"negative sectors", func(r *workload.Request) { r.Extent.Sectors = -8 }},
		{"size past the bound", func(r *workload.Request) { r.Extent.Sectors = workload.MaxRequestSectors + 1 }},
		{"negative LBA", func(r *workload.Request) { r.Extent.LBA = -8 }},
		{"extent overflows", func(r *workload.Request) { r.Extent.LBA = math.MaxInt64 - 4 }},
		{"negative time", func(r *workload.Request) { r.At = -time.Millisecond }},
		// 2^63−10 ns: the engine's service times overflowed the clock
		// and scheduled an event before now.
		{"time past the clock bound", func(r *workload.Request) { r.At = math.MaxInt64 - 9 }},
		{"time goes backwards", func(r *workload.Request) { r.At = time.Millisecond / 2 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := ok
			c.edit(&bad)
			var rec bytes.Buffer
			if err := workload.SaveRequests(&rec, []workload.Request{ok, bad}); err != nil {
				t.Fatal(err)
			}
			_, err := Run(Options{Intervals: 3, ReplayFrom: &rec})
			if err == nil {
				t.Fatalf("record %+v ran instead of erroring", bad)
			}
			if !strings.Contains(err.Error(), "request 1") {
				t.Errorf("error %q does not name the record", err)
			}
		})
	}
	var rec bytes.Buffer
	later := ok
	later.At, later.Op = 2*time.Millisecond, block.Write
	if err := workload.SaveRequests(&rec, []workload.Request{ok, ok, later}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Options{Intervals: 3, ReplayFrom: &rec}); err != nil {
		t.Errorf("well-formed stream rejected: %v", err)
	}
}

// TestRunBoundsAreErrors: options past a run bound are errors that name
// the bound, before anything is built. Without the bounds a NaN rate ran a
// one-request simulation, a 10^12 rate never finished, and 10^8
// intervals died reserving a 31 GB series.
func TestRunBoundsAreErrors(t *testing.T) {
	for _, c := range []struct {
		name, bound string
		o           Options
	}{
		{"NaN rate", "10000", Options{RateFactor: math.NaN()}},
		{"infinite rate", "10000", Options{RateFactor: math.Inf(1)}},
		{"rate past the bound", "10000", Options{RateFactor: 1e12}},
		{"intervals past the series bound", "volume-interval bound", Options{Intervals: 100_000_000}},
		{"intervals × volumes past the series bound", "volume-interval bound", Options{Intervals: 8192, Volumes: 256}},
		{"span past the clock bound", "clock bound", Options{Intervals: 200, IntervalLength: math.MaxInt64}},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := Run(c.o)
			if err == nil || !strings.Contains(err.Error(), c.bound) {
				t.Fatalf("Run(%+v) = %v, want an error naming %q", c.o, err, c.bound)
			}
		})
	}
}

func TestStaticPolicySchemeNames(t *testing.T) {
	r, err := Run(quick(WorkloadMixed, SchemeStaticRO))
	if err != nil {
		t.Fatal(err)
	}
	if r.Scheme != "RO" {
		t.Errorf("scheme = %q, want RO", r.Scheme)
	}
}

func TestTraceCapture(t *testing.T) {
	var buf bytes.Buffer
	o := quick(WorkloadMixed, SchemeWB)
	o.TraceWriter = &buf
	if _, err := Run(o); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no trace bytes written")
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("LBICATR1")) {
		t.Error("trace magic missing")
	}
}

func TestReportCSV(t *testing.T) {
	r, err := Run(quick(WorkloadMail, SchemeLBICA))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(r.Intervals)+1 {
		t.Fatalf("csv lines = %d, want %d", len(lines), len(r.Intervals)+1)
	}
	if !strings.HasPrefix(lines[0], "interval,cache_load_us") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestCacheGeometryOptions(t *testing.T) {
	o := quick(WorkloadRandomRead, SchemeWB)
	o.CacheMiB = 32
	o.CacheWays = 4
	o.DisablePrewarm = true
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	// A 32 MiB cold cache under a large working set must show misses.
	if r.Summary.HitRatio > 0.9 {
		t.Errorf("hit ratio %.2f too high for a small cold cache", r.Summary.HitRatio)
	}
}

func TestRecordAndReplay(t *testing.T) {
	var rec bytes.Buffer
	o := quick(WorkloadMixed, SchemeWB)
	o.RecordTo = &rec
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("nothing recorded")
	}
	// Replay the captured stream through a different scheme: the request
	// count must match exactly.
	b, err := Run(Options{
		ReplayFrom:     bytes.NewReader(rec.Bytes()),
		Scheme:         SchemeLBICA,
		Intervals:      12,
		IntervalLength: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Workload != "replay" {
		t.Errorf("workload = %q", b.Workload)
	}
	if b.Summary.Requests != a.Summary.Requests {
		t.Errorf("replay served %d requests, original %d", b.Summary.Requests, a.Summary.Requests)
	}
}

// Recording observes a run and must not shape it: a recorded run starts
// from the same prewarmed cache and reports exactly what the unrecorded
// run does.
func TestRecordingDoesNotShapeTheRun(t *testing.T) {
	o := Options{Workload: WorkloadTPCC, Scheme: SchemeWB, Seed: 1, Intervals: 12}
	plain, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	o.RecordTo = &rec
	recorded, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("nothing recorded")
	}
	if !reflect.DeepEqual(plain, recorded) {
		t.Errorf("recording changed the report: hit ratio %.3f → %.3f, mean latency %v → %v",
			plain.Summary.HitRatio, recorded.Summary.HitRatio, plain.Summary.AvgLatency, recorded.Summary.AvgLatency)
	}
}

func TestReplayBadStream(t *testing.T) {
	if _, err := Run(Options{ReplayFrom: strings.NewReader("garbage-bytes!!!")}); err == nil {
		t.Error("bad replay stream must error")
	}
}

func TestEnduranceAccounting(t *testing.T) {
	// RO never writes to the SSD beyond promotes; WB buffers every write.
	wb, err := Run(quick(WorkloadRandomWrite, SchemeWB))
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Run(quick(WorkloadRandomWrite, SchemeStaticRO))
	if err != nil {
		t.Fatal(err)
	}
	if wb.Summary.SSDWrittenMiB <= 0 {
		t.Fatal("WB run recorded no SSD writes")
	}
	if ro.Summary.SSDWrittenMiB >= wb.Summary.SSDWrittenMiB/2 {
		t.Errorf("RO SSD writes %.1f MiB not well below WB %.1f MiB",
			ro.Summary.SSDWrittenMiB, wb.Summary.SSDWrittenMiB)
	}
	if ro.Summary.HDDWrittenMiB <= wb.Summary.HDDWrittenMiB {
		t.Errorf("RO disk writes %.1f MiB not above WB %.1f MiB",
			ro.Summary.HDDWrittenMiB, wb.Summary.HDDWrittenMiB)
	}
}

func TestSummaryQuantileOrdering(t *testing.T) {
	r, err := Run(quick(WorkloadTPCC, SchemeWB))
	if err != nil {
		t.Fatal(err)
	}
	s := r.Summary
	if s.P50Latency > s.P99Latency || s.P99Latency > s.MaxLatency {
		t.Errorf("quantiles out of order: p50=%v p99=%v max=%v", s.P50Latency, s.P99Latency, s.MaxLatency)
	}
	if s.AvgLatency <= 0 {
		t.Error("avg latency missing")
	}
}

// TestCatalogWorkloadsThroughPublicAPI: names beyond the legacy aliases
// resolve through the workload catalog — presets and parameterized family
// names both run end to end.
func TestCatalogWorkloadsThroughPublicAPI(t *testing.T) {
	for _, wl := range []string{"burst-mix-hi", "synth-randread-zipf1.2", "burst-mix-on4x-duty0.3-read0.5"} {
		r, err := Run(quick(wl, SchemeLBICA))
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if r.Workload != wl {
			t.Errorf("report labeled %q, want %q", r.Workload, wl)
		}
		if r.Summary.Requests == 0 {
			t.Errorf("%s completed no requests", wl)
		}
	}
	if _, err := Run(quick("burst-mix-onXx-duty0.3-read0.5", SchemeWB)); err == nil {
		t.Error("malformed family name ran instead of erroring")
	}
}

// TestNegativeOptionsAreErrors: zero means "use the default"; negative
// Intervals/IntervalLength/RateFactor used to be silently rewritten to
// their defaults and must now surface as errors.
func TestNegativeOptionsAreErrors(t *testing.T) {
	for _, o := range []Options{
		{Intervals: -1},
		{IntervalLength: -time.Second},
		{RateFactor: -0.5},
	} {
		if _, err := Run(o); err == nil {
			t.Errorf("Options %+v ran instead of erroring", o)
		}
	}
}

// TestBadCacheSizeIsAnError: a cache too large to build — a terabyte of
// MiB, or a size whose lines over several volumes pass the line bound — is
// an error, never a panic in the cache build. Options and JSON configs
// take the same path.
func TestBadCacheSizeIsAnError(t *testing.T) {
	fromJSON, err := LoadOptions(strings.NewReader(`{"cache_mib": 1099511627776}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Options{
		{CacheMiB: 1 << 40},
		{CacheMiB: math.MaxInt},
		{CacheMiB: 64 << 10, Volumes: 3},
		fromJSON,
	} {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("Options %+v panicked: %v", o, p)
				}
			}()
			if _, err := Run(o); err == nil {
				t.Errorf("Options %+v ran instead of erroring", o)
			}
		}()
	}
}

// TestFacadeMatchesSpec: the facade translates options into an
// experiments.Spec and builds no stack of its own. Over the option space
// it shares with the sweep grid — paper and burst workloads × the four
// compared schemes × one and three volumes × every valid routing — Run
// reports exactly what buildReport renders from the matching hand-written
// Spec's experiments run, per-volume reports included.
func TestFacadeMatchesSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("sixty paired runs are beyond the -short budget")
	}
	routes := []struct {
		name   string
		policy string
		skew   float64
	}{{"uniform", "", 0}, {"hash", "hash", 0}, {"zipf-1.2", "", 1.2}}
	for _, wl := range []string{"tpcc", "mail", "web", "burst-mix-hi"} {
		for _, sc := range []string{SchemeWB, SchemeSIB, SchemeLBICA, SchemeArrayLB} {
			for _, vol := range []int{1, 3} {
				for _, rt := range routes {
					if (vol == 1 && rt.name != "uniform") || (sc == SchemeArrayLB && rt.policy != "") {
						continue // routing needs an array; array-lb owns its routing
					}
					wl, sc, vol, rt := wl, sc, vol, rt
					t.Run(fmt.Sprintf("%s/%s/%dvol/%s", wl, sc, vol, rt.name), func(t *testing.T) {
						t.Parallel()
						got, err := Run(Options{Workload: wl, Scheme: sc, Seed: 5, Intervals: 20,
							Volumes: vol, RoutePolicy: rt.policy, RouteSkew: rt.skew})
						if err != nil {
							t.Fatal(err)
						}
						spec := experiments.Spec{Workload: wl, Scheme: strings.ToUpper(sc), Seed: 5, Intervals: 20,
							Volumes: vol, RoutePolicy: rt.policy, RouteSkew: rt.skew}
						res, perVolume := experiments.RunVolumes(context.Background(), spec)
						if want := buildReport(spec.Normalize(), res, perVolume); !reflect.DeepEqual(got, want) {
							t.Fatalf("facade report differs from the Spec run:\ngot:  %+v\nwant: %+v", got.Summary, want.Summary)
						}
					})
				}
			}
		}
	}
}

// Workload names resolve once, lower-cased: a capitalized name runs the
// same stream as the catalog spelling, not a differently seeded one under
// the same label.
func TestWorkloadNamesAreCaseInsensitive(t *testing.T) {
	for _, pair := range [][2]string{{"TPCC", "tpcc"}, {"Burst-Mix-Hi", "burst-mix-hi"}, {"Mixed", "mixed"}} {
		a, err := Run(quick(pair[0], SchemeLBICA))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(quick(pair[1], SchemeLBICA))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%q and %q report differently", pair[0], pair[1])
		}
	}
}
