package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"lbica/internal/checkpoint"
	"lbica/internal/engine"
	"lbica/internal/experiments"
	"lbica/internal/stats"
	"lbica/internal/sweep"
)

// emitPasses and probePasses are how many times the traced run repeats the
// report emit and each codec/fork call; the median is reported.
const (
	emitPasses  = 5
	probePasses = 5
)

// traceRun is the traced run. It executes the grid untraced once as the
// reference (a warm workload also runs its cold and hit passes), drives the
// same cells by hand through every layer with spans and counters, checks
// that each hand-built cell reproduces the reference, and derives the
// per-layer metrics.
func traceRun(ctx context.Context, w benchWorkload, o options) (metrics, tally, error) {
	var tly tally
	// The reference runs the grid from scratch: warm sharing must not change
	// a byte, so a warm workload's passes are checked against it.
	g := w.grid
	g.WarmupIntervals = 0
	runtime.GC()
	t0 := time.Now()
	base, err := sweep.Execute(ctx, g, sweep.Options{Workers: 1})
	baseWall := time.Since(t0)
	if err != nil {
		return nil, tly, err
	}
	sum, err := digest(base)
	if err != nil {
		return nil, tly, err
	}
	tly.add(scorePass(base, sum, goldenFor(w, o)))
	tly.digest = sum

	coldWall, hitWall := baseWall, time.Duration(0)
	var warm rep
	if w.warm {
		if warm, err = runRep(ctx, w, o.workdir, sum, nil); err != nil {
			return nil, tly, err
		}
		tly.add(warm.tally.attempted, warm.tally.failed)
		coldWall, hitWall = warm.coldWall, warm.hitWall
	}

	pts := g.Expand()
	runtime.GC()
	p := &pass{tr: newTracer()}
	cells := make([]*engine.Results, len(pts))
	events := uint64(0)
	t1 := time.Now()
	for i, pt := range pts {
		if cells[i], err = p.run(ctx, i, pt.Spec); err != nil {
			return nil, tly, err
		}
		for _, st := range p.built {
			events += st.Engine().Fired()
		}
	}
	tracedWall := time.Since(t1)
	for i, er := range cells {
		failed := 0
		if len(base.Runs) != len(pts) || !sameCell(base.Runs[i], er) {
			failed = 1
		}
		tly.add(1, failed)
	}

	emits := make([]float64, emitPasses)
	for i := range emits {
		var buf bytes.Buffer
		t := time.Now()
		if err := sweep.WriteJSON(&buf, base); err != nil {
			return nil, tly, err
		}
		emits[i] = time.Since(t).Seconds()
	}
	var pr probe
	if w.warm {
		if pr, err = codecProbe(ctx, w, pts); err != nil {
			return nil, tly, err
		}
	}

	engineBuild, arrayBuild, arrayStep, engineRun := layerTimes(p.tr.spans)
	var lay layers
	for _, er := range cells {
		lay.fold(er)
	}
	reqs := float64(lay.requests)
	runNS := float64(engineRun)

	var ms metrics
	ms.add("workload.next_calls", float64(p.cnt.nextCalls), "count")
	ms.add("workload.next_s", p.cnt.nextDur.Seconds(), "s")
	ms.add("workload.next_calls_per_req", float64(p.cnt.nextCalls)/reqs, "ratio")
	ms.add("array.build_s", arrayBuild.Seconds(), "s")
	ms.add("array.step_s", arrayStep.Seconds(), "s")
	ms.add("array.barriers", float64(p.barriers), "count")
	ms.add("array.migrations", float64(lay.cache.MigratedIn), "count")
	ms.add("engine.build_s", engineBuild.Seconds(), "s")
	ms.add("engine.run_s", engineRun.Seconds(), "s")
	ms.add("engine.requests", reqs, "count")
	ms.add("engine.ns_per_req", runNS/reqs, "ns")
	ms.add("engine.bypassed", float64(lay.bypassed), "count")
	ms.add("engine.app_lat_p50_us", float64(lay.lat.Quantile(0.5))/1e3, "sim_us")
	ms.add("engine.app_lat_p99_us", float64(lay.lat.Quantile(0.99))/1e3, "sim_us")
	ms.add("engine.fork_s", pr.fork.Seconds(), "s")
	ms.add("sim.events", float64(events), "count")
	ms.add("sim.ns_per_event", runNS/float64(events), "ns")
	ms.add("sim.events_per_req", float64(events)/reqs, "ratio")
	accesses := float64(lay.cache.Reads + lay.cache.Writes)
	ms.add("cache.accesses", accesses, "count")
	ms.add("cache.hit_ratio", float64(lay.cache.ReadHits+lay.cache.WriteHits)/accesses, "ratio")
	ms.add("cache.promotes", float64(lay.cache.Promotes), "count")
	ms.add("cache.clean_evicts", float64(lay.cache.CleanEvicts), "count")
	ms.add("cache.dirty_evicts", float64(lay.cache.DirtyEvicts), "count")
	ms.add("cache.flushed", float64(lay.cache.Flushed), "count")
	ms.add("cache.policy_switches", float64(lay.cache.PolicySwitches), "count")
	ms.add("ioqueue.ssd_merges", float64(lay.ssdMerges), "count")
	ms.add("ioqueue.hdd_merges", float64(lay.hddMerges), "count")
	ms.add("ioqueue.ssd_peak_depth", float64(lay.ssdPeak), "count")
	ms.add("ioqueue.hdd_peak_depth", float64(lay.hddPeak), "count")
	ms.add("ioqueue.ssd_wait_us", lay.ssdWait.mean()/1e3, "sim_us")
	ms.add("ioqueue.hdd_wait_us", lay.hddWait.mean()/1e3, "sim_us")
	n := float64(len(cells))
	ms.add("device.ssd_util", lay.ssdUtil/n, "ratio")
	ms.add("device.hdd_util", lay.hddUtil/n, "ratio")
	ms.add("device.ssd_written_mib", lay.ssdMiB, "MiB")
	ms.add("device.hdd_written_mib", lay.hddMiB, "MiB")
	ms.add("iostat.intervals", float64(lay.intervals), "count")
	ms.add("iostat.burst_frac", float64(lay.bursts)/float64(lay.intervals), "ratio")
	ms.add("balancer.hook_s", p.cnt.hookDur.Seconds(), "s")
	ms.add("balancer.admit_calls", float64(p.cnt.admitCalls), "count")
	ms.add("balancer.admit_s", p.cnt.admitDur.Seconds(), "s")
	ms.add("balancer.decisions", float64(lay.decisions), "count")
	var cold, hot sweep.WarmStats
	if warm.cold != nil {
		cold, hot = *warm.cold.Warm, *warm.hit.Warm
	}
	planned := float64(cold.Leaders + cold.Forked + cold.Scratch)
	ms.add("warm.leaders", float64(cold.Leaders), "count")
	ms.add("warm.forked", float64(cold.Forked), "count")
	ms.add("warm.scratch", float64(cold.Scratch), "count")
	ms.add("warm.cache_hits", float64(hot.CacheHits), "count")
	ms.add("warm.cache_stores", float64(cold.CacheStores), "count")
	ms.add("warm.shared_frac", float64(cold.Forked)/max(planned, 1), "ratio")
	ms.add("ckpt.encode_s", pr.encode.Seconds(), "s")
	ms.add("ckpt.decode_s", pr.decode.Seconds(), "s")
	ms.add("ckpt.bytes", float64(pr.bytes), "B")
	ms.add("checkpoint.store_bytes", float64(warm.storeBytes), "B")
	ms.add("sweep.cold_s", coldWall.Seconds(), "s")
	ms.add("sweep.hit_s", hitWall.Seconds(), "s")
	ms.add("sweep.emit_s", median(emits), "s")
	simMetrics(ms.add, base)
	ms.add("trace_overhead_frac", (tracedWall-baseWall).Seconds()/baseWall.Seconds(), "ratio")

	if o.spans != "" {
		if err := writeSpans(o.spans, p.tr.spans, ms); err != nil {
			return nil, tly, err
		}
	}
	return ms, tly, nil
}

// sameCell reports whether a hand-built cell reproduced the sweep's run of
// the same grid point, on the fields sweep.Run records.
func sameCell(r sweep.Run, er *engine.Results) bool {
	return r.Requests == er.AppCompleted &&
		r.AvgLatencyUS == float64(er.AppLatency.Mean())/1e3 &&
		r.QMeanUS == er.CacheLoadMean()/1e3 &&
		r.HitRatio == er.CacheStats.HitRatio()
}

// weighted is a mean of per-interval values weighted by their counts.
type weighted struct{ sum, n float64 }

func (w *weighted) add(v time.Duration, n uint64) {
	w.sum += float64(v) * float64(n)
	w.n += float64(n)
}

func (w weighted) mean() float64 {
	if w.n == 0 {
		return 0
	}
	return w.sum / w.n
}

// layers sums the modelled components' counts over the traced cells. An
// array cell contributes its merged results.
type layers struct {
	requests, bypassed uint64
	lat                *stats.Histogram
	cache              struct{ Reads, Writes, ReadHits, WriteHits, Promotes, CleanEvicts, DirtyEvicts, Flushed, PolicySwitches, MigratedIn uint64 }
	ssdMerges          uint64
	hddMerges          uint64
	ssdPeak, hddPeak   int
	ssdWait, hddWait   weighted
	ssdUtil, hddUtil   float64
	ssdMiB, hddMiB     float64
	intervals, bursts  int
	decisions          int
}

func (l *layers) fold(er *engine.Results) {
	if l.lat == nil {
		l.lat = stats.NewHistogram()
	}
	l.requests += er.AppCompleted
	l.bypassed += er.BypassedToDisk
	l.lat.Merge(er.AppLatency)
	c := er.CacheStats
	l.cache.Reads += c.Reads
	l.cache.Writes += c.Writes
	l.cache.ReadHits += c.ReadHits
	l.cache.WriteHits += c.WriteHits
	l.cache.Promotes += c.Promotes
	l.cache.CleanEvicts += c.CleanEvicts
	l.cache.DirtyEvicts += c.DirtyEvicts
	l.cache.Flushed += c.Flushed
	l.cache.PolicySwitches += c.PolicySwitches
	l.cache.MigratedIn += c.MigratedIn
	l.ssdMerges += er.SSDMerges
	l.hddMerges += er.HDDMerges
	l.ssdPeak = max(l.ssdPeak, er.SSDPeakDepth)
	l.hddPeak = max(l.hddPeak, er.HDDPeakDepth)
	l.ssdUtil += er.SSDUtilization
	l.hddUtil += er.HDDUtilization
	l.ssdMiB += er.SSDWrittenMiB()
	l.hddMiB += er.HDDWrittenMiB()
	for _, s := range er.Samples {
		l.ssdWait.add(s.SSDAwait, s.SSDCompleted)
		l.hddWait.add(s.HDDAwait, s.HDDCompleted)
		l.intervals++
		if s.Bottleneck {
			l.bursts++
		}
	}
	l.decisions += len(er.Timeline)
}

// probe holds the codec and fork timings of one warmed stack.
type probe struct {
	encode, decode, fork time.Duration
	bytes                int
}

// codecProbe warms the grid's first tpcc/LBICA/cache-1 cell to the warmup
// barrier — the state a sweep-warm leader publishes — and times encoding
// it, decoding it into a fresh stack, and forking it, each as the median of
// probePasses calls.
func codecProbe(ctx context.Context, w benchWorkload, pts []sweep.Point) (probe, error) {
	var pr probe
	var spec experiments.Spec
	found := false
	for _, pt := range pts {
		if pt.Workload == "tpcc" && pt.Scheme == experiments.SchemeLBICA && pt.CacheMult == 1 && pt.Volumes == 1 {
			spec, found = pt.Spec.Normalize(), true
			break
		}
	}
	if !found {
		return pr, fmt.Errorf("workload %s has no tpcc/LBICA/cache-1 cell to probe", w.name)
	}
	var p pass
	newStack := func() *engine.Stack { return p.newStack(engineConfig(spec), p.gen(spec), spec) }
	leader := newStack()
	leader.Start(ctx, spec.Intervals)
	leader.StepTo(time.Duration(w.grid.WarmupIntervals) * spec.Interval)

	enc, dec, frk := make([]float64, probePasses), make([]float64, probePasses), make([]float64, probePasses)
	var payload []byte
	for i := range enc {
		t := time.Now()
		b, err := checkpoint.EncodeStack(leader)
		enc[i] = float64(time.Since(t))
		if err != nil {
			return pr, err
		}
		payload = b
	}
	for i := range dec {
		st := newStack()
		t := time.Now()
		err := checkpoint.DecodeStack(ctx, st, payload)
		dec[i] = float64(time.Since(t))
		if err != nil {
			return pr, err
		}
	}
	for i := range frk {
		t := time.Now()
		_, err := leader.Fork(ctx, nil)
		frk[i] = float64(time.Since(t))
		if err != nil {
			return pr, err
		}
	}
	pr.encode, pr.decode, pr.fork = time.Duration(median(enc)), time.Duration(median(dec)), time.Duration(median(frk))
	pr.bytes = len(payload)
	return pr, nil
}

// writeSpans writes the trace file: every span, and the per-layer metrics
// derived from them and from the counters.
func writeSpans(path string, spans []span, ms metrics) error {
	out := struct {
		Spans   []span            `json:"spans"`
		Metrics map[string]metric `json:"metrics"`
	}{Spans: spans, Metrics: make(map[string]metric, len(ms))}
	for _, m := range ms {
		out.Metrics[m.name] = m.metric
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
