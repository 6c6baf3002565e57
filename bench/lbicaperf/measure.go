package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"lbica/internal/sweep"
)

// tally counts checked cells and the ones that failed.
type tally struct {
	attempted, failed int
	// digest is the checked output's digest, printed so a golden entry can
	// be recorded from it.
	digest string
}

func (t *tally) add(attempted, failed int) {
	t.attempted += attempted
	t.failed += failed
}

func (t tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// digest is the sha256 of a pass's JSON report — the bytes the sweep CLI
// writes as sweep.json.
func digest(res *sweep.Result) (string, error) {
	h := sha256.New()
	if err := sweep.WriteJSON(h, res); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// scorePass counts one executed pass's cells and its failed ones. A cell
// fails on its own when it never completed or simulated no request; when
// want is set and the pass's digest differs from it, every cell fails.
func scorePass(res *sweep.Result, sum, want string) (attempted, failed int) {
	attempted = res.Total
	failed = res.Total - res.Completed
	for _, r := range res.Runs {
		if r.Requests == 0 {
			failed++
		}
	}
	if want != "" && sum != want {
		failed = attempted
	}
	return attempted, min(failed, attempted)
}

// goldenFor returns the digest a full-size seed-1 run must reproduce ("" when
// none applies).
func goldenFor(w benchWorkload, o options) string {
	if o.seed != 1 || o.intervals != 0 {
		return ""
	}
	return golden[w.name]
}

// cpuTime is the processor time the process has used so far: every thread,
// user and system. Unlike the wall clock it leaves out the time the process
// waited for a processor — on a shared host, time its virtual processors were
// not running — so it measures the program rather than the host's load.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rep is one measured execution of a workload.
type rep struct {
	wall     time.Duration // both passes on a warm workload
	cpu      time.Duration // processor time of the same passes
	alloc    uint64        // bytes allocated
	requests uint64        // simulated requests, both passes
	cold     *sweep.Result
	hit      *sweep.Result // warm workloads only
	coldWall time.Duration
	hitWall  time.Duration
	// storeBytes is the size of the checkpoint store after the cold pass.
	storeBytes int64
	sum        string // digest of the cold pass
	tally      tally
}

// runRep executes the workload once, untraced, and checks it: every pass must
// reproduce want (when set), and on a warm workload the hit pass must match
// the cold pass byte for byte while restoring every prefix instead of
// storing one. With a probe, it runs a probe slice after every unit of work
// the sweep completes; the slices count in neither the wall nor the
// processor time of the rep.
func runRep(ctx context.Context, w benchWorkload, workdir, want string, probe *hostProbe) (rep, error) {
	g := w.grid
	var r rep
	if w.warm {
		dir, err := os.MkdirTemp(workdir, "warm-")
		if err != nil {
			return r, err
		}
		defer os.RemoveAll(dir)
		g.WarmCacheDir = dir
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	// Processor time is summed stretch by stretch, between probe slices.
	mark := cpuTime()
	lap := func() time.Duration {
		d := cpuTime() - mark
		r.cpu += d
		return d
	}
	opts := sweep.Options{Workers: 1}
	if probe != nil {
		opts.OnDone = func(int, int) {
			probe.sample(lap())
			mark = cpuTime()
		}
	}
	t0 := time.Now()
	cold, err := sweep.Execute(ctx, g, opts)
	r.coldWall = time.Since(t0)
	if err != nil {
		return r, err
	}
	if w.warm {
		r.storeBytes = dirBytes(g.WarmCacheDir)
		t1 := time.Now()
		r.hit, err = sweep.Execute(ctx, g, opts)
		r.hitWall = time.Since(t1)
		if err != nil {
			return r, err
		}
	}
	lap()
	runtime.ReadMemStats(&m1)
	r.wall = r.coldWall + r.hitWall
	if probe != nil {
		r.wall -= probe.elapsed
	}
	r.alloc = m1.TotalAlloc - m0.TotalAlloc
	r.cold = cold

	if r.sum, err = digest(cold); err != nil {
		return r, err
	}
	r.tally.add(scorePass(cold, r.sum, want))
	r.requests = requests(cold)
	if r.hit != nil {
		hitSum, err := digest(r.hit)
		if err != nil {
			return r, err
		}
		a, f := scorePass(r.hit, hitSum, r.sum)
		if ws := r.hit.Warm; ws == nil || ws.CacheStores != 0 || ws.CacheHits == 0 {
			f = a
		}
		r.tally.add(a, f)
		r.requests += requests(r.hit)
	}
	return r, nil
}

func requests(res *sweep.Result) uint64 {
	var n uint64
	for _, r := range res.Runs {
		n += r.Requests
	}
	return n
}

func dirBytes(dir string) int64 {
	var n int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if fi, err := os.Stat(filepath.Join(dir, e.Name())); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// Set-up time is the median of at least minSetupPasses passes, repeated
// until setupBudget is spent or maxSetupPasses ran: a cheap set-up gets more
// samples.
const (
	minSetupPasses = 5
	maxSetupPasses = 50
	setupBudget    = time.Second
)

// setupTime builds every stack of the workload's grid without running it —
// engine.New with prewarm, each static array volume, array.NewControlled —
// and returns the median processor time of a pass and the host's speed over
// the passes, from a probe slice after each.
func setupTime(ctx context.Context, w benchWorkload) (time.Duration, float64, error) {
	pts := w.grid.Expand()
	var times []float64
	var spent time.Duration
	var probe hostProbe
	for len(times) < minSetupPasses || (spent < setupBudget && len(times) < maxSetupPasses) {
		runtime.GC()
		var p pass
		c0 := cpuTime()
		for _, pt := range pts {
			if err := p.build(ctx, pt.Spec); err != nil {
				return 0, 0, err
			}
		}
		d := cpuTime() - c0
		probe.sample(d)
		spent += d
		times = append(times, float64(d))
	}
	return time.Duration(median(times)), probe.speed(), nil
}

// measureRun is the untraced run: set-up time, then reps until the time
// budget is spent, then the end-to-end metrics as medians over the reps.
// Every processor time is corrected for the host's load by the probe slices
// run over it.
func measureRun(ctx context.Context, w benchWorkload, o options) (metrics, tally, error) {
	var tly tally
	setup, setupSpeed, err := setupTime(ctx, w)
	if err != nil {
		return nil, tly, err
	}

	want := goldenFor(w, o)
	var walls, cpus, rawCPUs, rates, allocs, speeds []float64
	var first rep
	start := time.Now()
	var last time.Duration // wall time of the last rep, probe slices included
	for n := 0; n < o.reps || (o.seconds > 0 && time.Since(start)+last <= o.seconds); n++ {
		t := time.Now()
		var probe hostProbe
		r, err := runRep(ctx, w, o.workdir, want, &probe)
		if err != nil {
			return nil, tly, err
		}
		last = time.Since(t)
		if n == 0 {
			first = r
			tly.digest = r.sum
			if want == "" {
				want = r.sum // later reps must reproduce the first
			}
		}
		tly.add(r.tally.attempted, r.tally.failed)
		walls = append(walls, r.wall.Seconds())
		rawCPUs = append(rawCPUs, r.cpu.Seconds())
		speeds = append(speeds, probe.speed())
		cpu := r.cpu.Seconds() * probe.speed()
		cpus = append(cpus, cpu)
		rates = append(rates, float64(r.requests)/cpu)
		allocs = append(allocs, float64(r.alloc)/(1<<20))
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, tly, err
	}

	var ms metrics
	ms.add("cpu_s", median(cpus), "s")
	ms.add("sim_req_per_cpu_s", median(rates), "1/s")
	ms.add("setup_s", setup.Seconds()*setupSpeed, "s")
	ms.add("peak_rss_mib", float64(ru.Maxrss)/1024, "MiB") // Linux reports KiB
	ms.add("alloc_mib", median(allocs), "MiB")
	ms.info("cpu_raw_s", median(rawCPUs), "s")
	ms.info("wall_s", median(walls), "s")
	ms.info("host_speed", median(speeds), "ratio")
	simMetrics(ms.info, first.cold)
	ms.info("reps", float64(len(walls)), "count")
	return ms, tly, nil
}

// simMetrics adds the modelled stack's outcome, in simulated time: the
// request-weighted mean application latency, the mean per-interval maximum
// SSD queue time (Eq. 1, the Fig. 4 load), and the request-weighted hit
// ratio.
func simMetrics(add func(name string, value float64, unit string), res *sweep.Result) {
	var lat, q, hit, reqs float64
	for _, r := range res.Runs {
		n := float64(r.Requests)
		lat += r.AvgLatencyUS * n
		hit += r.HitRatio * n
		q += r.QMeanUS
		reqs += n
	}
	add("sim_lat_mean_us", lat/reqs, "sim_us")
	add("sim_cache_q_us", q/float64(len(res.Runs)), "sim_us")
	add("sim_hit_ratio", hit/reqs, "ratio")
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
