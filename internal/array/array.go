package array

import (
	"context"
	"fmt"
	"sort"
	"time"

	"lbica/internal/cache"
	"lbica/internal/engine"
	"lbica/internal/iostat"
	"lbica/internal/runner"
	"lbica/internal/stats"
)

// MaxVolumes bounds the array width: 256 full stacks is already far past
// any sweep worth running in one process, and an unbounded width would
// let a typo allocate hundreds of caches before the first event fires.
const MaxVolumes = 256

// MaxCacheLines bounds a run's cache lines summed over its volumes. 2^25
// lines is 512 times the paper's 256 MiB cache at one volume: a 128 GiB
// cache at 4 KiB blocks, whose line arrays alone take 1 GiB.
const MaxCacheLines = 1 << 25

// MaxVolumeIntervals bounds a run's monitor intervals summed over its
// volumes: 2^20, where the paper's runs take 200. Every volume reserves
// its per-interval series before the first event, about 450 bytes an
// interval (an iostat sample and a cache-stats snapshot), so the series
// at the bound take about 470 MB.
const MaxVolumeIntervals = 1 << 20

// MaxSkew bounds the Zipf routing exponent; at 16 essentially every
// request already lands on volume 0, so larger values only differ in
// label.
const MaxSkew = 16.0

// Config describes an array: its width, how the router splits the stream,
// and how many shards run concurrently.
type Config struct {
	// Volumes is the array width (≥ 1).
	Volumes int
	// Policy selects the routing policy; Skew is the Zipf policy's
	// volume-popularity exponent (0 = uniform weights).
	Policy Policy
	Skew   float64
	// Workers caps the shard pool (≤0 = GOMAXPROCS; 1 = the serial
	// baseline the determinism test compares against).
	Workers int
}

// Validate reports the first invalid field. Like the sweep grid, array
// configs arrive from CLI flags and public options, so bad values surface
// as errors, never clamps.
func (c Config) Validate() error {
	if c.Volumes < 1 || c.Volumes > MaxVolumes {
		return fmt.Errorf("array: volume count %d outside [1, %d]", c.Volumes, MaxVolumes)
	}
	if !(c.Skew >= 0 && c.Skew <= MaxSkew) {
		return fmt.Errorf("array: route skew %v outside [0, %v]", c.Skew, MaxSkew)
	}
	if c.Skew != 0 && c.Policy != Zipf {
		return fmt.Errorf("array: route skew %v set under policy %v (skew applies to zipf routing only)", c.Skew, c.Policy)
	}
	return nil
}

// NewRouter builds one volume's router instance for this config.
func (c Config) NewRouter(seed int64) *Router {
	return NewRouter(seed, c.Volumes, c.Policy, c.Skew)
}

// Results is a finished (or interrupted) array run.
type Results struct {
	// Volumes is the array width the run was configured with.
	Volumes int
	// Merged is the array-level reduction of every completed volume (see
	// Merge). Never nil; empty when no volume completed.
	Merged *engine.Results
	// PerVolume holds each volume's own results, indexed by volume
	// address; a nil slot is a volume a cancellation stopped before it
	// completed.
	PerVolume []*engine.Results
}

// BuildFunc assembles one volume's stack. It is called inside the shard
// worker, so everything it builds — generator, router, balancer, stack —
// must derive from the volume address and the run's spec alone (the
// runner determinism contract).
type BuildFunc func(vol int) (*engine.Stack, error)

// Run shards the array across the runner pool: build(v) assembles volume
// v's stack, each volume simulates intervals monitor intervals, and the
// per-volume results are merged order-independently. Output is
// byte-identical for every worker count. On cancellation the error is
// non-nil and Results covers the volumes that completed — volumes stopped
// mid-run are dropped (partial arrays contain only whole volumes,
// mirroring the sweep's partial-report rule). Each volume's stack is
// released (engine.Stack.Release) once its results are collected, so the
// next volume built reuses its cache line arrays.
func Run(ctx context.Context, cfg Config, intervals int, build BuildFunc) (*Results, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	per, err := runner.Map(ctx, cfg.Volumes, runner.Options{Workers: cfg.Workers},
		func(ctx context.Context, v int) (*engine.Results, error) {
			st, err := build(v)
			if err != nil {
				return nil, fmt.Errorf("array: building volume %d: %w", v, err)
			}
			res := st.RunContext(ctx, intervals)
			st.Release()
			res.Volume = v
			// A cancellation that lands only after this volume sampled
			// every requested interval changed nothing for it: keep the
			// complete results instead of dropping them (the single-stack
			// path treats the identical timing as a complete run). Volumes
			// that genuinely stopped short are dropped — partial arrays
			// contain only whole volumes.
			if err := ctx.Err(); err != nil && len(res.Samples) < intervals {
				return nil, err
			}
			return res, nil
		})
	return &Results{Volumes: cfg.Volumes, Merged: Merge(per), PerVolume: per}, err
}

// Merge reduces per-volume results into array-level results. Entries may
// arrive in any order and may be nil (dropped volumes); the fold sorts by
// Results.Volume first, so any permutation of the same inputs merges to
// identical bytes. The reduction semantics, per field class:
//
//   - queue-time loads (CacheLoad, DiskLoad, QTimes) take the per-interval
//     maximum across volumes — the array's bottleneck volume, which is
//     what a fleet-level Fig. 4/5 curve should show;
//   - the burst flag ORs (the array is bursting if any volume is);
//   - queue depths at interval close and censuses sum (array-wide
//     totals), while within-interval peak depths take the worst volume
//     (they pair with the load columns, which are peak depth × latency);
//   - latencies average weighted by completions, and the full latency
//     histograms merge, so array quantiles are exact over all requests;
//   - counters (requests, bypasses, merges, written sectors) sum;
//   - device utilizations average across volumes (each volume is its own
//     hardware);
//   - the policy timeline interleaves every volume's decisions by virtual
//     time, each Group annotated with its volume ("v2:G3/random-write").
func Merge(perVol []*engine.Results) *engine.Results {
	vols := make([]*engine.Results, 0, len(perVol))
	for _, r := range perVol {
		if r != nil {
			vols = append(vols, r)
		}
	}
	sort.SliceStable(vols, func(i, j int) bool { return vols[i].Volume < vols[j].Volume })

	out := &engine.Results{AppLatency: stats.NewHistogram()}
	if len(vols) == 0 {
		return out
	}
	out.Workload = vols[0].Workload
	out.Scheme = vols[0].Scheme

	out.Samples = mergeSamples(vols)
	out.Timeline = mergeTimelines(vols)
	out.CacheStatsAt = mergeCacheStatsAt(vols)

	hists := make([]*stats.Histogram, len(vols))
	var utilSSD, utilHDD float64
	for i, r := range vols {
		hists[i] = r.AppLatency
		out.AppSubmitted += r.AppSubmitted
		out.AppCompleted += r.AppCompleted
		out.CacheStats = sumCacheStats(out.CacheStats, r.CacheStats)
		if r.SSDPeakDepth > out.SSDPeakDepth {
			out.SSDPeakDepth = r.SSDPeakDepth
		}
		if r.HDDPeakDepth > out.HDDPeakDepth {
			out.HDDPeakDepth = r.HDDPeakDepth
		}
		utilSSD += r.SSDUtilization
		utilHDD += r.HDDUtilization
		out.SSDMerges += r.SSDMerges
		out.HDDMerges += r.HDDMerges
		out.BypassedToDisk += r.BypassedToDisk
		out.CancelledShadows += r.CancelledShadows
		if r.Elapsed > out.Elapsed {
			out.Elapsed = r.Elapsed
		}
		out.SSDWrittenSectors += r.SSDWrittenSectors
		out.HDDWrittenSectors += r.HDDWrittenSectors
	}
	out.AppLatency = stats.MergeHistograms(hists)
	out.SSDUtilization = utilSSD / float64(len(vols))
	out.HDDUtilization = utilHDD / float64(len(vols))
	return out
}

// mergeSamples folds the per-volume interval samples into one array-level
// series over the union of interval indexes (volumes stopped early by a
// cancellation contribute the intervals they closed).
func mergeSamples(vols []*engine.Results) []iostat.Sample {
	n := 0
	for _, r := range vols {
		if len(r.Samples) > n {
			n = len(r.Samples)
		}
	}
	out := make([]iostat.Sample, 0, n)
	for i := 0; i < n; i++ {
		var (
			m       iostat.Sample
			first   = true
			appLat  stats.WeightedMean
			ssdWait stats.WeightedMean
			hddWait stats.WeightedMean
		)
		for _, r := range vols {
			if i >= len(r.Samples) {
				continue
			}
			s := r.Samples[i]
			if first {
				m = s
				first = false
			} else {
				if s.Start < m.Start {
					m.Start = s.Start
				}
				if s.End > m.End {
					m.End = s.End
				}
				m.SSDDepth += s.SSDDepth
				m.HDDDepth += s.HDDDepth
				m.SSDDepthAvg += s.SSDDepthAvg
				m.HDDDepthAvg += s.HDDDepthAvg
				// Peak depths take the worst volume, matching the load
				// columns: CacheLoad *is* the peak depth × service latency,
				// so maxing one and summing the other would decouple them.
				if s.SSDDepthMax > m.SSDDepthMax {
					m.SSDDepthMax = s.SSDDepthMax
				}
				if s.HDDDepthMax > m.HDDDepthMax {
					m.HDDDepthMax = s.HDDDepthMax
				}
				m.CacheLoad = maxDur(m.CacheLoad, s.CacheLoad)
				m.DiskLoad = maxDur(m.DiskLoad, s.DiskLoad)
				m.CacheQTime = maxDur(m.CacheQTime, s.CacheQTime)
				m.DiskQTime = maxDur(m.DiskQTime, s.DiskQTime)
				m.Bottleneck = m.Bottleneck || s.Bottleneck
				for o := range m.Census {
					m.Census[o] += s.Census[o]
					m.Arrivals[o] += s.Arrivals[o]
				}
				m.SSDCompleted += s.SSDCompleted
				m.HDDCompleted += s.HDDCompleted
				m.SSDMaxLatency = maxDur(m.SSDMaxLatency, s.SSDMaxLatency)
				m.HDDMaxLat = maxDur(m.HDDMaxLat, s.HDDMaxLat)
				m.AppCompleted += s.AppCompleted
				m.AppMaxLat = maxDur(m.AppMaxLat, s.AppMaxLat)
			}
			appLat.AddDuration(s.AppAwait, float64(s.AppCompleted))
			ssdWait.AddDuration(s.SSDAwait, float64(s.SSDCompleted))
			hddWait.AddDuration(s.HDDAwait, float64(s.HDDCompleted))
		}
		if first {
			continue // no volume closed this interval
		}
		m.Interval = i
		m.AppAwait = appLat.Duration()
		m.SSDAwait = ssdWait.Duration()
		m.HDDAwait = hddWait.Duration()
		out = append(out, m)
	}
	return out
}

// mergeTimelines interleaves every volume's policy decisions by virtual
// time (ties broken by volume, then original order), annotating each
// Group with its volume address so the array timeline stays attributable.
func mergeTimelines(vols []*engine.Results) []engine.PolicyChange {
	type entry struct {
		pc  engine.PolicyChange
		vol int
		idx int
	}
	var all []entry
	for _, r := range vols {
		for idx, pc := range r.Timeline {
			pc.Group = fmt.Sprintf("v%d:%s", r.Volume, pc.Group)
			all = append(all, entry{pc: pc, vol: r.Volume, idx: idx})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.pc.At != b.pc.At {
			return a.pc.At < b.pc.At
		}
		if a.vol != b.vol {
			return a.vol < b.vol
		}
		return a.idx < b.idx
	})
	if len(all) == 0 {
		return nil
	}
	out := make([]engine.PolicyChange, len(all))
	for i, e := range all {
		out[i] = e.pc
	}
	return out
}

// mergeCacheStatsAt sums the per-interval cumulative cache snapshots, so
// per-interval deltas over the merged snapshots (the series exporter's
// hit-ratio timeline) aggregate the whole array.
func mergeCacheStatsAt(vols []*engine.Results) []cache.Stats {
	n := 0
	for _, r := range vols {
		if len(r.CacheStatsAt) > n {
			n = len(r.CacheStatsAt)
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]cache.Stats, n)
	for _, r := range vols {
		for i, cs := range r.CacheStatsAt {
			out[i] = sumCacheStats(out[i], cs)
		}
		// A volume stopped early keeps contributing its last snapshot to
		// the remaining intervals: the cumulative counters did not reset
		// when the volume stopped, and dropping them would make array
		// deltas go negative.
		for i := len(r.CacheStatsAt); i < n; i++ {
			if len(r.CacheStatsAt) > 0 {
				out[i] = sumCacheStats(out[i], r.CacheStatsAt[len(r.CacheStatsAt)-1])
			}
		}
	}
	return out
}

func sumCacheStats(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Reads:          a.Reads + b.Reads,
		Writes:         a.Writes + b.Writes,
		ReadHits:       a.ReadHits + b.ReadHits,
		ReadMisses:     a.ReadMisses + b.ReadMisses,
		WriteHits:      a.WriteHits + b.WriteHits,
		WriteMisses:    a.WriteMisses + b.WriteMisses,
		Promotes:       a.Promotes + b.Promotes,
		CleanEvicts:    a.CleanEvicts + b.CleanEvicts,
		DirtyEvicts:    a.DirtyEvicts + b.DirtyEvicts,
		Invalidations:  a.Invalidations + b.Invalidations,
		FlushesStarted: a.FlushesStarted + b.FlushesStarted,
		Flushed:        a.Flushed + b.Flushed,
		PolicySwitches: a.PolicySwitches + b.PolicySwitches,
		BypassedReads:  a.BypassedReads + b.BypassedReads,
		BypassedWr:     a.BypassedWr + b.BypassedWr,
		MigratedOut:    a.MigratedOut + b.MigratedOut,
		MigratedIn:     a.MigratedIn + b.MigratedIn,
	}
}

func maxDur(a, b time.Duration) time.Duration {
	if b > a {
		return b
	}
	return a
}
