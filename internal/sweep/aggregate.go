package sweep

// Cell is the per-cell aggregation of a sweep: one (workload, scheme,
// cache-mult, rate, burst-mult, volumes, route-skew) coordinate
// summarized across its seed replicates.
type Cell struct {
	Workload   string  `json:"workload"`
	Scheme     string  `json:"scheme"`
	CacheMult  float64 `json:"cache_mult"`
	RateFactor float64 `json:"rate_factor"`
	// BurstMult is the burst-intensity coordinate (1 = the workload's
	// published burst shape).
	BurstMult float64 `json:"burst_mult"`
	// Volumes is the array-width coordinate (1 = the paper's single
	// stack) and RouteSkew the router's Zipf skew (0 = uniform routing).
	Volumes   int     `json:"volumes"`
	RouteSkew float64 `json:"route_skew"`
	// Replicates counts the runs aggregated into this cell (fewer than
	// Grid.SeedReplicates on an interrupted sweep).
	Replicates int `json:"replicates"`
	// QMeanUS/QMinUS/QMaxUS summarize the replicates' max-queue-time
	// metric (each run's mean per-interval maximum cache queue time, µs).
	QMeanUS float64 `json:"q_mean_us"`
	QMinUS  float64 `json:"q_min_us"`
	QMaxUS  float64 `json:"q_max_us"`
	// DiskQMeanUS is the disk-subsystem counterpart of QMeanUS.
	DiskQMeanUS float64 `json:"disk_q_mean_us"`
	// LatencyMeanUS is the mean end-to-end latency across replicates.
	LatencyMeanUS float64 `json:"latency_mean_us"`
	// HitRatioMean is the mean cache hit ratio across replicates.
	HitRatioMean float64 `json:"hit_ratio_mean"`
	// PolicyFlipsMean is the mean number of write-policy decisions the
	// balancer took per run (0 for WB, which has no balancer).
	PolicyFlipsMean float64 `json:"policy_flips_mean"`
	// SpeedupVsWB/SpeedupVsSIB are latency speedups against the baseline
	// cell at the same (workload, cache-mult, rate) coordinate: baseline
	// mean latency over this cell's mean latency (>1 = this scheme is
	// faster). Zero when the sweep has no matching baseline cell.
	SpeedupVsWB  float64 `json:"speedup_vs_wb"`
	SpeedupVsSIB float64 `json:"speedup_vs_sib"`
	// QCIHalfUS is the achieved 95% Student-t confidence half-width over
	// the replicates' QMeanUS values — recorded only on early-termination
	// sweeps (Grid.CITolerance > 0) with at least two completed
	// replicates, zero otherwise, so tolerance-off output stays
	// byte-identical to sweeps that predate the field.
	QCIHalfUS float64 `json:"q_ci_half_us,omitempty"`
	// EarlyTerminated marks a cell whose grid coordinate stopped
	// launching further seed replicates once every scheme's confidence
	// interval was tight (Replicates then records how many actually ran).
	EarlyTerminated bool `json:"early_terminated,omitempty"`
}

type cellKey struct {
	workload   string
	scheme     string
	cacheMult  float64
	rateFactor float64
	burstMult  float64
	volumes    int
	routeSkew  float64
}

// Aggregate groups runs by cell coordinate and summarizes each group.
// Grouping preserves first-appearance order, so for runs in expansion
// order the cells come out in expansion order too — the property that
// keeps the emitted reports deterministic.
func Aggregate(runs []Run) []Cell {
	order := make([]cellKey, 0)
	groups := make(map[cellKey][]Run)
	for _, r := range runs {
		k := cellKey{r.Workload, r.Scheme, r.CacheMult, r.RateFactor, r.BurstMult, r.Volumes, r.RouteSkew}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	cells := make([]Cell, 0, len(order))
	for _, k := range order {
		cells = append(cells, summarize(k, groups[k]))
	}
	// Speedups need the sibling baselines, which only exist once every
	// cell is summarized.
	byKey := make(map[cellKey]int, len(cells))
	for i, c := range cells {
		byKey[cellKey{c.Workload, c.Scheme, c.CacheMult, c.RateFactor, c.BurstMult, c.Volumes, c.RouteSkew}] = i
	}
	for i := range cells {
		c := &cells[i]
		if wb, ok := byKey[cellKey{c.Workload, "WB", c.CacheMult, c.RateFactor, c.BurstMult, c.Volumes, c.RouteSkew}]; ok && c.Scheme != "WB" {
			c.SpeedupVsWB = speedup(cells[wb].LatencyMeanUS, c.LatencyMeanUS)
		}
		if sib, ok := byKey[cellKey{c.Workload, "SIB", c.CacheMult, c.RateFactor, c.BurstMult, c.Volumes, c.RouteSkew}]; ok && c.Scheme != "SIB" {
			c.SpeedupVsSIB = speedup(cells[sib].LatencyMeanUS, c.LatencyMeanUS)
		}
	}
	return cells
}

func speedup(baseline, own float64) float64 {
	if own <= 0 {
		return 0
	}
	return baseline / own
}

func summarize(k cellKey, runs []Run) Cell {
	c := Cell{
		Workload:   k.workload,
		Scheme:     k.scheme,
		CacheMult:  k.cacheMult,
		RateFactor: k.rateFactor,
		BurstMult:  k.burstMult,
		Volumes:    k.volumes,
		RouteSkew:  k.routeSkew,
		Replicates: len(runs),
	}
	// Aggregate only ever groups actual runs, but summarize is also the
	// bottom of the partial-report path (SIGINT-interrupted sweeps): an
	// empty group must summarize to an empty cell, not index runs[0] and
	// take the whole report down with it.
	if len(runs) == 0 {
		return c
	}
	c.QMinUS = runs[0].QMeanUS
	c.QMaxUS = runs[0].QMeanUS
	n := float64(len(runs))
	for _, r := range runs {
		c.QMeanUS += r.QMeanUS / n
		c.DiskQMeanUS += r.DiskQMeanUS / n
		c.LatencyMeanUS += r.AvgLatencyUS / n
		c.HitRatioMean += r.HitRatio / n
		c.PolicyFlipsMean += float64(r.PolicyFlips) / n
		if r.QMeanUS < c.QMinUS {
			c.QMinUS = r.QMeanUS
		}
		if r.QMeanUS > c.QMaxUS {
			c.QMaxUS = r.QMeanUS
		}
	}
	return c
}
