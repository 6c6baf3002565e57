package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"text/tabwriter"
)

// cellsHeader is the original CSV column layout; cellsHeaderBurst adds
// the burst_mult coordinate after rate_factor, and cellsHeaderArray adds
// the volumes/route_skew coordinates after that. The emitter writes the
// narrowest layout that loses nothing: legacy whenever every cell sits at
// the default burst multiplier and a single unsharded volume (so
// pre-existing paper-trio artifacts stay byte-identical), the burst
// layout when only the burst axis is in play, and the array layout
// otherwise; ParseCellsCSV accepts exactly these three layouts, so the
// fuzzed round-trip property (parse(emit(x)) == x) doubles as a schema
// lock.
var cellsHeader = []string{
	"workload", "scheme", "cache_mult", "rate_factor", "replicates",
	"q_mean_us", "q_min_us", "q_max_us", "disk_q_mean_us",
	"latency_mean_us", "hit_ratio_mean", "policy_flips_mean",
	"speedup_vs_wb", "speedup_vs_sib",
}

var cellsHeaderBurst = []string{
	"workload", "scheme", "cache_mult", "rate_factor", "burst_mult", "replicates",
	"q_mean_us", "q_min_us", "q_max_us", "disk_q_mean_us",
	"latency_mean_us", "hit_ratio_mean", "policy_flips_mean",
	"speedup_vs_wb", "speedup_vs_sib",
}

var cellsHeaderArray = []string{
	"workload", "scheme", "cache_mult", "rate_factor", "burst_mult", "volumes", "route_skew", "replicates",
	"q_mean_us", "q_min_us", "q_max_us", "disk_q_mean_us",
	"latency_mean_us", "hit_ratio_mean", "policy_flips_mean",
	"speedup_vs_wb", "speedup_vs_sib",
}

// ftoa formats floats losslessly: strconv's shortest representation that
// parses back to the identical bits, which is what lets the emitters'
// round-trip property hold exactly instead of "within epsilon".
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// hasBurstAxis reports whether any cell sits off the default burst
// multiplier — the condition for emitting at least the burst CSV layout.
// A BurstMult of 0 (a hand-built Cell that never went through Normalize)
// also counts: dropping the column would silently rewrite it to 1 on
// parse-back.
func hasBurstAxis(cells []Cell) bool {
	for _, c := range cells {
		if c.BurstMult != 1 {
			return true
		}
	}
	return false
}

// hasArrayAxis reports whether any cell sits off the single-volume
// default — the condition for emitting the array CSV layout. Volumes of 0
// (a hand-built Cell) counts for the same reason as hasBurstAxis.
func hasArrayAxis(cells []Cell) bool {
	for _, c := range cells {
		if c.Volumes != 1 || c.RouteSkew != 0 {
			return true
		}
	}
	return false
}

// cellsLayout picks the narrowest header that can carry every cell.
func cellsLayout(cells []Cell) []string {
	switch {
	case hasArrayAxis(cells):
		return cellsHeaderArray
	case hasBurstAxis(cells):
		return cellsHeaderBurst
	default:
		return cellsHeader
	}
}

// WriteCellsCSV emits the per-cell summaries. Fields are quoted by the
// csv writer as needed (registry workload names may contain commas,
// quotes or anything else), floats in shortest-round-trip form. The
// burst_mult and volumes/route_skew columns appear only when some cell is
// off their defaults, so sweeps without those axes emit the earlier
// layouts byte for byte.
func WriteCellsCSV(w io.Writer, cells []Cell) error {
	header := cellsLayout(cells)
	burst := len(header) >= len(cellsHeaderBurst)
	arr := len(header) == len(cellsHeaderArray)
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, c := range cells {
		rec := make([]string, 0, len(header))
		rec = append(rec, c.Workload, c.Scheme, ftoa(c.CacheMult), ftoa(c.RateFactor))
		if burst {
			rec = append(rec, ftoa(c.BurstMult))
		}
		if arr {
			rec = append(rec, strconv.Itoa(c.Volumes), ftoa(c.RouteSkew))
		}
		rec = append(rec,
			strconv.Itoa(c.Replicates),
			ftoa(c.QMeanUS), ftoa(c.QMinUS), ftoa(c.QMaxUS), ftoa(c.DiskQMeanUS),
			ftoa(c.LatencyMeanUS), ftoa(c.HitRatioMean), ftoa(c.PolicyFlipsMean),
			ftoa(c.SpeedupVsWB), ftoa(c.SpeedupVsSIB),
		)
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ParseCellsCSV reads back a stream written by WriteCellsCSV, accepting
// all three layouts: legacy (no burst_mult column; every cell is at the
// default multiplier 1), burst, and array (volumes/route_skew columns).
func ParseCellsCSV(r io.Reader) ([]Cell, error) {
	cr := csv.NewReader(r)
	// Width is pinned to the header row (which must match one of the
	// known layouts below); FieldsPerRecord = 0 makes the reader enforce
	// it on every following record.
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("sweep: reading cells CSV: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("sweep: cells CSV is empty (missing header)")
	}
	var header []string
	switch len(recs[0]) {
	case len(cellsHeader):
		header = cellsHeader
	case len(cellsHeaderBurst):
		header = cellsHeaderBurst
	case len(cellsHeaderArray):
		header = cellsHeaderArray
	default:
		return nil, fmt.Errorf("sweep: cells CSV header has %d columns, want %d, %d or %d",
			len(recs[0]), len(cellsHeader), len(cellsHeaderBurst), len(cellsHeaderArray))
	}
	col := make(map[string]int, len(header))
	for i, name := range header {
		if recs[0][i] != name {
			return nil, fmt.Errorf("sweep: cells CSV header column %d = %q, want %q", i, recs[0][i], name)
		}
		col[name] = i
	}
	cells := make([]Cell, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		// Files written before an axis existed carry its default.
		c := Cell{BurstMult: 1, Volumes: 1}
		var err error
		c.Workload, c.Scheme = rec[0], rec[1]
		if c.Replicates, err = strconv.Atoi(rec[col["replicates"]]); err != nil {
			return nil, fmt.Errorf("sweep: cells CSV replicates: %w", err)
		}
		if i, ok := col["volumes"]; ok {
			if c.Volumes, err = strconv.Atoi(rec[i]); err != nil {
				return nil, fmt.Errorf("sweep: cells CSV volumes: %w", err)
			}
		}
		fields := []struct {
			dst *float64
			s   string
		}{
			{&c.CacheMult, rec[col["cache_mult"]]}, {&c.RateFactor, rec[col["rate_factor"]]},
			{&c.QMeanUS, rec[col["q_mean_us"]]}, {&c.QMinUS, rec[col["q_min_us"]]}, {&c.QMaxUS, rec[col["q_max_us"]]},
			{&c.DiskQMeanUS, rec[col["disk_q_mean_us"]]}, {&c.LatencyMeanUS, rec[col["latency_mean_us"]]},
			{&c.HitRatioMean, rec[col["hit_ratio_mean"]]}, {&c.PolicyFlipsMean, rec[col["policy_flips_mean"]]},
			{&c.SpeedupVsWB, rec[col["speedup_vs_wb"]]}, {&c.SpeedupVsSIB, rec[col["speedup_vs_sib"]]},
		}
		if i, ok := col["burst_mult"]; ok {
			fields = append(fields, struct {
				dst *float64
				s   string
			}{&c.BurstMult, rec[i]})
		}
		if i, ok := col["route_skew"]; ok {
			fields = append(fields, struct {
				dst *float64
				s   string
			}{&c.RouteSkew, rec[i]})
		}
		for _, f := range fields {
			if *f.dst, err = strconv.ParseFloat(f.s, 64); err != nil {
				return nil, fmt.Errorf("sweep: cells CSV float field: %w", err)
			}
			// The emitter never writes NaN or ±Inf (simulation metrics are
			// finite); accepting them here would let a corrupt file survive
			// a parse-emit-parse cycle unequal to itself.
			if math.IsNaN(*f.dst) || math.IsInf(*f.dst, 0) {
				return nil, fmt.Errorf("sweep: cells CSV non-finite float %q", f.s)
			}
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// WriteJSON emits the whole result (grid, runs, cells) as indented JSON.
func WriteJSON(w io.Writer, res *Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// WriteCellsJSON emits just the per-cell summaries as indented JSON.
func WriteCellsJSON(w io.Writer, cells []Cell) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cells)
}

// ParseCellsJSON reads back a stream written by WriteCellsJSON.
func ParseCellsJSON(r io.Reader) ([]Cell, error) {
	var cells []Cell
	if err := json.NewDecoder(r).Decode(&cells); err != nil {
		return nil, fmt.Errorf("sweep: decoding cells JSON: %w", err)
	}
	return cells, nil
}

// WriteReport renders the compact text report: the grid shape, a per-cell
// table, and — when the sweep was interrupted — how much of it finished.
// The burst-intensity and array columns appear only when the grid
// actually sweeps them, so reports without those axes render exactly as
// they always have.
func WriteReport(w io.Writer, res *Result) error {
	g := res.Grid
	burst := len(g.BurstMults) > 1 || hasBurstAxis(res.Cells)
	arr := len(g.Volumes) > 1 || len(g.RouteSkews) > 1 || hasArrayAxis(res.Cells)
	burstShape := ""
	if burst {
		burstShape = fmt.Sprintf(" × %d bursts", len(g.BurstMults))
	}
	arrShape := ""
	if arr {
		arrShape = fmt.Sprintf(" × %d widths × %d skews", len(g.Volumes), len(g.RouteSkews))
	}
	if _, err := fmt.Fprintf(w,
		"sweep: %d workloads × %d schemes × %d cache sizes × %d rates%s%s × %d seeds = %d runs (%d completed)\n\n",
		len(g.Workloads), len(g.Schemes), len(g.CacheMults), len(g.RateFactors),
		burstShape, arrShape, g.SeedReplicates, res.Total, res.Completed); err != nil {
		return err
	}
	for _, s := range res.Skipped {
		if _, err := fmt.Fprintf(w, "skipped: %s\n", s); err != nil {
			return err
		}
	}
	if len(res.Skipped) > 0 {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', tabwriter.AlignRight)
	burstCol := ""
	if burst {
		burstCol = "burst×\t"
	}
	arrCol := ""
	if arr {
		arrCol = "vols\tskew\t"
	}
	fmt.Fprintln(tw, "workload\tscheme\tcache×\trate×\t"+burstCol+arrCol+"reps\tq mean µs\tq min µs\tq max µs\tdisk q µs\tlat µs\thit\tflips\tvs WB\tvs SIB\t")
	for _, c := range res.Cells {
		vsWB, vsSIB := "-", "-"
		if c.SpeedupVsWB != 0 {
			vsWB = fmt.Sprintf("%.2f×", c.SpeedupVsWB)
		}
		if c.SpeedupVsSIB != 0 {
			vsSIB = fmt.Sprintf("%.2f×", c.SpeedupVsSIB)
		}
		burstVal := ""
		if burst {
			burstVal = fmt.Sprintf("%g\t", c.BurstMult)
		}
		arrVal := ""
		if arr {
			arrVal = fmt.Sprintf("%d\t%g\t", c.Volumes, c.RouteSkew)
		}
		fmt.Fprintf(tw, "%s\t%s\t%g\t%g\t%s%s%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.3f\t%.1f\t%s\t%s\t\n",
			c.Workload, c.Scheme, c.CacheMult, c.RateFactor, burstVal, arrVal, c.Replicates,
			c.QMeanUS, c.QMinUS, c.QMaxUS, c.DiskQMeanUS,
			c.LatencyMeanUS, c.HitRatioMean, c.PolicyFlipsMean, vsWB, vsSIB)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	// Early-termination summary, gated on the tolerance so tolerance-off
	// reports keep their historical bytes.
	if res.Grid.CITolerance > 0 {
		term := 0
		for _, c := range res.Cells {
			if c.EarlyTerminated {
				term++
			}
		}
		if _, err := fmt.Fprintf(w, "\nearly termination: %d of %d cells stopped below %d replicates (ci tolerance %g)\n",
			term, len(res.Cells), res.Grid.SeedReplicates, res.Grid.CITolerance); err != nil {
			return err
		}
	}
	if res.Completed < res.Total {
		if _, err := fmt.Fprintf(w, "\npartial report: %d of %d runs completed before interruption\n",
			res.Completed, res.Total); err != nil {
			return err
		}
	}
	return nil
}
