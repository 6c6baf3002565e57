package lbica

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// The JSON configuration surface: everything in Options except the
// stream fields (trace, record, replay), which are wired up by the caller.
// Durations serialize as Go duration strings ("200ms", "1.5s").

// optionsJSON mirrors Options with JSON-friendly fields.
type optionsJSON struct {
	Workload       string      `json:"workload,omitempty"`
	Scheme         string      `json:"scheme,omitempty"`
	Seed           int64       `json:"seed,omitempty"`
	Intervals      int         `json:"intervals,omitempty"`
	IntervalLength string      `json:"interval_length,omitempty"`
	RateFactor     float64     `json:"rate_factor,omitempty"`
	Name           string      `json:"name,omitempty"`
	Phases         []phaseJSON `json:"phases,omitempty"`
	CacheMiB       int         `json:"cache_mib,omitempty"`
	CacheWays      int         `json:"cache_ways,omitempty"`
	Replacement    string      `json:"replacement,omitempty"`
	DiskElevator   bool        `json:"disk_elevator,omitempty"`
	DisablePrewarm bool        `json:"disable_prewarm,omitempty"`

	Volumes      int             `json:"volumes,omitempty"`
	RoutePolicy  string          `json:"route_policy,omitempty"`
	RouteSkew    float64         `json:"route_skew,omitempty"`
	RouteVariant string          `json:"route_variant,omitempty"`
	ShardWorkers int             `json:"shard_workers,omitempty"`
	Thresholds   *thresholdsJSON `json:"thresholds,omitempty"`
}

// thresholdsJSON mirrors Thresholds; zero/omitted fields inherit the
// paper defaults field-wise, matching the in-process knob.
type thresholdsJSON struct {
	DominantPair float64 `json:"dominant_pair,omitempty"`
	MemberMin    float64 `json:"member_min,omitempty"`
	PromoteAlone float64 `json:"promote_alone,omitempty"`
	ReadAlone    float64 `json:"read_alone,omitempty"`
	MinQueued    int     `json:"min_queued,omitempty"`
}

type phaseJSON struct {
	Name                  string  `json:"name,omitempty"`
	Duration              string  `json:"duration"`
	BaseIOPS              float64 `json:"base_iops"`
	BurstIOPS             float64 `json:"burst_iops,omitempty"`
	BurstOn               string  `json:"burst_on,omitempty"`
	BurstOff              string  `json:"burst_off,omitempty"`
	ReadRatio             float64 `json:"read_ratio"`
	Sequential            float64 `json:"sequential,omitempty"`
	WorkingSetBlocks      int64   `json:"working_set_blocks"`
	BaseBlock             int64   `json:"base_block,omitempty"`
	ZipfExponent          float64 `json:"zipf_exponent,omitempty"`
	SizesSectors          []int64 `json:"sizes_sectors,omitempty"`
	WriteWorkingSetBlocks int64   `json:"write_working_set_blocks,omitempty"`
	WriteBaseBlock        int64   `json:"write_base_block,omitempty"`
	WriteZipfExponent     float64 `json:"write_zipf_exponent,omitempty"`
}

// LoadOptions reads a JSON run configuration.
func LoadOptions(r io.Reader) (Options, error) {
	var j optionsJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return Options{}, fmt.Errorf("lbica: parsing options: %w", err)
	}
	o := Options{
		Workload:       j.Workload,
		Scheme:         j.Scheme,
		Seed:           j.Seed,
		Intervals:      j.Intervals,
		RateFactor:     j.RateFactor,
		Name:           j.Name,
		CacheMiB:       j.CacheMiB,
		CacheWays:      j.CacheWays,
		Replacement:    j.Replacement,
		DiskElevator:   j.DiskElevator,
		DisablePrewarm: j.DisablePrewarm,
		Volumes:        j.Volumes,
		RoutePolicy:    j.RoutePolicy,
		RouteSkew:      j.RouteSkew,
		RouteVariant:   j.RouteVariant,
		ShardWorkers:   j.ShardWorkers,
	}
	if j.Thresholds != nil {
		o.Thresholds = Thresholds(*j.Thresholds)
	}
	var err error
	if o.IntervalLength, err = parseDur(j.IntervalLength, "interval_length"); err != nil {
		return Options{}, err
	}
	for i, pj := range j.Phases {
		p := Phase{
			Name:                  pj.Name,
			BaseIOPS:              pj.BaseIOPS,
			BurstIOPS:             pj.BurstIOPS,
			ReadRatio:             pj.ReadRatio,
			Sequential:            pj.Sequential,
			WorkingSetBlocks:      pj.WorkingSetBlocks,
			BaseBlock:             pj.BaseBlock,
			ZipfExponent:          pj.ZipfExponent,
			SizesSectors:          pj.SizesSectors,
			WriteWorkingSetBlocks: pj.WriteWorkingSetBlocks,
			WriteBaseBlock:        pj.WriteBaseBlock,
			WriteZipfExponent:     pj.WriteZipfExponent,
		}
		if p.Duration, err = parseDur(pj.Duration, fmt.Sprintf("phases[%d].duration", i)); err != nil {
			return Options{}, err
		}
		if p.BurstOn, err = parseDur(pj.BurstOn, fmt.Sprintf("phases[%d].burst_on", i)); err != nil {
			return Options{}, err
		}
		if p.BurstOff, err = parseDur(pj.BurstOff, fmt.Sprintf("phases[%d].burst_off", i)); err != nil {
			return Options{}, err
		}
		o.Phases = append(o.Phases, p)
	}
	return o, nil
}

// SaveOptions writes a JSON run configuration.
func SaveOptions(w io.Writer, o Options) error {
	j := optionsJSON{
		Workload:       o.Workload,
		Scheme:         o.Scheme,
		Seed:           o.Seed,
		Intervals:      o.Intervals,
		RateFactor:     o.RateFactor,
		Name:           o.Name,
		CacheMiB:       o.CacheMiB,
		CacheWays:      o.CacheWays,
		Replacement:    o.Replacement,
		DiskElevator:   o.DiskElevator,
		DisablePrewarm: o.DisablePrewarm,
		Volumes:        o.Volumes,
		RoutePolicy:    o.RoutePolicy,
		RouteSkew:      o.RouteSkew,
		RouteVariant:   o.RouteVariant,
		ShardWorkers:   o.ShardWorkers,
	}
	if o.Thresholds != (Thresholds{}) {
		t := thresholdsJSON(o.Thresholds)
		j.Thresholds = &t
	}
	if o.IntervalLength > 0 {
		j.IntervalLength = o.IntervalLength.String()
	}
	for _, p := range o.Phases {
		pj := phaseJSON{
			Name:                  p.Name,
			Duration:              p.Duration.String(),
			BaseIOPS:              p.BaseIOPS,
			BurstIOPS:             p.BurstIOPS,
			ReadRatio:             p.ReadRatio,
			Sequential:            p.Sequential,
			WorkingSetBlocks:      p.WorkingSetBlocks,
			BaseBlock:             p.BaseBlock,
			ZipfExponent:          p.ZipfExponent,
			SizesSectors:          p.SizesSectors,
			WriteWorkingSetBlocks: p.WriteWorkingSetBlocks,
			WriteBaseBlock:        p.WriteBaseBlock,
			WriteZipfExponent:     p.WriteZipfExponent,
		}
		if p.BurstOn > 0 {
			pj.BurstOn = p.BurstOn.String()
		}
		if p.BurstOff > 0 {
			pj.BurstOff = p.BurstOff.String()
		}
		j.Phases = append(j.Phases, pj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(j)
}

func parseDur(s, field string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("lbica: %s: %w", field, err)
	}
	return d, nil
}
