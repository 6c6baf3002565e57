package trace

import (
	"fmt"
	"io"
	"time"

	"lbica/internal/block"
	"lbica/internal/stats"
)

// Window is one aggregation window of a trace analysis: the census of
// requests that entered a device queue during [Start, End).
type Window struct {
	Index  int
	Start  time.Duration
	End    time.Duration
	Census block.Census
}

// MaxWindows bounds the windows WindowCensus returns: 2^18 windows is
// 14.5 hours of 200 ms intervals, far past any simulated run, and about
// 23 MiB of windows. Without a bound one record stamped 2^62 ns would make
// the census append empty windows until memory ran out.
const MaxWindows = 1 << 18

// WindowCensus streams a binary trace and aggregates queue-insertion
// events (Queued and Merged) on one device into fixed windows — the
// offline equivalent of the monitor's per-interval arrival census, and
// what the physical LBICA prototype computes from blktrace output. A
// record more than MaxWindows windows past the start is an error.
func WindowCensus(r io.Reader, dev Device, win time.Duration) ([]Window, error) {
	if win <= 0 {
		return nil, fmt.Errorf("trace: window must be positive, got %v", win)
	}
	tr := NewReader(r)
	var out []Window
	cur := Window{End: win}
	flush := func() {
		out = append(out, cur)
		cur = Window{Index: cur.Index + 1, Start: cur.End, End: cur.End + win}
	}
	any := false
	for {
		e, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
		any = true
		if e.At/win >= MaxWindows {
			return out, fmt.Errorf("trace: record at %v lies more than %d windows of %v past the start", e.At, MaxWindows, win)
		}
		for e.At >= cur.End {
			flush()
		}
		if e.Dev != dev {
			continue
		}
		if e.Kind == Queued || e.Kind == Merged {
			cur.Census[e.Origin]++
		}
	}
	if any {
		flush()
	}
	return out, nil
}

// OriginStats aggregates per-origin performance out of a trace: counts,
// queue-time and service-time means, and total sectors moved.
type OriginStats struct {
	Count      uint64
	Merged     uint64
	Bypassed   uint64
	Sectors    int64
	QueueTime  stats.Welford
	ServiceLat stats.Welford
}

// Analysis is a whole-trace summary per device per origin.
type Analysis struct {
	PerOrigin [2][block.NumOrigins]OriginStats // indexed [Device][Origin]
	Events    uint64
	Span      time.Duration
}

// Analyze streams a binary trace and computes per-origin statistics. The
// queue/service decomposition pairs each Dispatched and Completed event
// with its Queued record by (device, id).
func Analyze(r io.Reader) (*Analysis, error) {
	tr := NewReader(r)
	a := &Analysis{}
	type key struct {
		dev Device
		id  uint64
	}
	queuedAt := make(map[key]time.Duration)
	dispatchedAt := make(map[key]time.Duration)
	for {
		e, err := tr.Next()
		if err == io.EOF {
			return a, nil
		}
		if err != nil {
			return a, err
		}
		a.Events++
		if e.At > a.Span {
			a.Span = e.At
		}
		if e.Kind == PolicySet {
			continue
		}
		os := &a.PerOrigin[e.Dev][e.Origin]
		k := key{e.Dev, e.ID}
		switch e.Kind {
		case Queued:
			os.Count++
			os.Sectors += e.Sector
			queuedAt[k] = e.At
		case Merged:
			os.Merged++
			os.Sectors += e.Sector
		case Bypassed:
			os.Bypassed++
			delete(queuedAt, k)
		case Dispatched:
			if q, ok := queuedAt[k]; ok {
				os.QueueTime.AddDuration(e.At - q)
				dispatchedAt[k] = e.At
				delete(queuedAt, k)
			}
		case Completed:
			if d, ok := dispatchedAt[k]; ok {
				os.ServiceLat.AddDuration(e.At - d)
				delete(dispatchedAt, k)
			}
		}
	}
}

// WriteAnalysis renders an Analysis as an aligned table.
func WriteAnalysis(w io.Writer, a *Analysis) error {
	if _, err := fmt.Fprintf(w, "trace: %d events over %v\n\n", a.Events, a.Span.Round(time.Millisecond)); err != nil {
		return err
	}
	const row = "%4s %6s %10d %8d %8d %12.0f %14v %14v\n"
	if _, err := fmt.Fprintf(w, "%4s %6s %10s %8s %8s %12s %14s %14s\n",
		"dev", "origin", "count", "merged", "bypassed", "MiB", "avg queue", "avg service"); err != nil {
		return err
	}
	for dev := Device(0); dev < 2; dev++ {
		for o := 0; o < block.NumOrigins; o++ {
			os := &a.PerOrigin[dev][o]
			if os.Count == 0 && os.Merged == 0 && os.Bypassed == 0 {
				continue
			}
			_, err := fmt.Fprintf(w, row, dev, block.Origin(o), os.Count, os.Merged, os.Bypassed,
				float64(os.Sectors)*block.SectorSize/(1<<20),
				os.QueueTime.MeanDuration().Round(time.Microsecond),
				os.ServiceLat.MeanDuration().Round(time.Microsecond))
			if err != nil {
				return err
			}
		}
	}
	return nil
}
