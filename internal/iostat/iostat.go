// Package iostat is the simulation's sysstat: a periodic sampler that
// watches both device queues and publishes per-interval statistics,
// including the Eq. 1 queue-time estimates LBICA's detector consumes.
//
//	cacheQtime = ssdQSize × ssdLatency
//	diskQtime  = hddQSize × hddLatency
//
// The paper samples every 10 wall-clock minutes; the interval here is
// configurable virtual time. "Load" in Figs. 4–6 is the per-interval
// maximum of the queue-time estimate, which is what Sample.CacheLoad and
// Sample.DiskLoad carry.
package iostat

import (
	"slices"
	"time"

	"lbica/internal/block"
	"lbica/internal/stats"
)

// Tier identifies a device tier to the monitor.
type Tier int

// Tiers.
const (
	SSD Tier = iota
	HDD
	numTiers
)

// Sample is one closed interval's statistics.
type Sample struct {
	Interval int
	Start    time.Duration
	End      time.Duration

	// Queue depths: at interval end, the max seen within the interval, and
	// the time-weighted average over the interval (iostat's avgqu-sz).
	SSDDepth, HDDDepth       int
	SSDDepthMax, HDDDepthMax int
	SSDDepthAvg, HDDDepthAvg float64

	// Eq. 1 queue-time estimates at the within-interval depth maxima —
	// the per-interval "load" (max latency) of Figs. 4 and 5.
	CacheLoad time.Duration
	DiskLoad  time.Duration

	// Eq. 1 queue-time estimates on the time-averaged depths — what the
	// burst detector compares. Using averages rather than peaks keeps one
	// transient disk-queue spike inside an interval from masking a
	// sustained SSD backlog.
	CacheQTime time.Duration
	DiskQTime  time.Duration

	// Bottleneck is the Eq. 1 comparison on averages: CacheQTime > DiskQTime.
	Bottleneck bool

	// Census is the SSD in-queue census at the within-interval depth peak.
	Census block.Census

	// Arrivals is the census of requests that entered the SSD queue during
	// the interval — the R/W/P/E mix the characterizer consumes (a FIFO
	// queue's resident mix equals its arrival mix, and arrivals are what a
	// blktrace pass over the interval yields).
	Arrivals block.Census

	// Completion statistics for requests finished within the interval.
	SSDCompleted, HDDCompleted uint64
	SSDAwait, HDDAwait         time.Duration
	SSDMaxLatency, HDDMaxLat   time.Duration

	// AppCompleted/AppAwait cover application requests end-to-end
	// (including cache-miss chains), the quantity of Fig. 7.
	AppCompleted uint64
	AppAwait     time.Duration
	AppMaxLat    time.Duration
}

// QueueReader exposes what the monitor needs from a device queue.
type QueueReader interface {
	Depth() int
	Census() block.Census
	// Arrivals is the cumulative arrival census (see ioqueue.Arrivals).
	Arrivals() block.Census
}

// Config parameterizes a Monitor.
type Config struct {
	// Every is the sampling interval in virtual time.
	Every time.Duration
	// SSDLatency and HDDLatency are the calibrated per-request service
	// latencies of Eq. 1 (the paper uses the devices' average read/write
	// latency).
	SSDLatency time.Duration
	HDDLatency time.Duration
	// CompareOnPeak switches the bottleneck comparison from time-averaged
	// depths to within-interval peaks. Peaks are what the figures plot,
	// but as a detector input one transient disk spike can mask a
	// sustained SSD backlog — kept as an ablation knob (DESIGN.md §5.1).
	CompareOnPeak bool
}

// Monitor accumulates statistics and closes a Sample every interval.
// The engine drives it: NoteDepth on queue changes, NoteCompletion on
// device completions, NoteAppDone on application-request completions, and
// Tick at each interval boundary.
type Monitor struct {
	cfg  Config
	ssdQ QueueReader
	hddQ QueueReader

	samples []Sample
	onClose []func(Sample)

	// accumulators for the open interval
	idx         int
	start       time.Duration
	depthMax    [numTiers]int
	censusAtMax block.Census
	completed   [numTiers]uint64
	await       [numTiers]stats.Welford
	appDone     uint64
	appLat      stats.Welford

	// time-weighted depth integration
	lastDepth   [numTiers]int
	lastChange  [numTiers]time.Duration
	depthWeight [numTiers]float64 // ∫ depth dt, in depth×ns

	// arrival-census snapshot at the previous tick
	prevArrivals block.Census
}

// New builds a monitor over the two queues.
func New(cfg Config, ssdQ, hddQ QueueReader) *Monitor {
	if cfg.Every <= 0 {
		cfg.Every = time.Second
	}
	return &Monitor{cfg: cfg, ssdQ: ssdQ, hddQ: hddQ}
}

// OnClose registers a callback invoked with each closed Sample — the hook
// point for load balancers.
func (m *Monitor) OnClose(fn func(Sample)) { m.onClose = append(m.onClose, fn) }

// Every returns the sampling interval.
func (m *Monitor) Every() time.Duration { return m.cfg.Every }

// NoteDepth records a queue-depth change on a tier at virtual time now.
// The SSD depth peak also snapshots the census: the characterizer reasons
// about the queue at its worst moment, not at the (often drained) interval
// end.
func (m *Monitor) NoteDepth(t Tier, now time.Duration) {
	var d int
	if t == SSD {
		d = m.ssdQ.Depth()
	} else {
		d = m.hddQ.Depth()
	}
	m.depthWeight[t] += float64(m.lastDepth[t]) * float64(now-m.lastChange[t])
	m.lastDepth[t] = d
	m.lastChange[t] = now
	if d > m.depthMax[t] {
		m.depthMax[t] = d
		if t == SSD {
			m.censusAtMax = m.ssdQ.Census()
		}
	}
}

// NoteCompletion records a finished device request.
func (m *Monitor) NoteCompletion(t Tier, r *block.Request) {
	m.completed[t]++
	m.await[t].AddDuration(r.Latency())
}

// NoteAppDone records an application request's end-to-end latency.
func (m *Monitor) NoteAppDone(latency time.Duration) {
	m.appDone++
	m.appLat.AddDuration(latency)
}

// Tick closes the open interval at virtual time now, appends the Sample,
// and fires OnClose callbacks.
func (m *Monitor) Tick(now time.Duration) Sample {
	// Close the depth integrals at the boundary.
	for t := Tier(0); t < numTiers; t++ {
		m.depthWeight[t] += float64(m.lastDepth[t]) * float64(now-m.lastChange[t])
		m.lastChange[t] = now
	}
	span := float64(now - m.start)
	arr := m.ssdQ.Arrivals()
	var delta block.Census
	for i := range arr {
		delta[i] = arr[i] - m.prevArrivals[i]
	}
	m.prevArrivals = arr
	s := Sample{
		Interval:      m.idx,
		Start:         m.start,
		End:           now,
		SSDDepth:      m.ssdQ.Depth(),
		HDDDepth:      m.hddQ.Depth(),
		SSDDepthMax:   m.depthMax[SSD],
		HDDDepthMax:   m.depthMax[HDD],
		Census:        m.censusAtMax,
		Arrivals:      delta,
		SSDCompleted:  m.completed[SSD],
		HDDCompleted:  m.completed[HDD],
		SSDAwait:      m.await[SSD].MeanDuration(),
		HDDAwait:      m.await[HDD].MeanDuration(),
		SSDMaxLatency: m.await[SSD].MaxDuration(),
		HDDMaxLat:     m.await[HDD].MaxDuration(),
		AppCompleted:  m.appDone,
		AppAwait:      m.appLat.MeanDuration(),
		AppMaxLat:     m.appLat.MaxDuration(),
	}
	if span > 0 {
		s.SSDDepthAvg = m.depthWeight[SSD] / span
		s.HDDDepthAvg = m.depthWeight[HDD] / span
	}
	s.CacheLoad = QueueTime(s.SSDDepthMax, m.cfg.SSDLatency)
	s.DiskLoad = QueueTime(s.HDDDepthMax, m.cfg.HDDLatency)
	s.CacheQTime = time.Duration(s.SSDDepthAvg * float64(m.cfg.SSDLatency))
	s.DiskQTime = time.Duration(s.HDDDepthAvg * float64(m.cfg.HDDLatency))
	// A near-idle SSD queue cannot be a bottleneck no matter how idle the
	// disk is; require at least one request continuously pending.
	if m.cfg.CompareOnPeak {
		s.Bottleneck = s.CacheLoad > s.DiskLoad && s.SSDDepthMax >= 1
	} else {
		s.Bottleneck = s.CacheQTime > s.DiskQTime && s.SSDDepthAvg >= 1
	}
	m.samples = append(m.samples, s)

	// reset accumulators
	m.idx++
	m.start = now
	m.depthMax = [numTiers]int{}
	m.censusAtMax = block.Census{}
	m.completed = [numTiers]uint64{}
	m.await[SSD].Reset()
	m.await[HDD].Reset()
	m.appDone = 0
	m.appLat.Reset()
	m.depthWeight = [numTiers]float64{}

	for _, fn := range m.onClose {
		fn(s)
	}
	return s
}

// Reserve makes room for n more samples, so a run that knows its
// interval count appends them without growing the series.
func (m *Monitor) Reserve(n int) { m.samples = slices.Grow(m.samples, n) }

// Samples returns all closed samples.
func (m *Monitor) Samples() []Sample { return m.samples }

// QueueTime is Eq. 1: pending requests × calibrated service latency.
func QueueTime(depth int, svc time.Duration) time.Duration {
	return time.Duration(depth) * svc
}
