// Package device models the two storage tiers of the paper's testbed — a
// Samsung SM863a-class SATA SSD and a Seagate 7.2K-RPM SAS disk subsystem —
// as service-time processes, plus the Server that pulls requests from an
// ioqueue into the simulation.
//
// The models are deliberately first-order: what LBICA consumes is the
// *ratio* of the two tiers' queue times (Eq. 1), which depends on each
// tier's service rate versus the arrival rate, not on FTL- or servo-level
// detail. Each model also publishes its calibrated mean read/write latency,
// the ssdLatency/hddLatency constants of Eq. 1.
package device

import (
	"fmt"
	"time"

	"lbica/internal/block"
	"lbica/internal/sim"
)

// Model converts a request into a service time at the device. Models keep
// internal head/locality state, so one Model instance serves one device.
type Model interface {
	// Service returns the time the device needs to execute r once it is
	// dispatched (queueing excluded).
	Service(r *block.Request) time.Duration
	// AvgLatency returns the calibrated mean service latency for an
	// operation — the per-device constant in Eq. 1.
	AvgLatency(op block.Op) time.Duration
	// Width is the number of requests the device services concurrently
	// (channel/spindle parallelism). It must not change: a Server reads it
	// once.
	Width() int
	// Name identifies the device in logs and traces.
	Name() string
}

// SSDConfig parameterizes a flash device. Defaults (DefaultSSDConfig)
// approximate a SATA enterprise SSD of the SM863a class.
type SSDConfig struct {
	Name string
	// ReadBase / WriteBase are mean per-command flash latencies.
	ReadBase  time.Duration
	WriteBase time.Duration
	// Sigma is the lognormal shape of latency jitter.
	Sigma float64
	// PerSector is the bus/NAND transfer time per 512-byte sector.
	PerSector time.Duration
	// Channels is the internal parallelism (concurrent in-flight commands).
	Channels int
	// WriteCliffThreshold, if > 0, is a dirty-page backlog (in requests)
	// beyond which writes slow by WriteCliffFactor — a first-order garbage
	// collection cliff. Zero disables it.
	WriteCliffThreshold int
	WriteCliffFactor    float64
}

// DefaultSSDConfig returns the SM863a-class defaults.
func DefaultSSDConfig() SSDConfig {
	return SSDConfig{
		Name:      "ssd",
		ReadBase:  90 * time.Microsecond,
		WriteBase: 45 * time.Microsecond,
		Sigma:     0.25,
		PerSector: 900 * time.Nanosecond, // ≈ 550 MB/s streaming
		Channels:  2,
	}
}

// SSD is a flash-device model.
type SSD struct {
	cfg   SSDConfig
	g     *sim.RNG
	read  sim.LogNormal
	write sim.LogNormal
	// inflightWrites approximates the GC backlog for the write cliff.
	recentWrites int
}

// NewSSD builds an SSD model drawing jitter from the given RNG stream.
func NewSSD(cfg SSDConfig, g *sim.RNG) *SSD {
	if cfg.Channels <= 0 {
		cfg.Channels = 1
	}
	return &SSD{
		cfg:   cfg,
		g:     g,
		read:  sim.NewLogNormal(cfg.ReadBase, cfg.Sigma, g),
		write: sim.NewLogNormal(cfg.WriteBase, cfg.Sigma, g),
	}
}

// Service implements Model.
func (s *SSD) Service(r *block.Request) time.Duration {
	var base time.Duration
	if r.Op() == block.Read {
		base = s.read.Sample()
	} else {
		base = s.write.Sample()
		s.recentWrites++
		if s.cfg.WriteCliffThreshold > 0 && s.recentWrites > s.cfg.WriteCliffThreshold {
			base = time.Duration(float64(base) * s.cfg.WriteCliffFactor)
		}
	}
	if r.Op() == block.Read {
		s.recentWrites = 0
	}
	return base + time.Duration(r.Extent.Sectors)*s.cfg.PerSector
}

// AvgLatency implements Model.
func (s *SSD) AvgLatency(op block.Op) time.Duration {
	// Calibrated for a typical 4 KiB (8-sector) request.
	xfer := 8 * s.cfg.PerSector
	if op == block.Read {
		return s.cfg.ReadBase + xfer
	}
	return s.cfg.WriteBase + xfer
}

// Width implements Model.
func (s *SSD) Width() int { return s.cfg.Channels }

// Name implements Model.
func (s *SSD) Name() string { return s.cfg.Name }

// HDDConfig parameterizes a rotational disk subsystem; Spindles > 1 models
// the striped multi-drive "disk subsystem" of an enterprise array.
type HDDConfig struct {
	Name string
	// RPM sets rotational latency (half a revolution on average).
	RPM int
	// SeekAvg is the mean seek; actual seeks draw uniformly in
	// [0.25,1.75]×SeekAvg scaled by how far the head must travel.
	SeekAvg time.Duration
	// PerSector is the media transfer time per 512-byte sector.
	PerSector time.Duration
	// Spindles is the number of drives the subsystem stripes across; it
	// becomes the service width.
	Spindles int
	// SeqThreshold is the max gap (sectors) still treated as sequential —
	// a near hit skips the seek and most of the rotation.
	SeqThreshold int64

	// DistanceSeek, when set, scales seek time with the head travel
	// distance (gap/StrokeSectors of the full stroke) instead of drawing
	// around the average — the model under which elevator scheduling pays
	// off. StrokeSectors defaults to 2^28 (128 GiB span) when zero.
	DistanceSeek  bool
	StrokeSectors int64

	// Controller write-back cache (enterprise arrays ack writes from
	// controller DRAM long before the spindles see them — the reason the
	// paper's disk-subsystem load stays on a µs axis even while absorbing
	// bypassed write bursts). Writes are acked at WriteCacheLatency while
	// the controller's dirty backlog is below WriteCacheDepth; the backlog
	// drains at DrainIOPS (coalesced spindle writes). A zero depth
	// disables the controller cache (bare-drive behavior). The drain model
	// needs a clock: call SetClock, or the cache is treated as disabled.
	WriteCacheLatency time.Duration
	WriteCacheDepth   int
	DrainIOPS         float64
}

// HDD is a rotational disk-subsystem model with sequential-locality
// detection per spindle (approximated with a single shared head position,
// which is pessimistic for interleaved streams — acceptable at this
// altitude).
type HDD struct {
	cfg     HDDConfig
	g       *sim.RNG
	lastEnd int64
	rotHalf time.Duration

	clock       func() time.Duration
	wcOccupancy float64
	wcLastDrain time.Duration
	wcRejects   uint64
}

// NewHDD builds an HDD model drawing seek/rotation draws from g.
func NewHDD(cfg HDDConfig, g *sim.RNG) *HDD {
	if cfg.Spindles <= 0 {
		cfg.Spindles = 1
	}
	if cfg.RPM <= 0 {
		cfg.RPM = 7200
	}
	rev := time.Duration(60e9 / float64(cfg.RPM))
	return &HDD{cfg: cfg, g: g, lastEnd: -1, rotHalf: rev / 2}
}

// SetClock supplies virtual time, enabling the controller write cache's
// drain model. The engine passes its sim clock.
func (h *HDD) SetClock(fn func() time.Duration) { h.clock = fn }

// WriteCacheRejects reports how many writes overflowed the controller
// cache and fell through to spindle latency.
func (h *HDD) WriteCacheRejects() uint64 { return h.wcRejects }

// Service implements Model.
func (h *HDD) Service(r *block.Request) time.Duration {
	if r.Op() == block.Write && h.cfg.WriteCacheDepth > 0 && h.clock != nil {
		now := h.clock()
		if h.cfg.DrainIOPS > 0 {
			drained := float64(now-h.wcLastDrain) / float64(time.Second) * h.cfg.DrainIOPS
			h.wcOccupancy -= drained
			if h.wcOccupancy < 0 {
				h.wcOccupancy = 0
			}
		}
		h.wcLastDrain = now
		if h.wcOccupancy < float64(h.cfg.WriteCacheDepth) {
			h.wcOccupancy++
			return h.cfg.WriteCacheLatency
		}
		h.wcRejects++
		// fall through to spindle latency: the cache is full
	}
	xfer := time.Duration(r.Extent.Sectors) * h.cfg.PerSector
	gap := r.Extent.LBA - h.lastEnd
	if gap < 0 {
		gap = -gap
	}
	sequential := h.lastEnd >= 0 && gap <= h.cfg.SeqThreshold
	h.lastEnd = r.Extent.End()
	if sequential {
		return xfer
	}
	var seek time.Duration
	if h.cfg.DistanceSeek {
		// Seek proportional to head travel: short hops cost a fraction of
		// the average seek, full-stroke moves up to ~2×.
		stroke := h.cfg.StrokeSectors
		if stroke <= 0 {
			stroke = 1 << 28
		}
		frac := float64(gap) / float64(stroke)
		if frac > 1 {
			frac = 1
		}
		seek = time.Duration(float64(h.cfg.SeekAvg) * (0.2 + 1.8*frac))
	} else {
		// Average-seek model: uniform around the configured mean,
		// independent of distance (the calibrated default).
		seek = time.Duration(float64(h.cfg.SeekAvg) * (0.25 + 1.5*h.g.Float64()))
	}
	rot := time.Duration(h.g.Float64() * float64(2*h.rotHalf))
	return seek + rot + xfer
}

// AvgLatency implements Model.
func (h *HDD) AvgLatency(op block.Op) time.Duration {
	// Mean seek + half-revolution + 4 KiB transfer; same for reads and
	// writes at this altitude.
	return h.cfg.SeekAvg + h.rotHalf + 8*h.cfg.PerSector
}

// Width implements Model.
func (h *HDD) Width() int { return h.cfg.Spindles }

// Name implements Model.
func (h *HDD) Name() string { return h.cfg.Name }

// Server couples a Model to an ioqueue-like source and the DES engine: it
// keeps up to Width() requests in flight, sampling a service time for each
// and completing it on the virtual clock.
type Server struct {
	eng      *sim.Engine
	model    Model
	source   Source
	width    int // model.Width(), fixed for the model's life
	inflight int

	busy       time.Duration // cumulative service time (utilization numerator)
	completed  uint64
	onDone     func(*block.Request)
	onDispatch func(*block.Request)
	onRelease  func(*block.Request)
	freeOps    []*inflightOp
	// live tracks dispatched-but-uncompleted ops and stalls the pending
	// stall slots: the working set a checkpoint must encode and rebind.
	// Each op carries its pending event handle for exactly that purpose.
	live       []*inflightOp
	stalls     []*stallOp
	freeStalls []*stallOp
}

// inflightOp carries one dispatched request to its completion event. Ops
// are pooled (the pool's high-water mark is the device width plus pending
// completions) and their completion callback is bound once at allocation,
// so steady-state dispatch allocates nothing.
type inflightOp struct {
	s   *Server
	r   *block.Request
	idx int       // position in s.live, for swap-remove
	ev  sim.Event // the pending completion event, for checkpointing
	fn  func()    // bound to complete once, at allocation
}

func (op *inflightOp) complete() {
	s, r := op.s, op.r
	s.dropLive(op)
	op.r = nil
	s.freeOps = append(s.freeOps, op)
	r.Complete = s.eng.Now()
	s.inflight--
	s.completed++
	if r.OnComplete != nil {
		r.OnComplete.Complete(r)
	}
	if s.onDone != nil {
		s.onDone(r)
	}
	if s.onRelease != nil {
		s.onRelease(r)
	}
	s.Kick()
}

// dropLive swap-removes op from the live set. Live order is bookkeeping
// only (each op carries its own event handle), so the swap is invisible
// to simulation behavior.
func (s *Server) dropLive(op *inflightOp) {
	last := len(s.live) - 1
	s.live[op.idx] = s.live[last]
	s.live[op.idx].idx = op.idx
	s.live[last] = nil
	s.live = s.live[:last]
}

// getOp pops a pooled inflight op, allocating on pool miss.
func (s *Server) getOp(r *block.Request) *inflightOp {
	if n := len(s.freeOps); n > 0 {
		op := s.freeOps[n-1]
		s.freeOps = s.freeOps[:n-1]
		op.r = r
		return op
	}
	op := &inflightOp{s: s, r: r}
	op.fn = op.complete
	return op
}

// stallOp is one pending Stall slot occupation, tracked like an inflight
// op so a restore can rebind its wakeup event.
type stallOp struct {
	s   *Server
	idx int
	ev  sim.Event
	fn  func()
}

func (op *stallOp) fire() {
	s := op.s
	last := len(s.stalls) - 1
	s.stalls[op.idx] = s.stalls[last]
	s.stalls[op.idx].idx = op.idx
	s.stalls[last] = nil
	s.stalls = s.stalls[:last]
	s.freeStalls = append(s.freeStalls, op)
	s.inflight--
	s.Kick()
}

// getStall pops a pooled stall op, allocating on pool miss.
func (s *Server) getStall() *stallOp {
	if n := len(s.freeStalls); n > 0 {
		op := s.freeStalls[n-1]
		s.freeStalls = s.freeStalls[:n-1]
		return op
	}
	op := &stallOp{s: s}
	op.fn = op.fire
	return op
}

// Source supplies dispatchable requests — satisfied by *ioqueue.Queue.
type Source interface {
	Pop() *block.Request
	Depth() int
}

// NewServer builds a server. onDone (optional) observes every completion
// after timestamps are stamped and the request's own OnComplete has run.
// The model's Width is read once, here.
func NewServer(eng *sim.Engine, model Model, source Source, onDone func(*block.Request)) *Server {
	return &Server{eng: eng, model: model, source: source, width: model.Width(), onDone: onDone}
}

// Kick starts dispatching if capacity is free. Call after pushing to the
// source queue.
func (s *Server) Kick() {
	for s.inflight < s.width {
		r := s.source.Pop()
		if r == nil {
			return
		}
		s.dispatch(r)
	}
}

// OnDispatch registers a hook observing every dispatch, after the
// timestamp is stamped and before service begins.
func (s *Server) OnDispatch(fn func(*block.Request)) { s.onDispatch = fn }

// OnRelease registers a hook that runs after a completed request's every
// other callback (OnComplete, then the onDone observer) has returned — the
// point at which the request owner may safely recycle it.
func (s *Server) OnRelease(fn func(*block.Request)) { s.onRelease = fn }

// Stall occupies one service slot for d — how the simulation charges a
// balancer's queue-scan overhead (the queue lock is held while in-queue
// requests are being cost-ranked, as the paper criticizes in SIB).
func (s *Server) Stall(d time.Duration) {
	if d <= 0 {
		return
	}
	s.inflight++
	op := s.getStall()
	op.idx = len(s.stalls)
	s.stalls = append(s.stalls, op)
	op.ev = s.eng.After(d, op.fn)
}

func (s *Server) dispatch(r *block.Request) {
	s.inflight++
	r.Dispatch = s.eng.Now()
	if s.onDispatch != nil {
		s.onDispatch(r)
	}
	svc := s.model.Service(r)
	s.busy += svc
	op := s.getOp(r)
	op.idx = len(s.live)
	s.live = append(s.live, op)
	op.ev = s.eng.After(svc, op.fn)
}

// Inflight returns the number of requests currently being serviced.
func (s *Server) Inflight() int { return s.inflight }

// Completed returns the cumulative number of completed requests.
func (s *Server) Completed() uint64 { return s.completed }

// Utilization returns busy time divided by (elapsed × width), in [0,1+].
func (s *Server) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(s.busy) / (float64(elapsed) * float64(s.width))
}

func (s *Server) String() string {
	return fmt.Sprintf("server(%s inflight=%d done=%d)", s.model.Name(), s.inflight, s.completed)
}
