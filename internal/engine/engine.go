// Package engine composes the simulated storage stack of the paper's
// Fig. 1/2: application workload → cache module → SSD queue + disk-
// subsystem queue, with the full request lifecycle (hit service, miss +
// promote, dirty eviction + writeback, write-through fan-out, background
// dirty flushing) and the hook points a load balancer needs (per-interval
// monitor callbacks, per-request admission, queue-tail redirection).
package engine

import (
	"context"
	"fmt"
	"slices"
	"time"

	"lbica/internal/block"
	"lbica/internal/cache"
	"lbica/internal/device"
	"lbica/internal/ioqueue"
	"lbica/internal/iostat"
	"lbica/internal/sim"
	"lbica/internal/stats"
	"lbica/internal/trace"
	"lbica/internal/workload"
)

// Balancer is a load-balancing scheme plugged into the stack. The WB
// baseline is a nil Balancer.
type Balancer interface {
	// Name identifies the scheme in results.
	Name() string
	// Attach is called once before the run; the balancer typically sets
	// the initial cache policy and registers an OnSample hook.
	Attach(st *Stack)
	// Admit decides whether an application request goes through the cache
	// (true) or is bypassed straight to the disk tier (false). Bypassing
	// a read is only sound when no covered block is dirty; implementations
	// must check via Stack.Cache().DirtyIn.
	Admit(op block.Op, e block.Extent) bool
}

// Config assembles a stack.
type Config struct {
	Seed int64

	// Volume addresses this stack within a multi-volume array (0 for a
	// standalone stack). It only labels the stack and its Results — each
	// volume is a fully independent cache+queues+disk stack; the array
	// layer (internal/array) owns routing and result merging.
	Volume int

	Cache cache.Config
	SSD   device.SSDConfig
	HDD   device.HDDConfig

	// MonitorEvery is the iostat sampling interval (one x-axis unit of the
	// figures).
	MonitorEvery time.Duration

	// Background dirty flusher: every FlushEvery, if the dirty ratio is
	// above the cache's high watermark, flush up to FlushBatch blocks;
	// keep going each tick until below the low watermark. Zero disables.
	FlushEvery time.Duration
	FlushBatch int

	// PrewarmBlocks preloads this many of the workload's hottest blocks
	// (clean) before the run, honoring the paper's warm-cache assumption.
	PrewarmBlocks int

	// DetectOnPeak makes the monitor compare Eq. 1 on within-interval
	// peak depths instead of time averages (ablation knob).
	DetectOnPeak bool

	// HDDDiscipline selects the disk-queue dispatch order (default FIFO;
	// LookDispatch pairs with HDD.DistanceSeek). The SSD queue is always
	// FIFO: queue positions there feed Eq. 1 and the tail-bypass rules.
	HDDDiscipline ioqueue.Discipline

	// Trace, when non-nil, receives every block-layer event. trace.Discard
	// is the same as nil: the stack is untraced and builds no events.
	Trace trace.Recorder
}

// DefaultConfig returns the calibrated experiment configuration used by the
// figure harness: 256 MiB 8-way cache, one-channel SATA-class SSD, a
// 24-spindle 15K-RPM disk subsystem with a controller write-back cache,
// 200 ms monitor intervals.
func DefaultConfig() Config {
	ssd := device.DefaultSSDConfig()
	ssd.Channels = 1
	hdd := device.HDDConfig{
		Name:              "disk-subsystem",
		RPM:               15000,
		SeekAvg:           2500 * time.Microsecond,
		PerSector:         1200 * time.Nanosecond,
		Spindles:          24,
		SeqThreshold:      64,
		WriteCacheLatency: 150 * time.Microsecond,
		WriteCacheDepth:   16384,
		DrainIOPS:         8000,
	}
	cc := cache.DefaultConfig()
	cc.DirtyHighWatermark = 0.20
	cc.DirtyLowWatermark = 0.15
	return Config{
		Seed:          1,
		Cache:         cc,
		SSD:           ssd,
		HDD:           hdd,
		MonitorEvery:  200 * time.Millisecond,
		FlushEvery:    10 * time.Millisecond,
		FlushBatch:    16,
		PrewarmBlocks: cc.Sets * cc.Ways,
	}
}

// PolicyChange is one balancer decision, for the Fig. 6 timeline.
type PolicyChange struct {
	Interval int
	At       time.Duration
	Policy   cache.Policy
	// Group is the balancer's workload classification label ("G1" … "G4",
	// "revert", or scheme-specific).
	Group string
}

// Results summarizes a finished run.
type Results struct {
	Workload string
	Scheme   string

	// Volume is the array address of the stack that produced these results
	// (Config.Volume; 0 for standalone runs). The array layer's merge
	// sorts per-volume results by this field, which is what makes the
	// merged output independent of shard completion order.
	Volume int

	Samples  []iostat.Sample
	Timeline []PolicyChange

	// CacheStatsAt holds a cumulative cache.Stats snapshot taken as each
	// monitor interval closed, parallel to Samples; per-interval deltas
	// (e.g. the series exporter's per-interval hit ratio) come from
	// adjacent snapshots. Taken before any balancer reacts to the same
	// interval close, so the snapshot reflects the interval exactly.
	CacheStatsAt []cache.Stats

	// End-to-end application latency across the whole run.
	AppLatency *stats.Histogram

	AppSubmitted uint64
	AppCompleted uint64

	CacheStats cache.Stats

	SSDPeakDepth, HDDPeakDepth int
	SSDUtilization             float64
	HDDUtilization             float64
	SSDMerges, HDDMerges       uint64
	BypassedToDisk             uint64
	CancelledShadows           uint64
	Elapsed                    time.Duration

	// Endurance accounting: sectors written to each tier. SSD lifetime is
	// proportional to SSDWrittenSectors; the paper's related work
	// motivates write-reduction, and LBICA's WO/RO assignments cut SSD
	// writes as a side effect (measured by BenchmarkEnduranceExtension).
	SSDWrittenSectors int64
	HDDWrittenSectors int64
}

// SSDWrittenMiB returns the SSD write volume in MiB.
func (r *Results) SSDWrittenMiB() float64 {
	return float64(r.SSDWrittenSectors) * block.SectorSize / (1 << 20)
}

// HDDWrittenMiB returns the disk-tier write volume in MiB.
func (r *Results) HDDWrittenMiB() float64 {
	return float64(r.HDDWrittenSectors) * block.SectorSize / (1 << 20)
}

// CacheLoadMean returns the mean of the per-interval cache-load series,
// the Fig. 4 headline aggregate.
func (r *Results) CacheLoadMean() float64 {
	if len(r.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range r.Samples {
		sum += float64(s.CacheLoad)
	}
	return sum / float64(len(r.Samples))
}

// DiskLoadMean returns the mean of the per-interval disk-load series.
func (r *Results) DiskLoadMean() float64 {
	if len(r.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range r.Samples {
		sum += float64(s.DiskLoad)
	}
	return sum / float64(len(r.Samples))
}

// Stack is the live storage stack.
type Stack struct {
	cfg Config
	eng *sim.Engine

	cch  *cache.Cache
	ssdQ *ioqueue.Queue
	hddQ *ioqueue.Queue
	ssd  *device.Server
	hdd  *device.Server
	hddM *device.HDD
	mon  *iostat.Monitor

	bal Balancer
	gen workload.Generator
	rec trace.Recorder // nil when untraced

	ids          uint64
	appSubmitted uint64
	appCompleted uint64
	bypassed     uint64
	cancelled    uint64
	ssdWrSectors int64
	hddWrSectors int64
	appLat       *stats.Histogram
	timeline     []PolicyChange
	cacheStatsAt []cache.Stats

	ssdLatency time.Duration
	hddLatency time.Duration

	flushing  bool
	ticks     int
	maxTicks  int
	periodics []periodicTask
	// flushBuf is the flusher's collect buffer, reused every round.
	flushBuf []cache.DirtyBlock

	// Recycling pools. Requests flow queue → device → completion and are
	// returned by the servers' OnRelease hook; the op structs carry the
	// per-request lifecycle state that used to live in closures, with
	// their callback method values bound once at allocation. At steady
	// state the whole request lifecycle allocates nothing.
	freeReqs     []*block.Request
	freeAppOps   []*appOp
	freeEvictOps []*evictOp

	// Arrival pump state: one closure per run, the next arrival parked in
	// pumpReq (only one arrival event is ever outstanding). pumpStopped
	// records that the pump found the generator exhausted, so a stepped run
	// whose generator is refilled between steps (the array controller's
	// per-interval feeds) can restart it via ResumeArrivals.
	pumpReq     workload.Request
	pumpFn      func()
	pumpStopped bool

	// Pending event handles for the self-rescheduling chains (arrival
	// pump, monitor tick, flusher). Each chain stores the handle of its
	// next scheduled link so a checkpoint can locate it and a restore
	// rebind it; a handle whose event already fired is simply stale and
	// ignored. The chain step bodies live in named methods, with the
	// method values bound once (tickFn/flushFn) so rescheduling does not
	// allocate.
	pumpEv  sim.Event
	tickEv  sim.Event
	flushEv sim.Event
	tickFn  func()
	flushFn func()

	// ctxDone, when non-nil, lets RunContext stop the run cooperatively:
	// once it is closed no new arrivals or periodic ticks are scheduled
	// and the event loop drains what is already in flight. The channel is
	// polled (not ctx.Err()) because the check sits on the per-event hot
	// path and a context shared across pool workers serializes Err()
	// calls on one mutex.
	ctxDone <-chan struct{}
}

type periodicTask struct {
	every time.Duration
	fn    func()
	runFn func()    // chain step closure, created once when armed
	ev    sim.Event // handle of the next scheduled link, for checkpointing
}

// appOp tracks one application request from admission to completion: the
// arrival stamp for latency accounting, the outstanding device legs
// (write-through fans out to two), and a pending promote. The op itself
// is the request's OnComplete completer for every leg (interface boxing
// of an existing pointer — no allocation).
type appOp struct {
	st         *Stack
	arrival    time.Duration
	legs       int
	promote    bool
	promoteExt block.Extent
}

// Complete implements block.Completer.
func (op *appOp) Complete(r *block.Request) {
	op.legs--
	if op.legs > 0 {
		return
	}
	st := op.st
	promote, ext := op.promote, op.promoteExt
	st.appCompleted++
	lat := st.eng.Now() - op.arrival
	st.appLat.Record(lat)
	st.mon.NoteAppDone(lat)
	st.releaseAppOp(op)
	if promote {
		p := st.newReq(block.Promote, ext)
		p.ParentID = r.ID
		st.pushSSD(p)
	}
}

func (st *Stack) newAppOp(arrival time.Duration) *appOp {
	var op *appOp
	if n := len(st.freeAppOps); n > 0 {
		op = st.freeAppOps[n-1]
		st.freeAppOps = st.freeAppOps[:n-1]
	} else {
		op = &appOp{st: st}
	}
	op.arrival = arrival
	op.legs = 1
	op.promote = false
	op.promoteExt = block.Extent{}
	return op
}

func (st *Stack) releaseAppOp(op *appOp) {
	st.freeAppOps = append(st.freeAppOps, op)
}

// evictOp tracks one dirty-block eviction: the SSD read (Evict) whose
// completion issues the HDD writeback, and — for background flushes — the
// writeback completion that cleans the line. The op is the Evict leg's
// completer directly; the writeback leg installs the same allocation
// viewed through the wbCompleter type, which dispatches to the
// mark-clean path.
type evictOp struct {
	st        *Stack
	ext       block.Extent
	blockNum  int64
	epoch     uint64
	markClean bool // background flush: clean the line when the writeback lands
}

// Complete implements block.Completer for the Evict (SSD read) leg.
func (op *evictOp) Complete(r *block.Request) {
	st := op.st
	wb := st.newReq(block.Writeback, op.ext)
	wb.ParentID = r.ID
	if op.markClean {
		wb.OnComplete = (*wbCompleter)(op)
		st.pushHDD(wb)
		return // released when the writeback completes
	}
	st.releaseEvictOp(op)
	st.pushHDD(wb)
}

// wbCompleter is the writeback-leg view of an evictOp: the same
// allocation under a second type, so both legs stay pooled together while
// dispatching to different completion paths. Only one leg is ever in
// flight at a time (the writeback is issued by the evict leg's
// completion).
type wbCompleter evictOp

// Complete implements block.Completer for the Writeback (HDD write) leg.
func (op *wbCompleter) Complete(*block.Request) {
	e := (*evictOp)(op)
	st := e.st
	st.cch.MarkClean(e.blockNum, e.epoch)
	st.releaseEvictOp(e)
}

func (st *Stack) newEvictOp(ext block.Extent) *evictOp {
	var op *evictOp
	if n := len(st.freeEvictOps); n > 0 {
		op = st.freeEvictOps[n-1]
		st.freeEvictOps = st.freeEvictOps[:n-1]
	} else {
		op = &evictOp{st: st}
	}
	op.ext = ext
	op.blockNum = 0
	op.epoch = 0
	op.markClean = false
	return op
}

func (st *Stack) releaseEvictOp(op *evictOp) {
	st.freeEvictOps = append(st.freeEvictOps, op)
}

// newReq builds a pooled request. Recycled requests return through the
// device servers' OnRelease hook (recycleReq) after their completion
// callbacks have run. A recycled request is reset field by field, every
// field of block.Request: assigning a whole zeroed literal would build it
// on the stack and copy it in under a write barrier.
func (st *Stack) newReq(origin block.Origin, ext block.Extent) *block.Request {
	var r *block.Request
	if n := len(st.freeReqs); n > 0 {
		r = st.freeReqs[n-1]
		st.freeReqs = st.freeReqs[:n-1]
		r.ParentID = 0
		r.Submit, r.Dispatch, r.Complete = 0, 0, 0
		r.Merged = 0
		r.Shadowed = false
		r.OnComplete = nil // recycleReq cleared it; kept so the reset is whole
	} else {
		r = &block.Request{}
	}
	r.ID = st.nextID()
	r.Origin = origin
	r.Extent = ext
	r.Recycle = true
	return r
}

// recycleReq returns a pool-owned request to the free-list. Requests not
// created by newReq (tests pushing raw requests) are left alone.
func (st *Stack) recycleReq(r *block.Request) {
	if !r.Recycle {
		return
	}
	r.Recycle = false
	r.OnComplete = nil
	st.freeReqs = append(st.freeReqs, r)
}

// New assembles a stack for one workload × scheme run. bal may be nil (the
// WB baseline).
func New(cfg Config, gen workload.Generator, bal Balancer) *Stack {
	if cfg.MonitorEvery <= 0 {
		cfg.MonitorEvery = 200 * time.Millisecond
	}
	eng := sim.NewEngine()
	rec := cfg.Trace
	if rec == trace.Discard {
		rec = nil
	}

	ssdModel := device.NewSSD(cfg.SSD, sim.NewRNG(cfg.Seed, "ssd"))
	hddModel := device.NewHDD(cfg.HDD, sim.NewRNG(cfg.Seed, "hdd"))
	hddModel.SetClock(eng.Now)

	st := &Stack{
		cfg:    cfg,
		eng:    eng,
		cch:    cache.New(cfg.Cache),
		ssdQ:   ioqueue.New("ssd"),
		hddQ:   ioqueue.New("hdd", ioqueue.WithDiscipline(cfg.HDDDiscipline)),
		hddM:   hddModel,
		bal:    bal,
		gen:    gen,
		rec:    rec,
		appLat: stats.NewHistogram(),
	}

	// Eq. 1 calibration constants: the devices' average read/write service
	// latency, as the paper specifies.
	st.ssdLatency = (ssdModel.AvgLatency(block.Read) + ssdModel.AvgLatency(block.Write)) / 2
	st.hddLatency = (hddModel.AvgLatency(block.Read) + hddModel.AvgLatency(block.Write)) / 2

	st.mon = iostat.New(iostat.Config{
		Every:         cfg.MonitorEvery,
		SSDLatency:    st.ssdLatency,
		HDDLatency:    st.hddLatency,
		CompareOnPeak: cfg.DetectOnPeak,
	}, st.ssdQ, st.hddQ)

	st.ssd = device.NewServer(eng, ssdModel, st.ssdQ, func(r *block.Request) {
		st.mon.NoteCompletion(iostat.SSD, r)
		st.record(trace.Completed, trace.SSD, r)
	})
	st.hdd = device.NewServer(eng, hddModel, st.hddQ, func(r *block.Request) {
		st.mon.NoteCompletion(iostat.HDD, r)
		st.record(trace.Completed, trace.HDD, r)
	})
	st.ssd.OnDispatch(func(r *block.Request) {
		st.mon.NoteDepth(iostat.SSD, eng.Now())
		st.record(trace.Dispatched, trace.SSD, r)
	})
	st.hdd.OnDispatch(func(r *block.Request) {
		st.mon.NoteDepth(iostat.HDD, eng.Now())
		st.record(trace.Dispatched, trace.HDD, r)
	})
	st.ssd.OnRelease(st.recycleReq)
	st.hdd.OnRelease(st.recycleReq)
	st.ssdQ.OnRecycle(st.recycleReq)
	st.hddQ.OnRecycle(st.recycleReq)

	// Snapshot cumulative cache stats at every interval close, before any
	// balancer (attached below, so registered after) reacts to the same
	// close — per-interval deltas between snapshots are what the sweep's
	// series exporter turns into a hit-ratio timeline.
	st.mon.OnClose(func(iostat.Sample) {
		st.cacheStatsAt = append(st.cacheStatsAt, st.cch.Stats())
	})

	if hot, ok := gen.(interface{ HotBlocks(int) []int64 }); ok && cfg.PrewarmBlocks > 0 {
		st.cch.Prewarm(hot.HotBlocks(cfg.PrewarmBlocks))
	}
	if bal != nil {
		bal.Attach(st)
	}
	return st
}

// Accessors for balancers and tests.

// Engine returns the simulation executive.
func (st *Stack) Engine() *sim.Engine { return st.eng }

// Volume returns the stack's array address (0 for standalone stacks).
func (st *Stack) Volume() int { return st.cfg.Volume }

// Now returns the current virtual time.
func (st *Stack) Now() time.Duration { return st.eng.Now() }

// Cache returns the cache module.
func (st *Stack) Cache() *cache.Cache { return st.cch }

// SSDQueue returns the SSD request queue.
func (st *Stack) SSDQueue() *ioqueue.Queue { return st.ssdQ }

// HDDQueue returns the disk-subsystem request queue.
func (st *Stack) HDDQueue() *ioqueue.Queue { return st.hddQ }

// Monitor returns the iostat monitor.
func (st *Stack) Monitor() *iostat.Monitor { return st.mon }

// SSDLatency returns the Eq. 1 SSD service-latency constant.
func (st *Stack) SSDLatency() time.Duration { return st.ssdLatency }

// HDDLatency returns the Eq. 1 disk service-latency constant.
func (st *Stack) HDDLatency() time.Duration { return st.hddLatency }

// StallSSD charges queue-scan overhead against the SSD's service capacity
// (SIB's per-request selection cost).
func (st *Stack) StallSSD(d time.Duration) { st.ssd.Stall(d) }

// Bypassed returns the cumulative count of requests routed to the disk
// tier by balancer action (admission bypasses plus redirected queue
// tails).
func (st *Stack) Bypassed() uint64 { return st.bypassed }

// Periodic registers fn to run every d of virtual time for the duration of
// the run; the chain ends when the final monitor interval closes. Balancers
// call this from Attach for sub-interval work (e.g. SIB's queue scans).
func (st *Stack) Periodic(d time.Duration, fn func()) {
	if d > 0 {
		st.periodics = append(st.periodics, periodicTask{every: d, fn: fn})
	}
}

// NotePolicy records a balancer decision in the Fig. 6 timeline and trace.
// A decision made while interval i's sample is being closed is annotated
// at interval i, matching the paper's "at interval 23, LBICA sets RO"
// convention.
func (st *Stack) NotePolicy(p cache.Policy, group string) {
	iv := len(st.mon.Samples()) - 1
	if iv < 0 {
		iv = 0
	}
	st.timeline = append(st.timeline, PolicyChange{
		Interval: iv,
		At:       st.eng.Now(),
		Policy:   p,
		Group:    group,
	})
	if st.rec != nil {
		st.rec.Record(trace.Event{At: st.eng.Now(), Kind: trace.PolicySet, Aux: int64(p)})
	}
}

// record hands the recorder one event about r, at the current time. It
// inlines to the nil check, so an untraced stack builds no event.
func (st *Stack) record(kind trace.Kind, dev trace.Device, r *block.Request) {
	if st.rec != nil {
		st.emit(kind, dev, r)
	}
}

// emit builds the event and hands it to the recorder; record calls it
// only on a traced stack.
func (st *Stack) emit(kind trace.Kind, dev trace.Device, r *block.Request) {
	st.rec.Record(trace.Event{At: st.eng.Now(), Kind: kind, Dev: dev,
		ID: r.ID, Origin: r.Origin, LBA: r.Extent.LBA, Sector: r.Extent.Sectors})
}

func (st *Stack) nextID() uint64 {
	st.ids++
	return st.ids
}

// pushSSD enqueues a device request on the SSD tier and kicks the server.
func (st *Stack) pushSSD(r *block.Request) {
	if r.Op() == block.Write {
		st.ssdWrSectors += r.Extent.Sectors
	}
	merged := st.ssdQ.Push(r, st.eng.Now())
	kind := trace.Queued
	if merged {
		kind = trace.Merged
	}
	st.record(kind, trace.SSD, r)
	if !merged {
		st.mon.NoteDepth(iostat.SSD, st.eng.Now())
	}
	st.ssd.Kick()
}

// pushHDD enqueues a device request on the disk tier and kicks the server.
func (st *Stack) pushHDD(r *block.Request) {
	if r.Op() == block.Write {
		st.hddWrSectors += r.Extent.Sectors
	}
	merged := st.hddQ.Push(r, st.eng.Now())
	kind := trace.Queued
	if merged {
		kind = trace.Merged
	}
	st.record(kind, trace.HDD, r)
	if !merged {
		st.mon.NoteDepth(iostat.HDD, st.eng.Now())
	}
	st.hdd.Kick()
}

// issueVictims turns cache eviction victims into device traffic: a dirty
// victim costs an SSD read (E) whose completion issues the HDD writeback.
func (st *Stack) issueVictims(victims []cache.Victim) {
	for _, v := range victims {
		if !v.Dirty {
			continue
		}
		// The op carries the victim's own extent: queue merging may widen
		// the head request, and the absorbed requests writeback their own
		// ranges themselves.
		op := st.newEvictOp(st.cch.BlockExtent(v.Block))
		ev := st.newReq(block.Evict, op.ext)
		ev.OnComplete = op
		st.pushSSD(ev)
	}
}

// submit runs one application request through admission, the cache
// decision, and leg issue.
func (st *Stack) submit(wr workload.Request) {
	st.appSubmitted++
	arrival := st.eng.Now()
	op := st.newAppOp(arrival)

	if st.bal != nil && !st.bal.Admit(wr.Op, wr.Extent) {
		st.bypassAppRequest(wr, op)
		return
	}

	d := st.cch.Access(wr.Op, wr.Extent, arrival)
	st.issueVictims(d.Victims)

	switch a := d.Action; {
	case a.Has(cache.CacheRead):
		r := st.newReq(block.AppRead, wr.Extent)
		r.OnComplete = op
		st.pushSSD(r)

	case a.Has(cache.DiskRead):
		r := st.newReq(block.ReadMiss, wr.Extent)
		op.promote = a.Has(cache.Promote)
		op.promoteExt = wr.Extent // merging may widen r.Extent; promote only our range
		r.OnComplete = op
		st.pushHDD(r)

	case a.Has(cache.CacheWrite | cache.DiskWrite):
		// Write-through fan-out: the request completes when both legs do.
		op.legs = 2
		cw := st.newReq(block.AppWrite, wr.Extent)
		cw.Shadowed = true
		cw.OnComplete = op
		dw := st.newReq(block.BypassWrite, wr.Extent)
		dw.ParentID = cw.ID
		dw.OnComplete = op
		st.pushSSD(cw)
		st.pushHDD(dw)

	case a.Has(cache.CacheWrite):
		r := st.newReq(block.AppWrite, wr.Extent)
		r.OnComplete = op
		st.pushSSD(r)

	case a.Has(cache.DiskWrite):
		r := st.newReq(block.BypassWrite, wr.Extent)
		r.OnComplete = op
		st.pushHDD(r)

	default:
		// A decision with no transfer cannot happen; complete immediately
		// so accounting never wedges if a future policy introduces one.
		op.Complete(nil)
	}
}

// bypassAppRequest routes a request around the cache entirely (balancer
// admission said no).
func (st *Stack) bypassAppRequest(wr workload.Request, op *appOp) {
	st.bypassed++
	st.cch.NoteBypass(wr.Op)
	origin := block.BypassRead
	if wr.Op == block.Write {
		origin = block.BypassWrite
		// The disk copy becomes the newest data; drop any cached copy.
		st.cch.Invalidate(wr.Extent)
	}
	r := st.newReq(origin, wr.Extent)
	r.OnComplete = op
	st.record(trace.Bypassed, trace.HDD, r)
	st.pushHDD(r)
}

// RedirectTail extracts every bypassable request at SSD-queue position ≥
// keep and re-routes it to the disk tier:
//
//   - application writes with a through-write shadow leg are cancelled
//     outright (the disk leg persists the data);
//   - other application writes are invalidated in the cache and re-queued
//     on the disk;
//   - promotes are dropped (the miss was already served; the fill is
//     cancelled and the allocated line invalidated);
//   - application reads move only if no covered block is dirty;
//   - evict reads never move (dirty data exists only on the SSD).
//
// It returns the number of requests removed from the SSD queue.
func (st *Stack) RedirectTail(keep int) int {
	if keep < 0 {
		keep = 0
	}
	moved := st.ssdQ.Extract(func(pos int, r *block.Request) bool {
		if pos < keep {
			return false
		}
		switch r.Origin {
		case block.AppWrite, block.Promote:
			return true
		case block.AppRead:
			return !st.cch.DirtyIn(r.Extent)
		default:
			return false
		}
	})
	if len(moved) == 0 {
		return 0
	}
	st.mon.NoteDepth(iostat.SSD, st.eng.Now())
	now := st.eng.Now()
	for _, r := range moved {
		st.record(trace.Bypassed, trace.SSD, r)
		switch r.Origin {
		case block.AppWrite:
			st.cch.NoteBypass(block.Write)
			if r.Shadowed {
				// The disk leg already carries the data; complete this leg
				// as a no-op.
				st.cancelled++
				r.Dispatch, r.Complete = now, now
				if r.OnComplete != nil {
					r.OnComplete.Complete(r)
				}
				st.recycleReq(r)
				continue
			}
			st.cch.Invalidate(r.Extent)
			st.bypassed++
			r.Origin = block.BypassWrite
			st.pushHDD(r)
		case block.Promote:
			// Cancel the fill; nothing to transfer anywhere.
			st.cch.Invalidate(r.Extent)
			st.cancelled++
			st.recycleReq(r)
		case block.AppRead:
			st.cch.NoteBypass(block.Read)
			st.bypassed++
			r.Origin = block.BypassRead
			st.pushHDD(r)
		}
	}
	st.ssd.Kick()
	return len(moved)
}

// flushTick runs the background dirty flusher state machine.
func (st *Stack) flushTick() {
	if st.flushing {
		if st.cch.FlushSatisfied() {
			st.flushing = false
		}
	} else if st.cch.NeedsFlush() {
		st.flushing = true
	}
	if !st.flushing {
		return
	}
	st.flushBuf = st.cch.CollectDirty(st.flushBuf[:0], st.cfg.FlushBatch)
	for _, db := range st.flushBuf {
		op := st.newEvictOp(st.cch.BlockExtent(db.Block))
		op.blockNum, op.epoch = db.Block, db.Epoch
		op.markClean = true
		ev := st.newReq(block.Evict, op.ext)
		ev.OnComplete = op
		st.pushSSD(ev)
	}
}

// Run executes the workload for intervals monitor intervals (at least 1),
// drains in-flight requests, and returns the results. The run ends at its
// horizon, intervals × MonitorEvery: no request arriving at or after it is
// submitted, so every request the run counts lands in a sample's interval.
func (st *Stack) Run(intervals int) *Results {
	return st.RunContext(context.Background(), intervals)
}

// pump parks the generator's next request in pumpReq and schedules the
// shared arrival closure for it. It stops at the run's horizon: the first
// request at or after intervals × MonitorEvery is dropped and ends the
// arrivals, for every generator (a request exactly at a barrier belongs to
// the next interval, and the last barrier closes the run).
func (st *Stack) pump() {
	if st.halted() {
		return
	}
	wr, ok := st.gen.Next()
	if !ok || wr.At >= time.Duration(st.maxTicks)*st.cfg.MonitorEvery {
		st.pumpStopped = true
		return
	}
	st.pumpStopped = false
	at := wr.At
	if at < st.eng.Now() {
		at = st.eng.Now()
	}
	st.pumpReq = wr
	st.pumpEv = st.eng.At(at, st.pumpFn)
}

// halted reports whether the run's context has been cancelled. The event
// chains consult it before scheduling their next link, so cancellation
// stops the simulation at the next event boundary.
func (st *Stack) halted() bool {
	select {
	case <-st.ctxDone:
		return true
	default:
		return false
	}
}

// RunContext is Run with cooperative cancellation. When ctx is cancelled
// mid-run, the stack stops admitting new arrivals and scheduling monitor,
// flusher and balancer ticks, drains the requests already in flight, and
// returns the partial Results accumulated so far (fewer Samples than
// requested). The virtual clock is unaffected by wall-clock timing of the
// cancellation beyond which event boundary it lands on.
func (st *Stack) RunContext(ctx context.Context, intervals int) *Results {
	st.Start(ctx, intervals)
	st.Drain()
	return st.Collect()
}

// Start arms the run — the arrival pump and the monitor, flusher and
// balancer tick chains — without executing any events. It is the first
// half of RunContext, split out so a stepped run (StepTo/ResumeArrivals/
// Drain/Collect) can interleave outside work at interval boundaries: the
// array controller steps every volume to the same virtual deadline, reads
// their census at the barrier, and resumes them. Start must be called
// exactly once, before the first StepTo or Drain.
func (st *Stack) Start(ctx context.Context, intervals int) {
	if intervals < 1 {
		intervals = 1
	}
	st.maxTicks = intervals
	st.ctxDone = ctx.Done() // nil for Background: halted() then never fires
	// One entry per interval in the per-interval series, reserved up front.
	st.mon.Reserve(intervals)
	st.cacheStatsAt = slices.Grow(st.cacheStatsAt, intervals)

	// Arrival pump: schedule one arrival ahead. A single reused closure
	// fires every arrival; the next request parks in pumpReq (only one
	// arrival event is ever outstanding, so the slot cannot be clobbered).
	st.bindChainFns()
	st.pump()

	// Monitor tick chain.
	st.tickEv = st.eng.After(st.cfg.MonitorEvery, st.tickFn)

	// Flusher chain.
	if st.cfg.FlushEvery > 0 && st.cfg.FlushBatch > 0 {
		st.flushEv = st.eng.After(st.cfg.FlushEvery, st.flushFn)
	}

	// Balancer periodic chains.
	for i := range st.periodics {
		p := &st.periodics[i]
		st.bindPeriodic(i)
		p.ev = st.eng.After(p.every, p.runFn)
	}
}

// bindChainFns creates the pump/tick/flush chain closures once per stack.
// DecodeState calls it before rebinding the pending chain events.
func (st *Stack) bindChainFns() {
	if st.pumpFn == nil {
		st.pumpFn = func() {
			wr := st.pumpReq
			st.submit(wr)
			st.pump()
		}
	}
	if st.tickFn == nil {
		st.tickFn = st.tickStep
	}
	if st.flushFn == nil {
		st.flushFn = st.flushStep
	}
}

// bindPeriodic creates the chain closure for periodic task i. The index is
// captured (not a task pointer) because the periodics slice may grow.
func (st *Stack) bindPeriodic(i int) {
	if st.periodics[i].runFn == nil {
		st.periodics[i].runFn = func() { st.periodicStep(i) }
	}
}

// tickStep is one link of the monitor tick chain: close the interval and
// schedule the next link unless the run is over.
func (st *Stack) tickStep() {
	if st.halted() {
		return
	}
	st.mon.Tick(st.eng.Now())
	st.ticks++
	if st.maxTicks > 0 && st.ticks >= st.maxTicks {
		return
	}
	st.tickEv = st.eng.After(st.cfg.MonitorEvery, st.tickFn)
}

// flushStep is one link of the background flusher chain.
func (st *Stack) flushStep() {
	if st.halted() {
		return
	}
	st.flushTick()
	if st.maxTicks > 0 && st.ticks >= st.maxTicks {
		return
	}
	st.flushEv = st.eng.After(st.cfg.FlushEvery, st.flushFn)
}

// periodicStep is one link of balancer periodic chain i.
func (st *Stack) periodicStep(i int) {
	if st.halted() {
		return
	}
	p := &st.periodics[i]
	p.fn()
	if st.maxTicks > 0 && st.ticks >= st.maxTicks {
		return
	}
	p.ev = st.eng.After(p.every, p.runFn)
}

// StepTo executes events up to and including virtual time t, then parks
// the clock exactly at t (events scheduled for later stay pending). The
// monitor tick at t fires before StepTo returns — stepping to a multiple
// of MonitorEvery leaves the interval's Sample closed and readable.
func (st *Stack) StepTo(t time.Duration) { st.eng.Run(t) }

// ResumeArrivals restarts the arrival pump after the generator reported
// exhaustion. A stepped run's generator may be a refillable feed (the
// array controller queues each interval's routed slice before stepping);
// once refilled, the feed has new requests but the pump — which stopped
// silently when Next returned false — must be rearmed. No-op while the
// pump is live.
func (st *Stack) ResumeArrivals() {
	if st.pumpStopped {
		st.pump()
	}
}

// Drain runs the event loop until no events remain — the in-flight
// requests complete and, unless the generator is exhausted or the run was
// cancelled, the remaining arrivals before the run's horizon execute.
func (st *Stack) Drain() { st.eng.RunUntilIdle() }

// MigrateOut extracts blockNum's clean cache line for migration to
// another volume, returning false (and doing nothing) when the block is
// not resident clean. Dirty or mid-flush lines never migrate: the array's
// volumes are independent failure domains and migration copies no data,
// so only lines whose backing store already holds the newest bytes leave.
func (st *Stack) MigrateOut(blockNum int64) bool {
	return st.cch.ExtractClean(blockNum)
}

// MigrateIn inserts blockNum as a clean resident line (a no-op when
// already resident). Victims evicted to make room become ordinary device
// traffic — a dirty victim costs an SSD read plus an HDD writeback, so a
// migration into a full dirty set is not free.
func (st *Stack) MigrateIn(blockNum int64) {
	st.issueVictims(st.cch.InsertClean(blockNum))
}

// Collect assembles the run's Results. Call once, after Drain.
func (st *Stack) Collect() *Results {
	return &Results{
		Workload:          st.gen.Name(),
		Scheme:            st.schemeName(),
		Volume:            st.cfg.Volume,
		Samples:           st.mon.Samples(),
		Timeline:          st.timeline,
		CacheStatsAt:      st.cacheStatsAt,
		AppLatency:        st.appLat,
		AppSubmitted:      st.appSubmitted,
		AppCompleted:      st.appCompleted,
		CacheStats:        st.cch.Stats(),
		SSDPeakDepth:      st.ssdQ.DepthPeak(),
		HDDPeakDepth:      st.hddQ.DepthPeak(),
		SSDUtilization:    st.ssd.Utilization(st.eng.Now()),
		HDDUtilization:    st.hdd.Utilization(st.eng.Now()),
		SSDMerges:         st.ssdQ.Merges(),
		HDDMerges:         st.hddQ.Merges(),
		BypassedToDisk:    st.bypassed,
		CancelledShadows:  st.cancelled,
		Elapsed:           st.eng.Now(),
		SSDWrittenSectors: st.ssdWrSectors,
		HDDWrittenSectors: st.hddWrSectors,
	}
}

// Release hands the stack's cache line arrays to the next stack built with
// the same cache line count (cache.Cache.Release). Call it once the run's
// Results are collected: the stack cannot run or collect again, and any
// later use of its cache panics. Releasing twice is a no-op.
func (st *Stack) Release() { st.cch.Release() }

func (st *Stack) schemeName() string {
	if st.bal == nil {
		return "WB"
	}
	return st.bal.Name()
}

func (st *Stack) String() string {
	return fmt.Sprintf("stack(%s/%s ssdQ=%d hddQ=%d)", st.gen.Name(), st.schemeName(), st.ssdQ.Depth(), st.hddQ.Depth())
}
