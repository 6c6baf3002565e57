// Package workload generates the application I/O streams of the paper's
// evaluation: TPC-C, a mail server and a web server, all with burst
// behavior, plus a catalog of synthetic workloads (random/sequential
// read/write, mixed, and the parameterized burst-mix family) registered
// in Registry/Default so experiments and sweeps can name them.
//
// The physical evaluation replays real applications; here each workload is
// a schedule of phases, each phase an ON/OFF modulated Poisson arrival
// process over a Zipf-skewed working set with a tunable read ratio and
// sequentiality. Phase timelines are expressed in monitor intervals so the
// published decision timeline (e.g. mail server: mixed-RW burst at interval
// 23, random-read burst at 128, write burst at 134) can be laid out
// directly. Scale carries the experiment's interval geometry plus the
// rate and burst-intensity multipliers every schedule honors.
package workload

import (
	"fmt"
	"math"
	"time"

	"lbica/internal/block"
	"lbica/internal/sim"
)

// Request is one application-level I/O.
type Request struct {
	At     time.Duration
	Op     block.Op
	Extent block.Extent
}

// Generator produces a time-ordered request stream.
type Generator interface {
	// Name identifies the workload.
	Name() string
	// Next returns the next request; ok=false ends the stream.
	Next() (r Request, ok bool)
}

// Phase is one segment of a workload schedule.
type Phase struct {
	// Name labels the phase in traces and logs.
	Name string
	// Duration of the phase in virtual time.
	Duration time.Duration
	// BaseIOPS is the arrival rate outside bursts.
	BaseIOPS float64
	// BurstIOPS, when > 0, turns on ON/OFF modulation: ON periods arrive
	// at BurstIOPS, OFF periods at BaseIOPS.
	BurstIOPS float64
	// BurstOn/BurstOff are the mean ON and OFF period lengths
	// (exponentially distributed).
	BurstOn, BurstOff time.Duration
	// ReadRatio is the fraction of reads in [0,1].
	ReadRatio float64
	// Sequential is the probability a request continues the current
	// sequential run instead of jumping.
	Sequential float64
	// WorkingSetBlocks is the number of distinct 4 KiB-block-sized slots
	// addressed; BaseBlock offsets the set in the address space.
	WorkingSetBlocks int64
	BaseBlock        int64
	// ZipfExponent skews references toward hot blocks (0 = uniform).
	ZipfExponent float64
	// SizesSectors are the request sizes drawn uniformly (default {8}).
	SizesSectors []int64

	// Optional separate write region. When WriteWorkingSetBlocks > 0,
	// writes address their own region (WriteBaseBlock, WriteZipfExponent)
	// instead of the shared one — a web server writing logs while serving
	// content, for instance. Reads never touch the write region, so an RO
	// cache's write-path invalidations cost no read hits.
	WriteWorkingSetBlocks int64
	WriteBaseBlock        int64
	WriteZipfExponent     float64
}

// writeRegion reports whether writes use a separate address region.
func (p *Phase) writeRegion() bool { return p.WriteWorkingSetBlocks > 0 }

// ValidatePhases reports the first phase of a schedule that PhaseGen
// cannot run as written. Zero keeps its documented meaning (an idle
// phase, uniform references, 4 KiB requests, no write region); a
// negative, non-finite or out-of-range value, or a positive rate below
// MinIOPS, is an error, never clamped.
// The schedule as a whole must end by MaxArrival.
func ValidatePhases(phases []Phase) error {
	var end time.Duration
	for i := range phases {
		p := &phases[i]
		err := p.validate()
		if err == nil && p.Duration > MaxArrival-end {
			err = fmt.Errorf("ends past the %v clock bound", MaxArrival)
		}
		if err != nil {
			return fmt.Errorf("workload: phase %d (%q): %w", i, p.Name, err)
		}
		end += p.Duration
	}
	return nil
}

func (p *Phase) validate() error {
	// active reports whether the phase can generate a request at all.
	active := p.Duration > 0 && (p.BaseIOPS > 0 || (p.BurstIOPS > 0 && p.BurstOn > 0))
	switch {
	case p.Duration < 0 || p.BurstOn < 0 || p.BurstOff < 0:
		return fmt.Errorf("negative duration (phase %v, burst on %v, off %v)", p.Duration, p.BurstOn, p.BurstOff)
	case !finiteNonNeg(p.BaseIOPS) || !finiteNonNeg(p.BurstIOPS):
		return fmt.Errorf("IOPS must be finite and non-negative (base %v, burst %v)", p.BaseIOPS, p.BurstIOPS)
	case !(p.ReadRatio >= 0 && p.ReadRatio <= 1) || !(p.Sequential >= 0 && p.Sequential <= 1):
		return fmt.Errorf("read ratio %v and sequential fraction %v must lie in [0, 1]", p.ReadRatio, p.Sequential)
	case !finiteNonNeg(p.ZipfExponent) || !finiteNonNeg(p.WriteZipfExponent):
		return fmt.Errorf("exponents must be finite and non-negative (Zipf %v, write Zipf %v)", p.ZipfExponent, p.WriteZipfExponent)
	case p.WorkingSetBlocks < 0 || p.WorkingSetBlocks > MaxZipfRanks ||
		p.WriteWorkingSetBlocks < 0 || p.WriteWorkingSetBlocks > MaxZipfRanks:
		return fmt.Errorf("working sets of %d and %d blocks outside [0, %d]", p.WorkingSetBlocks, p.WriteWorkingSetBlocks, MaxZipfRanks)
	case active && p.WorkingSetBlocks == 0:
		return fmt.Errorf("generates requests over an empty working set")
	case p.BaseBlock < 0 || p.BaseBlock > maxBlock-p.WorkingSetBlocks ||
		p.WriteBaseBlock < 0 || p.WriteBaseBlock > maxBlock-p.WriteWorkingSetBlocks:
		return fmt.Errorf("regions based at blocks %d and %d outside the addressable [0, %d)", p.BaseBlock, p.WriteBaseBlock, maxBlock)
	}
	if err := p.checkRate(); err != nil {
		return err
	}
	for _, size := range p.SizesSectors {
		if size <= 0 || size > MaxRequestSectors {
			return fmt.Errorf("request size of %d sectors outside [1, %d]", size, MaxRequestSectors)
		}
	}
	return nil
}

// ValidateRequests reports the first request of a recorded stream that
// cannot be replayed as written: an op other than read or write, a size
// outside [1, MaxRequestSectors], a negative LBA or an extent past the
// largest LBA, or a timestamp that is negative, past MaxArrival or
// earlier than the previous request's. The stream is checked as given,
// never reordered or clamped.
func ValidateRequests(reqs []Request) error {
	var prev time.Duration
	for i, r := range reqs {
		var err error
		switch e := r.Extent; {
		case r.Op != block.Read && r.Op != block.Write:
			err = fmt.Errorf("op %d is neither read nor write", r.Op)
		case e.Sectors < 1 || e.Sectors > MaxRequestSectors:
			err = fmt.Errorf("size of %d sectors outside [1, %d]", e.Sectors, MaxRequestSectors)
		case e.LBA < 0 || e.LBA > math.MaxInt64-e.Sectors:
			err = fmt.Errorf("extent of %d sectors at LBA %d outside [0, %d]", e.Sectors, e.LBA, int64(math.MaxInt64))
		case r.At < 0 || r.At > MaxArrival:
			err = fmt.Errorf("arrival time %v outside [0, %v]", r.At, MaxArrival)
		case r.At < prev:
			err = fmt.Errorf("arrival time %v precedes the previous request's %v", r.At, prev)
		}
		if err != nil {
			return fmt.Errorf("workload: request %d: %w", i, err)
		}
		prev = r.At
	}
	return nil
}

func finiteNonNeg(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

// checkRate reports a positive base or burst rate below MinIOPS.
func (p *Phase) checkRate() error {
	if below := func(v float64) bool { return v > 0 && v < MinIOPS }; below(p.BaseIOPS) || below(p.BurstIOPS) {
		return fmt.Errorf("IOPS (base %v, burst %v) below the %v floor (workload.MinIOPS); 0 means idle", p.BaseIOPS, p.BurstIOPS, MinIOPS)
	}
	return nil
}

// BlockSectors is the addressing granularity phases are defined in
// (8 sectors = 4 KiB). Exported because the array router's block-affine
// hash policy must agree with it: a volume's prewarm filter routes the
// same block numbers the generated LBAs decompose back into.
const BlockSectors = 8

// MaxRequestSectors bounds one request's size: 2^16 sectors (32 MiB), far
// past the catalog's largest request (128 sectors). The cache walks a
// request one 4 KiB block at a time, so an unbounded size runs unboundedly
// long or exhausts memory; a custom phase or recorded stream that asks for
// more is an error.
const MaxRequestSectors = 1 << 16

// MaxArrival bounds the virtual clock a workload may reach: every arrival
// time, a phase schedule's end and a run's span (its intervals times the
// interval length) lie in [0, 2^62 ns], about 146 years. The engine adds
// queueing and service times to an arrival, and this leaves them room
// before the int64 clock wraps: a record near 2^63 ns would be scheduled
// at a negative time.
const MaxArrival = time.Duration(1) << 62

// MinIOPS is the slowest positive arrival rate a phase may run at: a mean
// gap of MaxArrival/64, about 2.3 years. PhaseGen converts the mean gap,
// 1 s over the rate, to a time.Duration, scales it by an exponential draw
// (math/rand's ExpFloat64 returns at most about 51.4 unless its uniform
// draw is exactly 0) and adds the gap to a cursor below MaxArrival; at
// this floor the sum stays inside the int64 clock. A slower rate
// overflowed the conversion to a negative gap, and the phase emitted a
// request at t≈0 where none should arrive. Zero still means an idle
// phase.
const MinIOPS = 64 * float64(time.Second) / float64(MaxArrival)

// MaxZipfRanks bounds a phase's working sets, which are also its Zipf rank
// counts: 2^24 blocks (64 GiB), 16 times the catalog's largest working
// set (synth-seq*, 2^20 blocks). A phase builds a sampling table of 8
// bytes a rank plus a 16 KB guide before its first request, even at
// exponent 0, so the table at the bound is about 134 MB.
const MaxZipfRanks = 1 << 24

// maxBlock bounds a phase's address regions: every generated LBA, a block
// number times BlockSectors, must fit in an int64.
const maxBlock = math.MaxInt64 / BlockSectors

// scramblePrime spreads Zipf ranks across the working set so hot blocks are
// not physically clustered.
const scramblePrime = 920419823

// PhaseGen is a phase-scheduled generator.
type PhaseGen struct {
	name   string
	phases []Phase
	g      *sim.RNG

	cursor   time.Duration
	phaseIdx int
	phaseTop time.Duration

	zipf     *sim.Zipfian
	zipfIdx  int
	wzipf    *sim.Zipfian
	wzipfIdx int
	burstOn  bool
	burstTop time.Duration
	seqNext  int64
	seqRun   bool
	wseqNext int64
	wseqRun  bool
}

// NewPhaseGen builds a generator from a schedule. Phases with zero
// duration are skipped.
func NewPhaseGen(name string, phases []Phase, g *sim.RNG) *PhaseGen {
	pg := &PhaseGen{name: name, phases: phases, g: g, phaseIdx: -1, zipfIdx: -1, wzipfIdx: -1}
	pg.advancePhase()
	return pg
}

// Name implements Generator.
func (p *PhaseGen) Name() string { return p.name }

// Phase returns the currently active phase, or nil when exhausted.
func (p *PhaseGen) Phase() *Phase {
	if p.phaseIdx < 0 || p.phaseIdx >= len(p.phases) {
		return nil
	}
	return &p.phases[p.phaseIdx]
}

func (p *PhaseGen) advancePhase() {
	for {
		p.phaseIdx++
		if p.phaseIdx >= len(p.phases) {
			return
		}
		ph := &p.phases[p.phaseIdx]
		if ph.Duration <= 0 {
			continue
		}
		p.phaseTop += ph.Duration
		p.burstOn = false
		p.burstTop = p.cursor
		p.seqRun = false
		return
	}
}

// zipfFor lazily builds the rank distribution for the current phase.
func (p *PhaseGen) zipfFor(ph *Phase) *sim.Zipfian {
	if p.zipfIdx != p.phaseIdx {
		p.zipf = sim.NewZipf(p.g, int(ph.WorkingSetBlocks), zipfExp(ph.ZipfExponent))
		p.zipfIdx = p.phaseIdx
	}
	return p.zipf
}

// wzipfFor lazily builds the write-region rank distribution.
func (p *PhaseGen) wzipfFor(ph *Phase) *sim.Zipfian {
	if p.wzipfIdx != p.phaseIdx {
		p.wzipf = sim.NewZipf(p.g, int(ph.WriteWorkingSetBlocks), zipfExp(ph.WriteZipfExponent))
		p.wzipfIdx = p.phaseIdx
	}
	return p.wzipf
}

func zipfExp(e float64) float64 {
	if e <= 0 {
		return 0.0001 // near-uniform
	}
	return e
}

// rankToBlock scrambles a Zipf rank into a block inside a working set.
func rankToBlock(base, ws int64, rank int) int64 {
	idx := (int64(rank) * scramblePrime) % ws
	if idx < 0 {
		idx += ws
	}
	return base + idx
}

// HotBlocks returns the n hottest block numbers of the first phase — the
// set the engine prewarms, honoring the paper's "past its warm-up
// interval" assumption.
func (p *PhaseGen) HotBlocks(n int) []int64 {
	if len(p.phases) == 0 {
		return nil
	}
	ph := &p.phases[0]
	if int64(n) > ph.WorkingSetBlocks {
		n = int(ph.WorkingSetBlocks)
	}
	out := make([]int64, n)
	for r := 0; r < n; r++ {
		out[r] = rankToBlock(ph.BaseBlock, ph.WorkingSetBlocks, r)
	}
	return out
}

// Fresh returns an unstarted generator over the same schedule and
// stream: the sibling engine.Stack.Fork decodes this one's state onto.
func (p *PhaseGen) Fresh() Generator { return NewPhaseGen(p.name, p.phases, p.g.Fresh()) }

// rate returns the arrival rate in effect at the cursor, advancing the
// ON/OFF state machine as needed.
func (p *PhaseGen) rate(ph *Phase) float64 {
	if ph.BurstIOPS <= 0 || ph.BurstOn <= 0 {
		return ph.BaseIOPS
	}
	for p.cursor >= p.burstTop {
		p.burstOn = !p.burstOn
		var mean time.Duration
		if p.burstOn {
			mean = ph.BurstOn
		} else {
			mean = ph.BurstOff
		}
		p.burstTop += sim.Exponential{M: mean, G: p.g}.Sample() + 1
	}
	if p.burstOn {
		return ph.BurstIOPS
	}
	return ph.BaseIOPS
}

// Next implements Generator.
func (p *PhaseGen) Next() (Request, bool) {
	for {
		ph := p.Phase()
		if ph == nil {
			return Request{}, false
		}
		rate := p.rate(ph)
		if rate <= 0 {
			// Idle phase: jump to its end.
			p.cursor = p.phaseTop
			p.advancePhase()
			continue
		}
		gap := sim.Exponential{M: time.Duration(float64(time.Second) / rate), G: p.g}.Sample() + 1
		p.cursor += gap
		if p.cursor >= p.phaseTop {
			p.advancePhase()
			continue
		}

		op := block.Write
		if p.g.Float64() < ph.ReadRatio {
			op = block.Read
		}

		size := int64(BlockSectors)
		if len(ph.SizesSectors) > 0 {
			size = ph.SizesSectors[p.g.Intn(len(ph.SizesSectors))]
		}
		sizeBlocks := (size + BlockSectors - 1) / BlockSectors

		// Pick the address region: writes may own a separate one.
		base, ws := ph.BaseBlock, ph.WorkingSetBlocks
		zipfGen := p.zipfFor(ph)
		seqNext, seqRun := &p.seqNext, &p.seqRun
		if op == block.Write && ph.writeRegion() {
			base, ws = ph.WriteBaseBlock, ph.WriteWorkingSetBlocks
			zipfGen = p.wzipfFor(ph)
			seqNext, seqRun = &p.wseqNext, &p.wseqRun
		}

		var startBlock int64
		if *seqRun && ph.Sequential > 0 && p.g.Float64() < ph.Sequential {
			startBlock = *seqNext
			if startBlock+sizeBlocks >= base+ws {
				startBlock = base
			}
		} else {
			startBlock = rankToBlock(base, ws, zipfGen.Next())
			if startBlock+sizeBlocks > base+ws {
				startBlock = base + ws - sizeBlocks
			}
		}
		*seqNext = startBlock + sizeBlocks
		*seqRun = true

		return Request{
			At:     p.cursor,
			Op:     op,
			Extent: block.Extent{LBA: startBlock * BlockSectors, Sectors: size},
		}, true
	}
}

// Replay plays back a recorded request stream.
type Replay struct {
	name string
	reqs []Request
	pos  int
}

// NewReplay builds a replay generator over reqs (assumed time-ordered).
func NewReplay(name string, reqs []Request) *Replay {
	return &Replay{name: name, reqs: reqs}
}

// Name implements Generator.
func (r *Replay) Name() string { return r.name }

// Next implements Generator.
func (r *Replay) Next() (Request, bool) {
	if r.pos >= len(r.reqs) {
		return Request{}, false
	}
	req := r.reqs[r.pos]
	r.pos++
	return req, true
}

// Tee wraps a generator, appending every emitted request to sink.
type Tee struct {
	inner Generator
	sink  *[]Request
}

// NewTee wraps inner so the emitted stream is captured into sink.
func NewTee(inner Generator, sink *[]Request) *Tee {
	return &Tee{inner: inner, sink: sink}
}

// Name implements Generator.
func (t *Tee) Name() string { return t.inner.Name() }

// Next implements Generator.
func (t *Tee) Next() (Request, bool) {
	r, ok := t.inner.Next()
	if ok {
		*t.sink = append(*t.sink, r)
	}
	return r, ok
}

// HotBlocks forwards the inner generator's prewarm set (nil when the inner
// generator has none), so recording a run leaves its cache as warm as it
// would be unrecorded.
func (t *Tee) HotBlocks(n int) []int64 {
	if h, ok := t.inner.(interface{ HotBlocks(int) []int64 }); ok {
		return h.HotBlocks(n)
	}
	return nil
}

func (p *PhaseGen) String() string {
	return fmt.Sprintf("workload(%s, %d phases)", p.name, len(p.phases))
}
