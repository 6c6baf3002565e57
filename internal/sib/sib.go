// Package sib re-implements Selective I/O Bypass (Kim, Roh, Park — IEEE
// TC 2018), the state-of-the-art load balancer the paper compares against,
// from its description in LBICA §II:
//
//   - the cache runs a fixed WT+WO configuration (writes go to SSD and
//     disk simultaneously and stay clean; read misses never promote), so
//     only read-after-write hits benefit from the cache;
//   - a monitor estimates the wait time of every in-queue SSD request and,
//     when the SSD queue time exceeds the disk's, selectively bypasses the
//     requests with the highest estimates (the queue tail, under FIFO
//     dispatch) to the disk subsystem;
//   - the selection scan costs CPU time on the I/O path — LBICA's stated
//     second objection — charged here as a per-scanned-request stall of
//     the SSD's service capacity.
package sib

import (
	"time"

	"lbica/internal/block"
	"lbica/internal/cache"
	"lbica/internal/engine"
)

// Config parameterizes SIB.
type Config struct {
	// ScanEvery is the monitoring cadence. SIB's estimator runs much finer
	// than LBICA's interval sampling — that is where its overhead
	// comes from.
	ScanEvery time.Duration
	// ScanOverheadPerRequest is the CPU cost of estimating one in-queue
	// request's wait time, charged against the SSD while the queue lock is
	// held.
	ScanOverheadPerRequest time.Duration
}

// DefaultConfig returns calibrated defaults: scan every 20 ms, 2 µs of
// estimation per queued request (calibrated so the selection cost is
// "considerable" at burst-time queue depths, as the paper asserts).
func DefaultConfig() Config {
	return Config{
		ScanEvery:              20 * time.Millisecond,
		ScanOverheadPerRequest: 2 * time.Microsecond,
	}
}

// SIB is the baseline balancer. It implements engine.Balancer.
type SIB struct {
	cfg Config
	st  *engine.Stack

	scans    int
	scanned  int
	bypassed int
}

// New builds a SIB balancer.
func New(cfg Config) *SIB {
	if cfg.ScanEvery <= 0 {
		cfg.ScanEvery = 20 * time.Millisecond
	}
	return &SIB{cfg: cfg}
}

// Name implements engine.Balancer.
func (s *SIB) Name() string { return "SIB" }

// Scans returns how many scan passes ran.
func (s *SIB) Scans() int { return s.scans }

// Scanned returns how many in-queue requests were cost-estimated in total.
func (s *SIB) Scanned() int { return s.scanned }

// Bypassed returns how many requests the scans moved to the disk tier.
func (s *SIB) Bypassed() int { return s.bypassed }

// Attach implements engine.Balancer: pin the WT+WO policy and start the
// scan loop.
func (s *SIB) Attach(st *engine.Stack) {
	s.st = st
	st.Cache().SetPolicy(cache.WTWO)
	st.NotePolicy(cache.WTWO, "SIB/fixed")
	st.Periodic(s.cfg.ScanEvery, s.scan)
}

// Fresh implements engine.FreshBalancer: an unattached balancer with this
// one's configuration, the sibling engine.Stack.Fork decodes its state
// onto.
func (s *SIB) Fresh() engine.Balancer { return New(s.cfg) }

// scan is one estimation pass: if the SSD queue time exceeds the disk's,
// move the over-threshold tail to the disk subsystem.
func (s *SIB) scan() {
	depth := s.st.SSDQueue().Depth()
	if depth == 0 {
		return
	}
	s.scans++
	s.scanned += depth
	// The estimator walks the whole queue computing per-request waits;
	// the walk holds the queue lock.
	if s.cfg.ScanOverheadPerRequest > 0 {
		s.st.StallSSD(time.Duration(depth) * s.cfg.ScanOverheadPerRequest)
	}

	cacheQ := time.Duration(depth) * s.st.SSDLatency()
	diskQ := time.Duration(s.st.HDDQueue().Depth()) * s.st.HDDLatency()
	if cacheQ <= diskQ {
		return
	}
	// Move tail requests while their estimated SSD wait exceeds the disk
	// wait *as it will be once they land there*: every moved request
	// lengthens the disk queue by one disk service time, so the transfer
	// count m solves
	//
	//	(depth−m)·ssdLat > (diskDepth+m+1)·hddLat.
	//
	// Moving past that point would re-create the congestion on the slower
	// tier — the failure mode LBICA §II attributes to naive bypassing.
	ratio := float64(s.st.HDDLatency()) / float64(s.st.SSDLatency())
	m := (float64(depth) - float64(s.st.HDDQueue().Depth()+1)*ratio) / (1 + ratio)
	if m < 1 {
		return
	}
	keep := depth - int(m)
	if keep < 1 {
		keep = 1
	}
	s.bypassed += s.st.RedirectTail(keep)
}

// Admit implements engine.Balancer: SIB bypasses from the queue, not at
// admission.
func (s *SIB) Admit(block.Op, block.Extent) bool { return true }
