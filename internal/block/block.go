// Package block defines the block-layer request model shared by every tier
// of the simulated storage stack.
//
// The load-bearing concept is the Origin tag. LBICA characterizes workloads
// by the *type* of requests sitting in the SSD queue — application reads
// (R), application writes (W), cache promotions (P) and cache evictions (E)
// — plus the two disk-side types of the paper's Fig. 1: read misses (Rm)
// and dirty-eviction writebacks. Queues expose a census over these tags and
// the characterizer consumes it.
package block

import (
	"fmt"
	"time"
)

// SectorSize is the unit of addressing, in bytes (512B, matching the Linux
// block layer).
const SectorSize = 512

// Op is the transfer direction at the device.
type Op uint8

// Transfer directions.
const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// Origin tags why a device-level request exists. The first four are the
// paper's R/W/P/E taxonomy (SSD-queue residents); ReadMiss and Writeback
// are the HDD-side shadows of a miss and a dirty eviction.
type Origin uint8

// Request origins.
const (
	// AppRead is an application read served by the cache (a hit) — "R".
	AppRead Origin = iota
	// AppWrite is an application write buffered in the cache — "W".
	AppWrite
	// Promote is the cache-fill write issued to the SSD after a read miss — "P".
	Promote
	// Evict is the SSD read of a dirty victim being evicted — "E".
	Evict
	// ReadMiss is the HDD read serving an application read that missed — "Rm".
	ReadMiss
	// Writeback is the HDD write of an evicted dirty block.
	Writeback
	// BypassRead is an application read routed directly to the HDD by a
	// load balancer (not a miss: the balancer chose not to consult the cache).
	BypassRead
	// BypassWrite is an application write routed directly to the HDD by a
	// load balancer or by a non-write-allocate policy (RO/WT bypass path).
	BypassWrite
	numOrigins
)

// NumOrigins is the number of distinct origin tags.
const NumOrigins = int(numOrigins)

var originNames = [...]string{"R", "W", "P", "E", "Rm", "WB", "BR", "BW"}

func (o Origin) String() string {
	if int(o) < len(originNames) {
		return originNames[o]
	}
	return fmt.Sprintf("Origin(%d)", uint8(o))
}

// Op returns the transfer direction implied by the origin at its device.
func (o Origin) Op() Op {
	switch o {
	case AppRead, Evict, ReadMiss, BypassRead:
		return Read
	default:
		return Write
	}
}

// Extent is a contiguous run of sectors.
type Extent struct {
	LBA     int64 // first sector
	Sectors int64 // length in sectors, > 0
}

// End returns the first sector past the extent.
func (e Extent) End() int64 { return e.LBA + e.Sectors }

// Bytes returns the extent size in bytes.
func (e Extent) Bytes() int64 { return e.Sectors * SectorSize }

// Adjacent reports whether o starts exactly where e ends or vice versa.
func (e Extent) Adjacent(o Extent) bool {
	return e.End() == o.LBA || o.End() == e.LBA
}

// Union returns the smallest extent covering both. It is only meaningful
// for overlapping or adjacent extents; Merge in ioqueue enforces that.
func (e Extent) Union(o Extent) Extent {
	lo := e.LBA
	if o.LBA < lo {
		lo = o.LBA
	}
	hi := e.End()
	if o.End() > hi {
		hi = o.End()
	}
	return Extent{LBA: lo, Sectors: hi - lo}
}

func (e Extent) String() string { return fmt.Sprintf("[%d,+%d)", e.LBA, e.Sectors) }

// Request is one block-layer request flowing through a device queue.
// Lifecycle timestamps are virtual times stamped by the engine:
// Submit (enters a queue) → Dispatch (reaches the device) → Complete.
type Request struct {
	ID     uint64
	Origin Origin
	Extent Extent

	// ParentID links side-traffic (promote, writeback, WT shadow writes)
	// to the application request that caused it; 0 for application
	// requests themselves.
	ParentID uint64

	Submit   time.Duration
	Dispatch time.Duration
	Complete time.Duration

	// Merged counts how many requests were folded into this one by queue
	// merging (0 for an unmerged request).
	Merged int

	// Shadowed marks a cache-write leg whose data is also being written to
	// the disk tier by a parallel through-write leg (WT/WTWO policies). A
	// load balancer may cancel a shadowed SSD leg outright instead of
	// re-routing it: the disk leg already persists the data.
	Shadowed bool

	// OnComplete, when non-nil, runs when the device finishes the request
	// (after timestamps are stamped). The engine uses it to chain the
	// request lifecycle: miss fill → promote, eviction → writeback, etc.
	// It is an interface rather than a bare func so that the checkpoint
	// codec can identify and re-create the callback against a restored
	// stack; ad-hoc callers adapt plain functions with CompleterFunc.
	OnComplete Completer

	// Recycle marks a request owned by a request pool: after every
	// completion callback has run, the owner returns it to its free-list
	// and may reuse it for a later request. Externally created requests
	// (tests, tools) leave it false and are never recycled.
	Recycle bool
}

// Completer receives a request's completion. Completion callbacks are
// typed values instead of bare funcs so the checkpoint codec can recognize
// each one and rebuild it against a restored stack: every completer the
// engine or queue layer installs also implements ckpt.EncodableCompleter.
type Completer interface {
	Complete(*Request)
}

// CompleterFunc adapts a plain function as a Completer — the convenience
// for tests and tools. A CompleterFunc is not checkpointable: a stack
// holding one in flight cannot be encoded.
type CompleterFunc func(*Request)

// Complete calls f.
func (f CompleterFunc) Complete(r *Request) { f(r) }

// Op returns the transfer direction of the request.
func (r *Request) Op() Op { return r.Origin.Op() }

// QueueTime returns time spent waiting in queue (Dispatch − Submit).
func (r *Request) QueueTime() time.Duration { return r.Dispatch - r.Submit }

// Latency returns total time in the tier (Complete − Submit).
func (r *Request) Latency() time.Duration { return r.Complete - r.Submit }

func (r *Request) String() string {
	return fmt.Sprintf("req#%d %s %s %s", r.ID, r.Origin, r.Op(), r.Extent)
}

// Census counts in-queue requests by origin — the R/W/P/E snapshot the
// characterizer consumes (Fig. 3 of the paper).
type Census [NumOrigins]int

// Total returns the number of counted requests.
func (c Census) Total() int {
	n := 0
	for _, v := range c {
		n += v
	}
	return n
}

// Ratio returns origin o's share of the census in [0,1]; 0 when empty.
func (c Census) Ratio(o Origin) float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c[o]) / float64(t)
}

func (c Census) String() string {
	t := c.Total()
	if t == 0 {
		return "census(empty)"
	}
	return fmt.Sprintf("census(R:%.1f%% W:%.1f%% P:%.1f%% E:%.1f%% n=%d)",
		100*c.Ratio(AppRead), 100*c.Ratio(AppWrite), 100*c.Ratio(Promote), 100*c.Ratio(Evict), t)
}
