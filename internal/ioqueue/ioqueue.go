// Package ioqueue implements the per-device request queue of the simulated
// block layer: FIFO dispatch order with Linux-elevator-style back/front
// merging of contiguous requests, incremental census by request origin, and
// tail extraction for load-balancer bypass decisions.
//
// Merging matters to LBICA twice over: sequential streams collapse into few
// large requests (so a "sequential write" burst shows a short queue of big
// W/E requests), and the paper's stated bypass rule targets exactly the
// requests that cannot merge with anything already queued.
package ioqueue

import (
	"time"

	"lbica/internal/block"
)

// node is a doubly-linked queue entry. Nodes are recycled through a
// per-queue free-list (chained on next), so steady-state Push/Pop
// allocates nothing.
type node struct {
	req        *block.Request
	prev, next *node
}

// chain is one pooled merge-completion link: when a merged head finishes,
// Complete propagates the completion to the absorbed request. Pooling the
// links keeps merge-heavy workloads from allocating per absorbed request;
// the chain itself is the head request's Completer, so installing it is
// interface boxing of an existing pointer — no allocation.
type chain struct {
	q        *Queue
	prev     block.Completer
	absorbed *block.Request
}

// Complete implements block.Completer for the merged head.
func (c *chain) Complete(head *block.Request) {
	prev, absorbed := c.prev, c.absorbed
	c.prev, c.absorbed = nil, nil
	q := c.q
	if prev != nil {
		prev.Complete(head)
	}
	absorbed.Dispatch = head.Dispatch
	absorbed.Complete = head.Complete
	absorbed.Merged = head.Merged
	if absorbed.OnComplete != nil {
		absorbed.OnComplete.Complete(absorbed)
	}
	if q.recycle != nil {
		// Absorbed requests never reach a device server, so the server-side
		// release hook cannot recycle them; this is their pool return.
		q.recycle(absorbed)
	}
	q.freeChains = append(q.freeChains, c)
}

// Queue is a single device's pending-request queue. The zero value is not
// usable; call New.
type Queue struct {
	name string

	head, tail *node
	size       int

	// Recycling pools: spent list nodes (chained on next) and merge-chain
	// links. recycle, when set, receives requests the queue finished with
	// internally (merged-away requests after their completion ran).
	freeNodes  *node
	freeChains []*chain
	recycle    func(*block.Request)

	census block.Census

	// Elevator indexes: boundary sector → most recent queued node with that
	// boundary, whatever its origin (canMerge checks the origin). back keys
	// on Extent.End() (back-merge candidates); front keys on Extent.LBA
	// (front-merge candidates).
	back, front sectorIndex

	// maxMergeSectors caps a merged request's size, mirroring the block
	// layer's max_sectors_kb. 0 disables merging.
	maxMergeSectors int64

	// Dispatch discipline state (LOOK).
	discipline Discipline
	headPos    int64
	sweepUp    bool

	// Cumulative accounting.
	pushed    uint64
	popped    uint64
	merges    uint64
	bypassed  uint64
	depthPeak int
	arrivals  block.Census
}

// Discipline selects the dispatch order.
type Discipline uint8

// Dispatch disciplines.
const (
	// FIFODispatch serves requests in arrival order (the default; queue
	// positions are meaningful to Eq. 1 and tail bypassing).
	FIFODispatch Discipline = iota
	// LookDispatch serves requests in elevator (LOOK) order: continue in
	// the current LBA direction, reverse when nothing remains ahead.
	// Starvation-free (every request is served within two sweeps) and
	// seek-friendly on rotational devices.
	LookDispatch
)

// Option configures a Queue.
type Option func(*Queue)

// WithMaxMergeSectors caps merged request size in sectors; 0 disables
// merging entirely.
func WithMaxMergeSectors(n int64) Option {
	return func(q *Queue) { q.maxMergeSectors = n }
}

// WithDiscipline selects the dispatch order (default FIFODispatch).
func WithDiscipline(d Discipline) Option {
	return func(q *Queue) { q.discipline = d }
}

// DefaultMaxMergeSectors mirrors a 512 KiB max_sectors_kb.
const DefaultMaxMergeSectors = 1024

// New returns an empty queue.
func New(name string, opts ...Option) *Queue {
	q := &Queue{
		name:            name,
		maxMergeSectors: DefaultMaxMergeSectors,
		sweepUp:         true,
	}
	for _, o := range opts {
		o(q)
	}
	return q
}

// Name returns the queue's name.
func (q *Queue) Name() string { return q.name }

// OnRecycle registers a hook receiving requests the queue is finished with
// internally — an absorbed (merged-away) request after its chained
// completion has run. Request pools use it to reclaim requests that never
// reach a device server.
func (q *Queue) OnRecycle(fn func(*block.Request)) { q.recycle = fn }

// Depth returns the number of pending requests.
func (q *Queue) Depth() int { return q.size }

// DepthPeak returns the highest depth observed since creation.
func (q *Queue) DepthPeak() int { return q.depthPeak }

// Pushed returns the cumulative number of Push calls (merged or not).
func (q *Queue) Pushed() uint64 { return q.pushed }

// Popped returns the cumulative number of requests dispatched.
func (q *Queue) Popped() uint64 { return q.popped }

// Merges returns the cumulative number of successful merges.
func (q *Queue) Merges() uint64 { return q.merges }

// Extracted returns the cumulative number of requests removed by Extract.
func (q *Queue) Extracted() uint64 { return q.bypassed }

// Census returns the in-queue census by origin.
func (q *Queue) Census() block.Census { return q.census }

// Arrivals returns the cumulative census of every request ever pushed
// (merged arrivals included). Interval deltas of this census are the
// workload-characterization signal: they describe what entered the queue,
// independent of how fast it drained.
func (q *Queue) Arrivals() block.Census { return q.arrivals }

// Push enqueues r at the tail, first attempting a back merge (r extends a
// queued request) then a front merge (r prepends one). Merge candidates
// must share r's origin and stay within the size cap. It reports whether r
// was absorbed into an existing request.
func (q *Queue) Push(r *block.Request, now time.Duration) (merged bool) {
	q.pushed++
	q.arrivals[r.Origin]++
	r.Submit = now
	if q.maxMergeSectors > 0 {
		if n := q.back.get(r.Extent.LBA); n != nil && q.canMerge(n.req, r) {
			q.absorb(n, r)
			return true
		}
		if n := q.front.get(r.Extent.End()); n != nil && q.canMerge(n.req, r) {
			q.absorb(n, r)
			return true
		}
	}
	n := q.getNode(r)
	if q.tail == nil {
		q.head, q.tail = n, n
	} else {
		n.prev = q.tail
		q.tail.next = n
		q.tail = n
	}
	q.size++
	if q.size > q.depthPeak {
		q.depthPeak = q.size
	}
	q.census[r.Origin]++
	q.index(n)
	return false
}

func (q *Queue) canMerge(a, b *block.Request) bool {
	if a.Origin != b.Origin {
		return false
	}
	// Shadowed and unshadowed writes must not merge: cancelling a shadowed
	// head would silently drop an absorbed unshadowed write's only copy.
	if a.Shadowed != b.Shadowed {
		return false
	}
	if !a.Extent.Adjacent(b.Extent) {
		return false
	}
	return a.Extent.Sectors+b.Extent.Sectors <= q.maxMergeSectors
}

// absorb folds r into queued node n, at either end.
func (q *Queue) absorb(n *node, r *block.Request) {
	q.merges++
	q.unindex(n)
	n.req.Extent = n.req.Extent.Union(r.Extent)
	n.req.Merged += r.Merged + 1
	// Chain completion: when the merged head finishes, the absorbed request
	// finishes too, with its own Submit preserved for latency accounting.
	c := q.getChain()
	c.prev = n.req.OnComplete
	c.absorbed = r
	n.req.OnComplete = c
	q.index(n)
}

// getChain pops a pooled merge-chain link, allocating on pool miss.
func (q *Queue) getChain() *chain {
	if n := len(q.freeChains); n > 0 {
		c := q.freeChains[n-1]
		q.freeChains = q.freeChains[:n-1]
		return c
	}
	return &chain{q: q}
}

// getNode pops a pooled list node, allocating on pool miss.
func (q *Queue) getNode(r *block.Request) *node {
	n := q.freeNodes
	if n == nil {
		return &node{req: r}
	}
	q.freeNodes = n.next
	n.req = r
	n.prev, n.next = nil, nil
	return n
}

// putNode returns a detached node to the free-list, dropping its request
// reference.
func (q *Queue) putNode(n *node) {
	n.req = nil
	n.prev = nil
	n.next = q.freeNodes
	q.freeNodes = n
}

func (q *Queue) index(n *node) {
	q.back.put(n.req.Extent.End(), n)
	q.front.put(n.req.Extent.LBA, n)
}

// unindex drops n's boundary entries, leaving any a later node overwrote.
func (q *Queue) unindex(n *node) {
	q.back.deleteIf(n.req.Extent.End(), n)
	q.front.deleteIf(n.req.Extent.LBA, n)
}

// Pop removes and returns the next request per the dispatch discipline,
// or nil when empty.
func (q *Queue) Pop() *block.Request {
	if q.head == nil {
		return nil
	}
	n := q.head
	if q.discipline == LookDispatch {
		n = q.lookNext()
	}
	r := n.req
	q.remove(n)
	q.putNode(n)
	q.popped++
	if q.discipline == LookDispatch {
		q.headPos = r.Extent.End()
	}
	return r
}

// lookNext implements LOOK: the nearest request at or past the head
// position in the current sweep direction; reverse when the direction is
// exhausted. The queue is non-empty when called.
func (q *Queue) lookNext() *node {
	pick := func(up bool) *node {
		var best *node
		for n := q.head; n != nil; n = n.next {
			lba := n.req.Extent.LBA
			if up && lba < q.headPos {
				continue
			}
			if !up && lba > q.headPos {
				continue
			}
			if best == nil {
				best = n
				continue
			}
			if up && lba < best.req.Extent.LBA {
				best = n
			}
			if !up && lba > best.req.Extent.LBA {
				best = n
			}
		}
		return best
	}
	if n := pick(q.sweepUp); n != nil {
		return n
	}
	q.sweepUp = !q.sweepUp
	if n := pick(q.sweepUp); n != nil {
		return n
	}
	return q.head // unreachable for a non-empty queue, but stay safe
}

// Peek returns the head request without removing it, or nil when empty.
func (q *Queue) Peek() *block.Request {
	if q.head == nil {
		return nil
	}
	return q.head.req
}

func (q *Queue) remove(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		q.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		q.tail = n.prev
	}
	n.prev, n.next = nil, nil
	q.size--
	q.census[n.req.Origin]--
	q.unindex(n)
}

// Snapshot returns the pending requests in dispatch order. The slice is
// fresh; the requests are shared.
func (q *Queue) Snapshot() []*block.Request {
	out := make([]*block.Request, 0, q.size)
	for n := q.head; n != nil; n = n.next {
		out = append(out, n.req)
	}
	return out
}

// Extract removes and returns every pending request for which pred returns
// true. pos is the request's current dispatch position (0 = next to go).
// Extracted requests keep their Submit stamps; the caller re-routes them.
func (q *Queue) Extract(pred func(pos int, r *block.Request) bool) []*block.Request {
	var out []*block.Request
	pos := 0
	for n := q.head; n != nil; {
		next := n.next
		if pred(pos, n.req) {
			r := n.req
			q.remove(n)
			q.putNode(n)
			q.bypassed++
			out = append(out, r)
		}
		pos++
		n = next
	}
	return out
}
