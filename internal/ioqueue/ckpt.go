package ioqueue

import (
	"sort"

	"lbica/internal/block"
	"lbica/internal/ckpt"
)

func init() {
	// The merge-chain completer: its payload is (owning queue, earlier
	// chain link, absorbed request). The queue resolves through the
	// component map at alloc time so the two-phase fill only walks the
	// request graph.
	ckpt.RegisterCompleter("ioqueue.chain",
		func(d *ckpt.Decoder) block.Completer {
			q, ok := d.ComponentRef().(*Queue)
			if !ok {
				d.Failf("chain completer references a non-queue component")
				return nil
			}
			return &chain{q: q}
		},
		func(d *ckpt.Decoder, c block.Completer) {
			ch := c.(*chain)
			ch.prev = d.Completer()
			ch.absorbed = d.Request()
			if ch.absorbed == nil && d.Err() == nil {
				d.Failf("chain completer without an absorbed request")
			}
		})
}

// CkptKind implements ckpt.EncodableCompleter.
func (c *chain) CkptKind() string { return "ioqueue.chain" }

// EncodeCkpt implements ckpt.EncodableCompleter.
func (c *chain) EncodeCkpt(e *ckpt.Encoder) {
	e.ComponentRef(c.q)
	e.Completer(c.prev)
	e.Request(c.absorbed)
}

// encodeIndex writes an elevator index as sorted (boundary key, node list
// position) pairs. The index cannot be rebuilt from the node list alone:
// an entry overwritten by a later arrival and then vacated stays absent
// even though a queued node carries that boundary, and merge-candidate
// lookups observe the difference.
func encodeIndex(enc *ckpt.Encoder, x *sectorIndex, pos map[*node]int) {
	entries := make([]slot, 0, x.n)
	x.each(func(k int64, n *node) { entries = append(entries, slot{key: k, node: n}) })
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	enc.U32(uint32(len(entries)))
	for _, e := range entries {
		enc.I64(e.key)
		enc.Int(pos[e.node])
	}
}

// decodeIndex reads an index written by encodeIndex against the decoded
// node list. It accepts only what a live queue can hold: at most one entry
// per node, keys strictly ascending, and each key the current boundary of
// the node it names (End for the back index, LBA for the front). A node
// named twice would need the same key twice, so the order check rejects
// it.
func decodeIndex(d *ckpt.Decoder, nodes []*node, which string, boundary func(block.Extent) int64) sectorIndex {
	var x sectorIndex
	n := d.Count(16)
	if n > len(nodes) {
		d.Failf("%s index has %d entries for %d queued nodes", which, n, len(nodes))
		return x
	}
	var prev int64
	for i := 0; i < n; i++ {
		k := d.I64()
		p := d.Int()
		if d.Err() != nil {
			return x
		}
		if p < 0 || p >= len(nodes) {
			d.Failf("%s index entry %d references node position %d (queue depth %d)", which, i, p, len(nodes))
			return x
		}
		if i > 0 && k <= prev {
			d.Failf("%s index entry %d has key %d, not above the previous key %d", which, i, k, prev)
			return x
		}
		prev = k
		if b := boundary(nodes[p].req.Extent); k != b {
			d.Failf("%s index entry %d has key %d, node %d's boundary is %d", which, i, k, p, b)
			return x
		}
		x.put(k, nodes[p])
	}
	return x
}

// EncodeState serializes the queue: pending requests in list order (via
// the shared request-graph encoder, so a request also held by a server op
// round-trips to one request), the census and cumulative counters, the
// dispatch-discipline state, and both elevator indexes. The node/chain
// pools are behavior-invisible (pooled objects fully reset on reuse) and
// excluded.
func (q *Queue) EncodeState(enc *ckpt.Encoder) {
	enc.Section("ioqueue.Queue")
	enc.String(q.name)
	enc.U32(uint32(q.size))
	pos := make(map[*node]int, q.size)
	i := 0
	for n := q.head; n != nil; n = n.next {
		enc.Request(n.req)
		pos[n] = i
		i++
	}
	for _, c := range q.census {
		enc.Int(c)
	}
	encodeIndex(enc, &q.back, pos)
	encodeIndex(enc, &q.front, pos)
	enc.I64(q.maxMergeSectors)
	enc.U8(uint8(q.discipline))
	enc.I64(q.headPos)
	enc.Bool(q.sweepUp)
	enc.U64(q.pushed)
	enc.U64(q.popped)
	enc.U64(q.merges)
	enc.U64(q.bypassed)
	enc.Int(q.depthPeak)
	for _, c := range q.arrivals {
		enc.Int(c)
	}
}

// DecodeState restores the queue in place. The queue must already be
// registered on the decoder's component map (chain completers inside the
// request graph resolve their owning queue through it), and its recycle
// hook — wired by the freshly built stack — is left untouched.
func (q *Queue) DecodeState(d *ckpt.Decoder) {
	d.Section("ioqueue.Queue")
	name := d.String()
	if d.Err() != nil {
		return
	}
	if name != q.name {
		d.Failf("queue name mismatch: checkpoint has %q, stack has %q", name, q.name)
		return
	}
	size := d.Count(4)
	nodes := make([]*node, size)
	var head, tail *node
	for i := range nodes {
		r := d.Request()
		if d.Err() != nil {
			return
		}
		if r == nil {
			d.Failf("queue %q node %d has no request", name, i)
			return
		}
		n := &node{req: r}
		nodes[i] = n
		if tail == nil {
			head, tail = n, n
		} else {
			n.prev = tail
			tail.next = n
			tail = n
		}
	}
	var census block.Census
	for i := range census {
		census[i] = d.Int()
	}
	back := decodeIndex(d, nodes, "back", block.Extent.End)
	front := decodeIndex(d, nodes, "front", func(e block.Extent) int64 { return e.LBA })
	maxMergeSectors := d.I64()
	discipline := Discipline(d.U8())
	headPos := d.I64()
	sweepUp := d.Bool()
	pushed := d.U64()
	popped := d.U64()
	merges := d.U64()
	bypassed := d.U64()
	depthPeak := d.Int()
	var arrivals block.Census
	for i := range arrivals {
		arrivals[i] = d.Int()
	}
	if d.Err() != nil {
		return
	}
	if discipline > LookDispatch {
		d.Failf("queue %q has invalid discipline %d", name, discipline)
		return
	}
	q.head, q.tail = head, tail
	q.size = size
	q.freeNodes = nil
	q.freeChains = nil
	q.census = census
	q.back = back
	q.front = front
	q.maxMergeSectors = maxMergeSectors
	q.discipline = discipline
	q.headPos = headPos
	q.sweepUp = sweepUp
	q.pushed = pushed
	q.popped = popped
	q.merges = merges
	q.bypassed = bypassed
	q.depthPeak = depthPeak
	q.arrivals = arrivals
}
