// Stack checkpointing: serialize a mid-run stack to bytes and restore it
// onto a freshly built stack of the same configuration. It is the only
// code that copies mid-run state — persistent checkpoints, warm-plan
// members and Fork (fork.go) all go through it. EncodeState writes the
// full state set — the event kernel's pending events, cache, queues with
// their in-flight request graphs, device servers, monitor, balancer,
// generator — and DecodeState replays it in place, rebinding the event
// chains onto the restored kernel's events by sequence number.
// Determinism contract: a restored stack, run to completion, produces
// byte-identical Results to the stack that was checkpointed (and
// therefore to an uninterrupted from-scratch run).
package engine

import (
	"context"
	"fmt"

	"lbica/internal/block"
	"lbica/internal/cache"
	"lbica/internal/ckpt"
	"lbica/internal/sim"
)

func init() {
	// The three completer kinds the stack installs on requests. Each
	// payload leads with the owning-stack component ref so alloc can
	// build the placeholder before fill walks the rest (two-phase decode
	// resolves the request graph's cycles).
	ckpt.RegisterCompleter("engine.appOp",
		func(d *ckpt.Decoder) block.Completer {
			st, ok := d.ComponentRef().(*Stack)
			if !ok {
				d.Failf("app op references a non-stack component")
				return nil
			}
			return &appOp{st: st}
		},
		func(d *ckpt.Decoder, c block.Completer) {
			op := c.(*appOp)
			op.arrival = d.Duration()
			op.legs = d.Int()
			op.promote = d.Bool()
			op.promoteExt.LBA = d.I64()
			op.promoteExt.Sectors = d.I64()
			if d.Err() == nil && (op.legs < 1 || op.legs > 2) {
				d.Failf("app op with %d legs", op.legs)
			}
		})
	ckpt.RegisterCompleter("engine.evictOp",
		func(d *ckpt.Decoder) block.Completer {
			st, ok := d.ComponentRef().(*Stack)
			if !ok {
				d.Failf("evict op references a non-stack component")
				return nil
			}
			return &evictOp{st: st}
		},
		func(d *ckpt.Decoder, c block.Completer) { c.(*evictOp).decodePayload(d) })
	ckpt.RegisterCompleter("engine.wbCompleter",
		func(d *ckpt.Decoder) block.Completer {
			st, ok := d.ComponentRef().(*Stack)
			if !ok {
				d.Failf("writeback completer references a non-stack component")
				return nil
			}
			return (*wbCompleter)(&evictOp{st: st})
		},
		func(d *ckpt.Decoder, c block.Completer) { (*evictOp)(c.(*wbCompleter)).decodePayload(d) })
}

// CkptKind implements ckpt.EncodableCompleter.
func (op *appOp) CkptKind() string { return "engine.appOp" }

// EncodeCkpt implements ckpt.EncodableCompleter.
func (op *appOp) EncodeCkpt(e *ckpt.Encoder) {
	e.ComponentRef(op.st)
	e.Duration(op.arrival)
	e.Int(op.legs)
	e.Bool(op.promote)
	e.I64(op.promoteExt.LBA)
	e.I64(op.promoteExt.Sectors)
}

func (op *evictOp) encodePayload(e *ckpt.Encoder) {
	e.ComponentRef(op.st)
	e.I64(op.ext.LBA)
	e.I64(op.ext.Sectors)
	e.I64(op.blockNum)
	e.U64(op.epoch)
	e.Bool(op.markClean)
}

func (op *evictOp) decodePayload(d *ckpt.Decoder) {
	op.ext.LBA = d.I64()
	op.ext.Sectors = d.I64()
	op.blockNum = d.I64()
	op.epoch = d.U64()
	op.markClean = d.Bool()
}

// CkptKind implements ckpt.EncodableCompleter.
func (op *evictOp) CkptKind() string { return "engine.evictOp" }

// EncodeCkpt implements ckpt.EncodableCompleter.
func (op *evictOp) EncodeCkpt(e *ckpt.Encoder) { op.encodePayload(e) }

// CkptKind implements ckpt.EncodableCompleter.
func (op *wbCompleter) CkptKind() string { return "engine.wbCompleter" }

// EncodeCkpt implements ckpt.EncodableCompleter.
func (op *wbCompleter) EncodeCkpt(e *ckpt.Encoder) { (*evictOp)(op).encodePayload(e) }

// Encode serializes the complete stack into one payload. A sizing pass
// counts the bytes first, so the buffer is allocated once, at its exact
// length.
func (st *Stack) Encode() ([]byte, error) {
	size := ckpt.NewSizer()
	st.EncodeState(size)
	if err := size.Err(); err != nil {
		return nil, err
	}
	enc := ckpt.NewEncoder(size.Len())
	st.EncodeState(enc)
	if err := enc.Err(); err != nil {
		return nil, err
	}
	return enc.Data(), nil
}

// Decode restores a payload written by Encode onto this freshly built,
// not-yet-started stack (see DecodeState), which must consume all of it.
// The stack must be discarded on error.
func (st *Stack) Decode(ctx context.Context, payload []byte) error {
	d := ckpt.NewDecoder(payload)
	st.DecodeState(ctx, d)
	if err := d.Err(); err != nil {
		return err
	}
	if n := d.Remaining(); n > 0 {
		return fmt.Errorf("ckpt: %d trailing bytes after stack state", n)
	}
	return nil
}

// EncodeState serializes the complete stack. It fails (sticky encoder
// error, stack untouched) on a traced run, a generator or balancer
// without checkpoint support, or an in-flight completer the codec does
// not know.
func (st *Stack) EncodeState(enc *ckpt.Encoder) {
	enc.Section("engine.Stack")
	if st.rec != nil {
		enc.Failf("engine: cannot checkpoint a traced stack")
		return
	}
	gen, ok := st.gen.(ckpt.StateCodec)
	if !ok {
		enc.Failf("engine: generator %q is not checkpointable", st.gen.Name())
		return
	}
	// Component ids, in the fixed order DecodeState mirrors. Registered
	// before any request graph is walked: completers inside the queues
	// and servers resolve their owners through these ids.
	enc.RegisterComponent(st)
	enc.RegisterComponent(st.ssdQ)
	enc.RegisterComponent(st.hddQ)

	st.eng.EncodeState(enc)

	enc.U64(st.ids)
	enc.U64(st.appSubmitted)
	enc.U64(st.appCompleted)
	enc.U64(st.bypassed)
	enc.U64(st.cancelled)
	enc.I64(st.ssdWrSectors)
	enc.I64(st.hddWrSectors)
	st.appLat.EncodeState(enc)

	enc.U32(uint32(len(st.timeline)))
	for _, pc := range st.timeline {
		enc.Int(pc.Interval)
		enc.Duration(pc.At)
		enc.U8(uint8(pc.Policy))
		enc.String(pc.Group)
	}
	enc.U32(uint32(len(st.cacheStatsAt)))
	for i := range st.cacheStatsAt {
		st.cacheStatsAt[i].EncodeState(enc)
	}

	enc.Bool(st.flushing)
	enc.Int(st.ticks)
	enc.Int(st.maxTicks)

	enc.Duration(st.pumpReq.At)
	enc.U8(uint8(st.pumpReq.Op))
	enc.I64(st.pumpReq.Extent.LBA)
	enc.I64(st.pumpReq.Extent.Sectors)
	enc.Bool(st.pumpStopped)
	sim.EncodeEvent(enc, st.pumpEv)
	sim.EncodeEvent(enc, st.tickEv)
	sim.EncodeEvent(enc, st.flushEv)

	st.cch.EncodeState(enc)
	st.ssdQ.EncodeState(enc)
	st.hddQ.EncodeState(enc)
	st.mon.EncodeState(enc)
	st.ssd.EncodeState(enc)
	st.hdd.EncodeState(enc)

	// The balancer's state is framed, so a balancer-less stack can step
	// over it (see DecodeState).
	enc.Section("engine.balancer")
	enc.String(st.schemeName())
	enc.Bool(st.bal != nil)
	if st.bal != nil {
		bc, ok := st.bal.(ckpt.StateCodec)
		if !ok {
			enc.Failf("engine: balancer %q is not checkpointable", st.bal.Name())
			return
		}
		enc.Frame(func() { bc.EncodeState(enc) })
	}
	enc.U32(uint32(len(st.periodics)))
	for i := range st.periodics {
		enc.Duration(st.periodics[i].every)
		sim.EncodeEvent(enc, st.periodics[i].ev)
	}

	enc.Section("engine.generator")
	gen.EncodeState(enc)
	enc.Section("engine.end")
}

// DecodeState restores a checkpoint onto this freshly built stack —
// same Config, same generator construction, same balancer scheme; New
// must have run but not Start. On success the stack is mid-run exactly
// where the checkpointed one was: StepTo/Drain/Collect/Fork all continue
// from the restored state. On failure the decoder carries the error and
// the stack must be discarded (it may be partially overwritten).
//
// A stack built without a balancer may also restore a checkpoint that
// has one, dropping it: this is how a WB run resumes an LBICA leader's
// warmup prefix. The balancer's state is skipped, and the restore is
// refused unless the run is one the balancer never shaped — it has not
// acted (BalancerActed), registered no periodic task (SIB's scans), and
// left the cache in the policy this stack pins.
//
// ctx provides the cooperative-cancellation channel Start would have
// installed; nil means background.
func (st *Stack) DecodeState(ctx context.Context, d *ckpt.Decoder) {
	d.Section("engine.Stack")
	if st.rec != nil {
		d.Failf("engine: cannot restore onto a traced stack")
		return
	}
	gen, ok := st.gen.(ckpt.StateCodec)
	if !ok {
		d.Failf("engine: generator %q is not checkpointable", st.gen.Name())
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	d.RegisterComponent(st)
	d.RegisterComponent(st.ssdQ)
	d.RegisterComponent(st.hddQ)

	st.eng.DecodeState(d)
	if d.Err() != nil {
		return
	}

	st.ids = d.U64()
	st.appSubmitted = d.U64()
	st.appCompleted = d.U64()
	st.bypassed = d.U64()
	st.cancelled = d.U64()
	st.ssdWrSectors = d.I64()
	st.hddWrSectors = d.I64()
	st.appLat.DecodeState(d)

	nTL := d.Count(14)
	if d.Err() != nil {
		return
	}
	// nil when empty, as on a fresh stack: Results equality is byte-level.
	st.timeline = nil
	if nTL > 0 {
		st.timeline = make([]PolicyChange, 0, nTL)
	}
	for i := 0; i < nTL; i++ {
		pc := PolicyChange{
			Interval: d.Int(),
			At:       d.Duration(),
			Policy:   cache.Policy(d.U8()),
			Group:    d.String(),
		}
		if d.Err() != nil {
			return
		}
		st.timeline = append(st.timeline, pc)
	}
	nCS := d.Count(8)
	if d.Err() != nil {
		return
	}
	st.cacheStatsAt = nil
	if nCS > 0 {
		st.cacheStatsAt = make([]cache.Stats, 0, nCS)
	}
	for i := 0; i < nCS; i++ {
		var cs cache.Stats
		cs.DecodeState(d)
		if d.Err() != nil {
			return
		}
		st.cacheStatsAt = append(st.cacheStatsAt, cs)
	}

	st.flushing = d.Bool()
	st.ticks = d.Int()
	st.maxTicks = d.Int()

	st.pumpReq.At = d.Duration()
	st.pumpReq.Op = block.Op(d.U8())
	st.pumpReq.Extent.LBA = d.I64()
	st.pumpReq.Extent.Sectors = d.I64()
	st.pumpStopped = d.Bool()

	// Rebind the self-rescheduling chains onto the restored events.
	st.ctxDone = ctx.Done()
	st.bindChainFns()
	rebind := func(fn func(), what string) sim.Event {
		ref, pending := st.eng.DecodeEvent(d)
		if d.Err() != nil || !pending {
			return sim.Event{}
		}
		ev, ok := st.eng.Rebind(ref, fn)
		if !ok {
			d.Failf("engine: %s event failed to rebind", what)
			return sim.Event{}
		}
		return ev
	}
	st.pumpEv = rebind(st.pumpFn, "arrival pump")
	st.tickEv = rebind(st.tickFn, "monitor tick")
	st.flushEv = rebind(st.flushFn, "flusher")
	if d.Err() != nil {
		return
	}

	st.cch.DecodeState(d)
	st.ssdQ.DecodeState(d)
	st.hddQ.DecodeState(d)
	st.mon.DecodeState(d)
	st.ssd.DecodeState(d)
	st.hdd.DecodeState(d)
	if d.Err() != nil {
		return
	}

	d.Section("engine.balancer")
	scheme := d.String()
	hasBal := d.Bool()
	if d.Err() != nil {
		return
	}
	if st.bal == nil {
		if hasBal {
			d.SkipFrame()
		}
		switch {
		case d.Err() != nil:
			return
		case st.acted():
			d.Failf("engine: the %s balancer already acted on this checkpoint, so it cannot be dropped", scheme)
			return
		case st.cch.Policy() != st.cfg.Cache.InitialPolicy:
			d.Failf("engine: checkpoint's cache runs %s, this stack pins %s", st.cch.Policy(), st.cfg.Cache.InitialPolicy)
			return
		}
	} else {
		if scheme != st.schemeName() || !hasBal {
			d.Failf("engine: checkpoint is for scheme %q, stack runs %q", scheme, st.schemeName())
			return
		}
		bc, ok := st.bal.(ckpt.StateCodec)
		if !ok {
			d.Failf("engine: balancer %q is not checkpointable", st.bal.Name())
			return
		}
		d.Frame(func() { bc.DecodeState(d) })
	}
	nPer := d.Count(9)
	if d.Err() != nil {
		return
	}
	if nPer != len(st.periodics) {
		d.Failf("engine: checkpoint has %d balancer periodics, stack registered %d", nPer, len(st.periodics))
		return
	}
	for i := 0; i < nPer; i++ {
		every := d.Duration()
		if d.Err() == nil && every != st.periodics[i].every {
			d.Failf("engine: periodic %d fires every %v in the checkpoint, %v on the stack", i, every, st.periodics[i].every)
			return
		}
		st.bindPeriodic(i)
		st.periodics[i].ev = rebind(st.periodics[i].runFn, "balancer periodic")
		if d.Err() != nil {
			return
		}
	}

	d.Section("engine.generator")
	gen.DecodeState(d)
	d.Section("engine.end")
	if d.Err() != nil {
		return
	}

	// The restored pools start empty; recycling refills them.
	st.freeReqs = nil
	st.freeAppOps = nil
	st.freeEvictOps = nil

	// Every pending event must have found its owner above.
	if n := st.eng.UnboundEvents(); n > 0 {
		d.Failf("engine: %d pending events were not rebound after restore", n)
	}
}
