package device

import (
	"lbica/internal/ckpt"
	"lbica/internal/sim"
)

// EncodableModel is a device model whose internal state (RNG position,
// locality, write-cache occupancy) can round-trip through a checkpoint.
// Both shipped models implement it; the decode side restores state onto
// the freshly built model of the same configuration.
type EncodableModel interface {
	Model
	EncodeModelState(*ckpt.Encoder)
	DecodeModelState(*ckpt.Decoder)
}

// EncodeModelState serializes the SSD's mutable state: the jitter stream
// position and the GC-backlog counter. The dists are pure functions of
// the configuration over the stream and are rebuilt by NewSSD.
func (s *SSD) EncodeModelState(enc *ckpt.Encoder) {
	enc.Section("device.SSD")
	s.g.EncodeState(enc)
	enc.Int(s.recentWrites)
}

// DecodeModelState restores the SSD in place. The RNG is restored
// through the same pointer the dists hold, so they stay wired.
func (s *SSD) DecodeModelState(d *ckpt.Decoder) {
	d.Section("device.SSD")
	s.g.DecodeState(d)
	s.recentWrites = d.Int()
}

// EncodeModelState serializes the HDD's mutable state: stream position,
// head locality, and the controller write-cache drain model. The clock
// is a closure over the owning engine and is never serialized; the
// freshly built stack has already re-attached it.
func (h *HDD) EncodeModelState(enc *ckpt.Encoder) {
	enc.Section("device.HDD")
	h.g.EncodeState(enc)
	enc.I64(h.lastEnd)
	enc.F64(h.wcOccupancy)
	enc.Duration(h.wcLastDrain)
	enc.U64(h.wcRejects)
}

// DecodeModelState restores the HDD in place.
func (h *HDD) DecodeModelState(d *ckpt.Decoder) {
	d.Section("device.HDD")
	h.g.DecodeState(d)
	h.lastEnd = d.I64()
	h.wcOccupancy = d.F64()
	h.wcLastDrain = d.Duration()
	h.wcRejects = d.U64()
}

// EncodeState serializes the server: model state, service accounting,
// every in-flight request with its pending completion event, and every
// pending stall slot. The op pools are behavior-invisible and excluded; the hooks are closures the
// restoring stack already wired.
func (s *Server) EncodeState(enc *ckpt.Encoder) {
	enc.Section("device.Server")
	m, ok := s.model.(EncodableModel)
	if !ok {
		enc.Failf("device: model %s is not checkpointable", s.model.Name())
		return
	}
	m.EncodeModelState(enc)
	enc.Int(s.inflight)
	enc.Duration(s.busy)
	enc.U64(s.completed)
	enc.U32(uint32(len(s.live)))
	for _, op := range s.live {
		enc.Request(op.r)
		sim.EncodeEvent(enc, op.ev)
	}
	enc.U32(uint32(len(s.stalls)))
	for _, op := range s.stalls {
		sim.EncodeEvent(enc, op.ev)
	}
}

// DecodeState restores the server in place against its engine (already
// restored, so every recorded completion event is pending and awaiting
// rebind). Each live op is rebuilt with a fresh bound callback and its
// event rebound by (time, seq).
func (s *Server) DecodeState(d *ckpt.Decoder) {
	d.Section("device.Server")
	m, ok := s.model.(EncodableModel)
	if !ok {
		d.Failf("device: model %s is not checkpointable", s.model.Name())
		return
	}
	m.DecodeModelState(d)
	inflight := d.Int()
	busy := d.Duration()
	completed := d.U64()
	nLive := d.Count(1)
	if d.Err() != nil {
		return
	}
	live := make([]*inflightOp, 0, nLive)
	for i := 0; i < nLive; i++ {
		r := d.Request()
		ref, pending := s.eng.DecodeEvent(d)
		if d.Err() != nil {
			return
		}
		if r == nil || !pending {
			d.Failf("device: %s: in-flight op %d lacks a request or pending event", s.model.Name(), i)
			return
		}
		op := &inflightOp{s: s, r: r, idx: i}
		op.fn = op.complete
		ev, ok := s.eng.Rebind(ref, op.fn)
		if !ok {
			d.Failf("device: %s: in-flight completion event failed to rebind", s.model.Name())
			return
		}
		op.ev = ev
		live = append(live, op)
	}
	nStalls := d.Count(1)
	if d.Err() != nil {
		return
	}
	stalls := make([]*stallOp, 0, nStalls)
	for i := 0; i < nStalls; i++ {
		ref, pending := s.eng.DecodeEvent(d)
		if d.Err() != nil {
			return
		}
		if !pending {
			d.Failf("device: %s: stall op %d lacks a pending event", s.model.Name(), i)
			return
		}
		op := &stallOp{s: s, idx: i}
		op.fn = op.fire
		ev, ok := s.eng.Rebind(ref, op.fn)
		if !ok {
			d.Failf("device: %s: stall event failed to rebind", s.model.Name())
			return
		}
		op.ev = ev
		stalls = append(stalls, op)
	}
	if inflight < 0 {
		d.Failf("device: %s: negative inflight %d", s.model.Name(), inflight)
		return
	}
	s.inflight = inflight
	s.busy = busy
	s.completed = completed
	s.live = live
	s.stalls = stalls
	s.freeOps = nil
	s.freeStalls = nil
}
