package sib

import "lbica/internal/ckpt"

// EncodeState serializes the scan counters, all plain values. The scan
// periodic itself is a pending kernel event and rides with the engine
// section.
func (s *SIB) EncodeState(enc *ckpt.Encoder) {
	enc.Section("sib.SIB")
	enc.Int(s.scans)
	enc.Int(s.scanned)
	enc.Int(s.bypassed)
}

// DecodeState restores the counters in place on an attached balancer.
func (s *SIB) DecodeState(d *ckpt.Decoder) {
	d.Section("sib.SIB")
	scans := d.Int()
	scanned := d.Int()
	bypassed := d.Int()
	if d.Err() != nil {
		return
	}
	s.scans = scans
	s.scanned = scanned
	s.bypassed = bypassed
}
