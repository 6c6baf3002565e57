package workload

import (
	"lbica/internal/ckpt"
	"lbica/internal/sim"
)

// EncodeState serializes the generator's mid-stream position: RNG, phase
// cursor, ON/OFF burst state, and sequential-run registers. The phase
// schedule itself is immutable configuration the restoring side rebuilds
// from, and the lazily built Zipf samplers are pure draw-free functions
// of (phase, index) reconstructed on decode.
func (p *PhaseGen) EncodeState(enc *ckpt.Encoder) {
	enc.Section("workload.PhaseGen")
	enc.String(p.name)
	p.g.EncodeState(enc)
	enc.Duration(p.cursor)
	enc.Int(p.phaseIdx)
	enc.Duration(p.phaseTop)
	enc.Int(p.zipfIdx)
	enc.Int(p.wzipfIdx)
	enc.Bool(p.burstOn)
	enc.Duration(p.burstTop)
	enc.I64(p.seqNext)
	enc.Bool(p.seqRun)
	enc.I64(p.wseqNext)
	enc.Bool(p.wseqRun)
}

// DecodeState restores the generator in place. The checkpoint must have
// been written by a generator over the same schedule; the name and index
// ranges cross-check that, and the Zipf samplers are rebuilt from the
// recorded phase indices (NewZipf consumes no RNG draws, so the rebuild is
// invisible to the stream, and it shares the CDF table of any live
// generator over the same distribution, the checkpoint's writer included).
func (p *PhaseGen) DecodeState(d *ckpt.Decoder) {
	d.Section("workload.PhaseGen")
	name := d.String()
	if d.Err() != nil {
		return
	}
	if name != p.name {
		d.Failf("workload: generator name mismatch: checkpoint has %q, stack has %q", name, p.name)
		return
	}
	p.g.DecodeState(d)
	cursor := d.Duration()
	phaseIdx := d.Int()
	phaseTop := d.Duration()
	zipfIdx := d.Int()
	wzipfIdx := d.Int()
	burstOn := d.Bool()
	burstTop := d.Duration()
	seqNext := d.I64()
	seqRun := d.Bool()
	wseqNext := d.I64()
	wseqRun := d.Bool()
	if d.Err() != nil {
		return
	}
	if phaseIdx < 0 || phaseIdx > len(p.phases) {
		d.Failf("workload: phase index %d outside schedule of %d phases", phaseIdx, len(p.phases))
		return
	}
	if zipfIdx < -1 || zipfIdx >= len(p.phases) ||
		(zipfIdx >= 0 && p.phases[zipfIdx].WorkingSetBlocks <= 0) {
		d.Failf("workload: zipf index %d invalid for schedule of %d phases", zipfIdx, len(p.phases))
		return
	}
	if wzipfIdx < -1 || wzipfIdx >= len(p.phases) ||
		(wzipfIdx >= 0 && p.phases[wzipfIdx].WriteWorkingSetBlocks <= 0) {
		d.Failf("workload: write-zipf index %d invalid for schedule of %d phases", wzipfIdx, len(p.phases))
		return
	}
	p.cursor = cursor
	p.phaseIdx = phaseIdx
	p.phaseTop = phaseTop
	p.zipfIdx = zipfIdx
	p.wzipfIdx = wzipfIdx
	p.burstOn = burstOn
	p.burstTop = burstTop
	p.seqNext = seqNext
	p.seqRun = seqRun
	p.wseqNext = wseqNext
	p.wseqRun = wseqRun
	p.zipf, p.wzipf = nil, nil
	if zipfIdx >= 0 {
		ph := &p.phases[zipfIdx]
		p.zipf = sim.NewZipf(p.g, int(ph.WorkingSetBlocks), zipfExp(ph.ZipfExponent))
	}
	if wzipfIdx >= 0 {
		ph := &p.phases[wzipfIdx]
		p.wzipf = sim.NewZipf(p.g, int(ph.WriteWorkingSetBlocks), zipfExp(ph.WriteZipfExponent))
	}
}

// EncodeState serializes the replay position; the recorded stream is
// shared configuration.
func (r *Replay) EncodeState(enc *ckpt.Encoder) {
	enc.Section("workload.Replay")
	enc.String(r.name)
	enc.Int(r.pos)
}

// DecodeState restores the replay position in place.
func (r *Replay) DecodeState(d *ckpt.Decoder) {
	d.Section("workload.Replay")
	name := d.String()
	pos := d.Int()
	if d.Err() != nil {
		return
	}
	if name != r.name {
		d.Failf("workload: replay name mismatch: checkpoint has %q, stack has %q", name, r.name)
		return
	}
	if pos < 0 || pos > len(r.reqs) {
		d.Failf("workload: replay position %d outside stream of %d requests", pos, len(r.reqs))
		return
	}
	r.pos = pos
}
