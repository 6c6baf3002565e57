package core

import (
	"lbica/internal/cache"
	"lbica/internal/ckpt"
)

// EncodeState serializes the balancer's classifier state — all plain
// values: burst/clear runs, arming, group,
// decision counters, the demand EWMA, and the census-reconstruction
// counter snapshots. cfg and the stack handle are configuration.
func (l *LBICA) EncodeState(enc *ckpt.Encoder) {
	enc.Section("core.LBICA")
	enc.Int(l.burstRun)
	enc.Int(l.clearRun)
	enc.Bool(l.armed)
	enc.Int(int(l.group))
	enc.Int(l.bursts)
	enc.Int(l.reverts)
	enc.Int(l.tailBypass)
	enc.U8(uint8(l.lastApplied))
	l.demandEWMA.EncodeState(enc)
	enc.U64(l.prevWrites)
	enc.U64(l.prevReadMisses)
	enc.U64(l.prevBypassed)
}

// DecodeState restores the classifier in place on an attached balancer.
// The restored lastApplied is advisory only — the cache's own policy
// rides in the cache section; this field keeps the change-detection in
// apply/disarm consistent with it.
func (l *LBICA) DecodeState(d *ckpt.Decoder) {
	d.Section("core.LBICA")
	burstRun := d.Int()
	clearRun := d.Int()
	armed := d.Bool()
	group := Group(d.Int())
	bursts := d.Int()
	reverts := d.Int()
	tailBypass := d.Int()
	lastApplied := cache.Policy(d.U8())
	l.demandEWMA.DecodeState(d)
	prevWrites := d.U64()
	prevReadMisses := d.U64()
	prevBypassed := d.U64()
	if d.Err() != nil {
		return
	}
	if group < GroupUnknown || group > Group4SeqRead {
		d.Failf("core: invalid workload group %d", int(group))
		return
	}
	l.burstRun = burstRun
	l.clearRun = clearRun
	l.armed = armed
	l.group = group
	l.bursts = bursts
	l.reverts = reverts
	l.tailBypass = tailBypass
	l.lastApplied = lastApplied
	l.prevWrites = prevWrites
	l.prevReadMisses = prevReadMisses
	l.prevBypassed = prevBypassed
}
