package lbica

import (
	"bytes"
	"context"
	"testing"
)

// FuzzLoadOptions: whatever a -config file holds, loading it, translating
// it into a spec and running it must return an error or a report, never
// panic or exhaust memory. The run goes under an already-cancelled
// context, which still builds every stack and reserves its series but
// simulates no request, so the target covers every allocation a config
// can size. The committed corpus holds the config forms of inputs that
// once crashed, hung or misran lbicasim: 10^8 intervals, a 10^12 rate
// factor, a phase of 2^31−1 working-set blocks, an interval length whose
// run span overflows the clock, and a phase at 10^-12 IOPS, whose arrival
// gap overflowed.
func FuzzLoadOptions(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"workload":"mail","scheme":"sib","intervals":4,"cache_mib":64,"cache_ways":4,"replacement":"fifo"}`))
	f.Add([]byte(`{"workload":"tpcc","scheme":"array-lb","volumes":3,"route_skew":1.2,"route_variant":"p2c","intervals":4}`))
	f.Add([]byte(`{"scheme":"lbica","intervals":4,"thresholds":{"member_min":0.1,"min_queued":8}}`))
	f.Add([]byte(`{"name":"spike","intervals":4,"interval_length":"100ms","phases":[{"duration":"1s","base_iops":1000,
		"burst_iops":5000,"burst_on":"50ms","burst_off":"100ms","read_ratio":0.7,"working_set_blocks":1024,
		"sizes_sectors":[8,16],"write_working_set_blocks":64,"write_base_block":4096}]}`))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := LoadOptions(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := toSpec(o); err != nil {
			return
		}
		if rep, err := RunContext(ctx, o); rep == nil && err == nil {
			t.Fatalf("RunContext(%+v) returned neither a report nor an error", o)
		}
	})
}
