package iostat

import (
	"lbica/internal/block"
	"lbica/internal/ckpt"
)

// encodeSample serializes one closed sample, field for field in
// declaration order.
func encodeSample(enc *ckpt.Encoder, s Sample) {
	enc.Int(s.Interval)
	enc.Duration(s.Start)
	enc.Duration(s.End)
	enc.Int(s.SSDDepth)
	enc.Int(s.HDDDepth)
	enc.Int(s.SSDDepthMax)
	enc.Int(s.HDDDepthMax)
	enc.F64(s.SSDDepthAvg)
	enc.F64(s.HDDDepthAvg)
	enc.Duration(s.CacheLoad)
	enc.Duration(s.DiskLoad)
	enc.Duration(s.CacheQTime)
	enc.Duration(s.DiskQTime)
	enc.Bool(s.Bottleneck)
	encodeCensus(enc, s.Census)
	encodeCensus(enc, s.Arrivals)
	enc.U64(s.SSDCompleted)
	enc.U64(s.HDDCompleted)
	enc.Duration(s.SSDAwait)
	enc.Duration(s.HDDAwait)
	enc.Duration(s.SSDMaxLatency)
	enc.Duration(s.HDDMaxLat)
	enc.U64(s.AppCompleted)
	enc.Duration(s.AppAwait)
	enc.Duration(s.AppMaxLat)
}

func decodeSample(d *ckpt.Decoder) Sample {
	var s Sample
	s.Interval = d.Int()
	s.Start = d.Duration()
	s.End = d.Duration()
	s.SSDDepth = d.Int()
	s.HDDDepth = d.Int()
	s.SSDDepthMax = d.Int()
	s.HDDDepthMax = d.Int()
	s.SSDDepthAvg = d.F64()
	s.HDDDepthAvg = d.F64()
	s.CacheLoad = d.Duration()
	s.DiskLoad = d.Duration()
	s.CacheQTime = d.Duration()
	s.DiskQTime = d.Duration()
	s.Bottleneck = d.Bool()
	s.Census = decodeCensus(d)
	s.Arrivals = decodeCensus(d)
	s.SSDCompleted = d.U64()
	s.HDDCompleted = d.U64()
	s.SSDAwait = d.Duration()
	s.HDDAwait = d.Duration()
	s.SSDMaxLatency = d.Duration()
	s.HDDMaxLat = d.Duration()
	s.AppCompleted = d.U64()
	s.AppAwait = d.Duration()
	s.AppMaxLat = d.Duration()
	return s
}

func encodeCensus(enc *ckpt.Encoder, c block.Census) {
	for _, v := range c {
		enc.Int(v)
	}
}

func decodeCensus(d *ckpt.Decoder) block.Census {
	var c block.Census
	for i := range c {
		c[i] = d.Int()
	}
	return c
}

// EncodeState serializes the monitor: every closed sample plus the full
// open-interval accumulator set. The queue readers and OnClose hooks are wiring the restoring stack already
// has.
func (m *Monitor) EncodeState(enc *ckpt.Encoder) {
	enc.Section("iostat.Monitor")
	enc.U32(uint32(len(m.samples)))
	for _, s := range m.samples {
		encodeSample(enc, s)
	}
	enc.Int(m.idx)
	enc.Duration(m.start)
	for t := 0; t < int(numTiers); t++ {
		enc.Int(m.depthMax[t])
		enc.U64(m.completed[t])
		m.await[t].EncodeState(enc)
		enc.Int(m.lastDepth[t])
		enc.Duration(m.lastChange[t])
		enc.F64(m.depthWeight[t])
	}
	encodeCensus(enc, m.censusAtMax)
	enc.U64(m.appDone)
	m.appLat.EncodeState(enc)
	encodeCensus(enc, m.prevArrivals)
}

// DecodeState restores the monitor in place.
func (m *Monitor) DecodeState(d *ckpt.Decoder) {
	d.Section("iostat.Monitor")
	n := d.Count(8)
	if d.Err() != nil {
		return
	}
	var samples []Sample
	if n > 0 {
		samples = make([]Sample, 0, n)
	}
	for i := 0; i < n; i++ {
		samples = append(samples, decodeSample(d))
		if d.Err() != nil {
			return
		}
	}
	m2 := *m
	m2.samples = samples
	m2.idx = d.Int()
	m2.start = d.Duration()
	for t := 0; t < int(numTiers); t++ {
		m2.depthMax[t] = d.Int()
		m2.completed[t] = d.U64()
		m2.await[t].DecodeState(d)
		m2.lastDepth[t] = d.Int()
		m2.lastChange[t] = d.Duration()
		m2.depthWeight[t] = d.F64()
	}
	m2.censusAtMax = decodeCensus(d)
	m2.appDone = d.U64()
	m2.appLat.DecodeState(d)
	m2.prevArrivals = decodeCensus(d)
	if d.Err() != nil {
		return
	}
	*m = m2
}
