package main

import "time"

// The benchmark runs on shared virtual machines, where the host runs other
// machines on the same cores: for stretches of seconds to minutes it runs
// this process's processors only part of the time, and the guest does not
// see it, so the lost time reads as processor time. A rep's processor time
// doubled within minutes on the host the README describes, though the
// program did the same work.
//
// The host probe measures that: a fixed loop of four independent
// multiply-xor-shift chains, bound by the core's arithmetic throughput and
// touching no memory, so its rate depends only on how much of the time the
// host runs it. It runs in slices between the runs of a rep, each slice
// probeShare as long as the processor time since the last one, so it samples
// the host throughout the stretch it corrects. A timing is corrected to what
// it would read on an idle host by multiplying it by the probe's rate over
// the stretch divided by idleProbeRate. The probe is the benchmark's own
// code, so a change to the program cannot move it.
const (
	probeShare    = 0.3
	probeChunk    = 1 << 18 // steps between clock reads, 0.3 ms on an idle host
	idleProbeRate = 7.4e8   // steps per second on an idle host: the fastest seen on the README's VM
)

var probeSink uint64

// hostProbe accumulates the probe slices run over one measured stretch.
type hostProbe struct {
	steps   float64
	elapsed time.Duration
}

// sample runs one probe slice of about probeShare × measured, at least one
// chunk. It times the slice by the wall clock: the slice runs on one thread,
// and the collector's work on the other processor must not count against it.
func (p *hostProbe) sample(measured time.Duration) {
	budget := time.Duration(probeShare * float64(measured))
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	t0 := time.Now()
	for {
		for range probeChunk {
			a = a*0x9E3779B97F4A7C15 ^ a>>29
			b = b*0xBF58476D1CE4E5B9 ^ b>>27
			c = c*0x94D049BB133111EB ^ c>>31
			d = d*0xD6E8FEB86659FD93 ^ d>>33
		}
		p.steps += probeChunk
		if time.Since(t0) >= budget {
			break
		}
	}
	p.elapsed += time.Since(t0)
	probeSink += a + b + c + d
}

// speed is the probe's rate over the sampled stretch as a share of its rate
// on an idle host: the factor that corrects a timing of the stretch.
func (p *hostProbe) speed() float64 {
	return p.steps / p.elapsed.Seconds() / idleProbeRate
}
