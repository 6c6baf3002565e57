// Package core implements LBICA — the paper's contribution: an I/O cache
// load balancer that (1) detects burst intervals by comparing the Eq. 1
// queue-time estimates of the SSD cache and the disk subsystem, (2)
// characterizes the running workload from the types of requests sitting in
// the SSD queue (R/W/P/E), and (3) assigns an adaptive cache write policy:
//
//	Group 1 (random read, R+P dominant)      → WO: stop promoting misses
//	Group 2 (mixed read/write, R+W dominant) → RO: bypass writes to disk
//	Group 3 (write intensive, W+E dominant)  → WB + bypass the queue tail
//	Group 4 (sequential read, P dominant)    → WB: the cache is never the
//	                                           bottleneck on streaming misses
//
// When the burst subsides the policy reverts to WB. Unlike SIB, no
// per-request cost estimation runs on the hot path: the policy switch is
// O(1) per interval and the only per-request work is a queue-depth
// comparison for Group 3 tail admission.
package core

import (
	"fmt"

	"lbica/internal/block"
	"lbica/internal/cache"
	"lbica/internal/engine"
	"lbica/internal/iostat"
	"lbica/internal/stats"
)

// Group is LBICA's workload classification (paper §III-B).
type Group int

// Workload groups.
const (
	// GroupUnknown means the census matched no group; LBICA leaves the
	// current policy in place.
	GroupUnknown Group = iota
	// Group1RandomRead: mostly application reads plus promotes.
	Group1RandomRead
	// Group2MixedRW: mostly application reads and writes.
	Group2MixedRW
	// Group3RandomWrite: mostly writes and evicts, writes dominating.
	Group3RandomWrite
	// Group3SeqWrite: mostly writes and evicts, evicts dominating.
	Group3SeqWrite
	// Group4SeqRead: almost all promotes (streaming misses).
	Group4SeqRead
)

var groupNames = map[Group]string{
	GroupUnknown:      "unknown",
	Group1RandomRead:  "G1/random-read",
	Group2MixedRW:     "G2/mixed-rw",
	Group3RandomWrite: "G3/random-write",
	Group3SeqWrite:    "G3/seq-write",
	Group4SeqRead:     "G4/seq-read",
}

func (g Group) String() string {
	if s, ok := groupNames[g]; ok {
		return s
	}
	return fmt.Sprintf("Group(%d)", int(g))
}

// Policy returns the cache write policy LBICA assigns to the group
// (paper §III-C). GroupUnknown maps to WB.
func (g Group) Policy() cache.Policy {
	switch g {
	case Group1RandomRead:
		return cache.WO
	case Group2MixedRW:
		return cache.RO
	default:
		return cache.WB
	}
}

// Thresholds tune the census classifier. The paper says each group
// "mainly includes" its two request types; these defaults make the quoted
// evaluation mixes land in their intended groups and are unit-tested
// against every mix the paper publishes.
type Thresholds struct {
	// DominantPair is the minimum combined share of the group's two
	// request types.
	DominantPair float64
	// MemberMin is the minimum individual share of each member of the
	// pair (except Group 3's E, which may be small when the flusher is
	// idle).
	MemberMin float64
	// PromoteAlone is the promote share that classifies Group 4 on its
	// own.
	PromoteAlone float64
	// ReadAlone is the application-read share that classifies Group 1 on
	// its own. Once WO is in force promotes stop appearing in the queue,
	// so a random-read burst's census degenerates to nearly pure R; this
	// rule keeps the classification stable under LBICA's own feedback.
	ReadAlone float64
	// MinQueued is the minimum census population worth classifying; a
	// near-drained queue's mix is noise, not workload character.
	MinQueued int
}

// DefaultThresholds returns the calibrated defaults.
func DefaultThresholds() Thresholds {
	return Thresholds{
		DominantPair: 0.65,
		MemberMin:    0.12,
		PromoteAlone: 0.60,
		ReadAlone:    0.75,
		MinQueued:    24,
	}
}

// Normalize fills zero fields with the calibrated paper defaults and
// returns the result — the contract behind the public Thresholds knob
// (lbica.Options.Thresholds / experiments.Spec.Thresholds): callers
// override only the fields they set, and the zero value is exactly
// DefaultThresholds. Call Validate first on user-supplied values; negative
// fields pass through Normalize unchanged so validation can reject them.
func (t Thresholds) Normalize() Thresholds {
	d := DefaultThresholds()
	if t.DominantPair == 0 {
		t.DominantPair = d.DominantPair
	}
	if t.MemberMin == 0 {
		t.MemberMin = d.MemberMin
	}
	if t.PromoteAlone == 0 {
		t.PromoteAlone = d.PromoteAlone
	}
	if t.ReadAlone == 0 {
		t.ReadAlone = d.ReadAlone
	}
	if t.MinQueued == 0 {
		t.MinQueued = d.MinQueued
	}
	return t
}

// Validate reports the first invalid field. Zero means "use the paper
// default" (Normalize); the share fields must otherwise be fractions in
// (0, 1], and MinQueued a positive count. Negatives are never clamped —
// a silently rewritten threshold would run a different classifier than
// the one the caller asked for.
func (t Thresholds) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"DominantPair", t.DominantPair},
		{"MemberMin", t.MemberMin},
		{"PromoteAlone", t.PromoteAlone},
		{"ReadAlone", t.ReadAlone},
	} {
		// NaN fails both comparisons' complements: require an explicit
		// in-range check so non-finite garbage cannot reach the classifier.
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("core: threshold %s = %v outside [0, 1] (0 means the paper default)", f.name, f.v)
		}
	}
	if t.MinQueued < 0 {
		return fmt.Errorf("core: threshold MinQueued = %d negative (0 means the paper default)", t.MinQueued)
	}
	return nil
}

// Classify buckets an SSD-queue census into a workload group.
func Classify(c block.Census, th Thresholds) Group {
	total := c.Total()
	if total < th.MinQueued {
		return GroupUnknown
	}
	r := c.Ratio(block.AppRead)
	w := c.Ratio(block.AppWrite)
	p := c.Ratio(block.Promote)
	e := c.Ratio(block.Evict)

	// Order matters: a pure-promote queue is Group 4 even though R+P would
	// also clear the pair threshold.
	if p >= th.PromoteAlone {
		return Group4SeqRead
	}
	if r+p >= th.DominantPair && r >= th.MemberMin && p >= th.MemberMin {
		return Group1RandomRead
	}
	if th.ReadAlone > 0 && r >= th.ReadAlone {
		return Group1RandomRead
	}
	if r+w >= th.DominantPair && r >= th.MemberMin && w >= th.MemberMin {
		return Group2MixedRW
	}
	if w+e >= th.DominantPair && w >= th.MemberMin {
		if w >= e {
			return Group3RandomWrite
		}
		return Group3SeqWrite
	}
	// R+E- or W+P-dominant mixes "may not occur during a workload
	// execution" (paper §III-B); everything else is unknown.
	return GroupUnknown
}

// Config parameterizes the balancer.
type Config struct {
	Thresholds Thresholds
	// BurstOn is how many consecutive bottleneck intervals arm the
	// balancer; BurstOff is how many clear intervals revert it to WB.
	// Hysteresis prevents policy thrashing between adjacent intervals.
	BurstOn  int
	BurstOff int
	// TailBypass enables the Group-3 bypass machinery — both the one-shot
	// redirection of the queued tail at detection time and the continuous
	// admission bypass of writes arriving beyond the bottleneck threshold.
	// On by default; the ablation harness turns it off.
	TailBypass bool
	// Recharacterize re-runs classification on every bottleneck interval
	// while armed, letting the policy follow phase changes (on by
	// default).
	Recharacterize bool
	// HoldUtilization keeps the balancer armed, even when Eq. 1 reads
	// clear, while the application's offered load would occupy at least
	// this fraction of the SSD's service capacity. Without a hold the
	// controller oscillates: the assigned policy drains the SSD queue,
	// the burst signal disappears, the policy reverts to WB, and the
	// queue refills. The paper leaves the revert rule unspecified; this
	// demand-based hold is our stabilization, documented in DESIGN.md.
	// Zero disables the hold.
	HoldUtilization float64
}

// DefaultConfig returns the calibrated defaults.
func DefaultConfig() Config {
	return Config{
		Thresholds:      DefaultThresholds(),
		BurstOn:         1,
		BurstOff:        4,
		TailBypass:      true,
		Recharacterize:  true,
		HoldUtilization: 0.40,
	}
}

// LBICA is the load balancer. It implements engine.Balancer.
type LBICA struct {
	cfg Config
	st  *engine.Stack

	burstRun int
	clearRun int
	armed    bool
	group    Group

	// decision counters, exposed for tests and the experiment harness
	bursts      int
	reverts     int
	tailBypass  int
	lastApplied cache.Policy

	// demandEWMA smooths the offered-load estimate across intervals so a
	// single OFF-period-heavy interval cannot trigger a revert.
	demandEWMA stats.EWMA

	// Counter snapshots for census reconstruction: once a policy diverts
	// traffic away from the SSD queue, the diverted requests no longer
	// appear in the queue census, which would make the classifier misread
	// its own feedback as a workload change. The deltas below restore
	// them before classification.
	prevWrites     uint64
	prevReadMisses uint64
	prevBypassed   uint64
}

// New builds an LBICA balancer.
func New(cfg Config) *LBICA {
	if cfg.BurstOn < 1 {
		cfg.BurstOn = 1
	}
	if cfg.BurstOff < 1 {
		cfg.BurstOff = 1
	}
	return &LBICA{
		cfg:         cfg,
		group:       GroupUnknown,
		lastApplied: cache.WB,
		demandEWMA:  stats.EWMA{Alpha: 0.3},
	}
}

// Name implements engine.Balancer.
func (l *LBICA) Name() string { return "LBICA" }

// Group returns the current classification (GroupUnknown when not armed).
func (l *LBICA) Group() Group { return l.group }

// Reverts returns how many times the policy reverted to WB.
func (l *LBICA) Reverts() int { return l.reverts }

// TailBypassed returns how many queued requests the Group-3 rule moved.
func (l *LBICA) TailBypassed() int { return l.tailBypass }

// Attach implements engine.Balancer.
func (l *LBICA) Attach(st *engine.Stack) {
	l.st = st
	st.Cache().SetPolicy(cache.WB)
	st.Monitor().OnClose(l.onSample)
}

// Fresh implements engine.FreshBalancer: an unattached balancer with this
// one's configuration, the sibling engine.Stack.Fork decodes its state
// onto.
func (l *LBICA) Fresh() engine.Balancer { return New(l.cfg) }

func (l *LBICA) onSample(s iostat.Sample) {
	l.demandEWMA.Add(l.demandUtil(s))
	adjusted := l.reconstructCensus(s)
	if !s.Bottleneck {
		l.burstRun = 0
		if l.armed && l.cfg.HoldUtilization > 0 && l.demandEWMA.Value() >= l.cfg.HoldUtilization {
			// The queue reads clear only because the assigned policy keeps
			// shedding load; the offered load would re-congest a WB cache,
			// so the burst itself is still live.
			l.clearRun = 0
			return
		}
		l.clearRun++
		if l.armed && l.clearRun >= l.cfg.BurstOff {
			l.disarm()
		}
		return
	}
	l.clearRun = 0
	l.burstRun++
	if l.burstRun < l.cfg.BurstOn {
		return
	}
	if l.armed && !l.cfg.Recharacterize {
		return
	}
	l.bursts++
	g := Classify(adjusted, l.cfg.Thresholds)
	l.apply(g, s)
}

// demandUtil estimates the fraction of the SSD's service capacity the
// interval's application demand would occupy if it all flowed through the
// cache — the projection behind the revert decision.
func (l *LBICA) demandUtil(s iostat.Sample) float64 {
	span := s.End - s.Start
	if span <= 0 {
		return 0
	}
	return float64(s.AppCompleted) * float64(l.st.SSDLatency()) / float64(span)
}

// reconstructCensus restores the requests the active policy diverted away
// from the SSD queue: suppressed promotes under WO, bypassed writes under
// RO or a Group-3 WB. Without the correction, the classifier would read
// its own load-shedding as a workload change (e.g. a write burst under RO
// leaves a read-only queue behind). The base census is the interval's
// arrival census, which shares units with the per-interval diversion
// deltas.
func (l *LBICA) reconstructCensus(s iostat.Sample) block.Census {
	cst := l.st.Cache().Stats()
	byp := l.st.Bypassed()
	adj := s.Arrivals
	if l.armed {
		switch l.lastApplied {
		case cache.WO:
			adj[block.Promote] += int(cst.ReadMisses - l.prevReadMisses)
		case cache.RO:
			adj[block.AppWrite] += int(cst.Writes - l.prevWrites)
		default:
			adj[block.AppWrite] += int(byp - l.prevBypassed)
		}
	}
	l.prevWrites = cst.Writes
	l.prevReadMisses = cst.ReadMisses
	l.prevBypassed = byp
	return adj
}

func (l *LBICA) apply(g Group, s iostat.Sample) {
	if g == GroupUnknown {
		// Keep whatever is in force; an unreadable census is no reason to
		// churn the policy.
		l.armed = true
		return
	}
	l.group = g
	p := g.Policy()
	if p != l.lastApplied {
		l.st.Cache().SetPolicy(p)
		l.st.NotePolicy(p, g.String())
		l.lastApplied = p
	}
	l.armed = true

	if (g == Group3RandomWrite || g == Group3SeqWrite) && l.cfg.TailBypass {
		l.tailBypass += l.st.RedirectTail(l.keepThreshold())
	}
}

func (l *LBICA) disarm() {
	l.armed = false
	l.group = GroupUnknown
	if l.lastApplied != cache.WB {
		l.st.Cache().SetPolicy(cache.WB)
		l.st.NotePolicy(cache.WB, "revert")
		l.lastApplied = cache.WB
	}
}

// keepThreshold is the bottleneck position: queue slots whose estimated
// wait (Eq. 1 per position) still beats what the disk subsystem would
// offer right now. Requests beyond it are better served by the disk.
func (l *LBICA) keepThreshold() int {
	disk := float64(l.st.HDDQueue().Depth()+1) * float64(l.st.HDDLatency())
	keep := int(disk / float64(l.st.SSDLatency()))
	if keep < 1 {
		keep = 1
	}
	return keep
}

// Admit implements engine.Balancer: during an armed Group-3 burst, writes
// arriving beyond the bottleneck threshold go straight to the disk
// subsystem; everything else flows through the cache. O(1) per request —
// the design point the paper contrasts against SIB's per-request cost
// estimation.
func (l *LBICA) Admit(op block.Op, e block.Extent) bool {
	if !l.armed || op != block.Write || !l.cfg.TailBypass {
		return true
	}
	if l.group != Group3RandomWrite && l.group != Group3SeqWrite {
		return true
	}
	return l.st.SSDQueue().Depth() <= l.keepThreshold()
}
