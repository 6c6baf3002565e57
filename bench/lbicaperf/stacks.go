package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"lbica/internal/array"
	"lbica/internal/block"
	"lbica/internal/engine"
	"lbica/internal/experiments"
	"lbica/internal/iostat"
	"lbica/internal/sim"
	"lbica/internal/workload"
)

// engineConfig mirrors experiments.Spec's engine configuration for a
// normalized spec: the seed, interval and cache geometry become engine knobs.
// The traced pass checks its results against sweep.Execute cell by cell, so a
// drift here shows up as failed cells.
func engineConfig(s experiments.Spec) engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.MonitorEvery = s.Interval
	if s.CacheMult != 1 {
		f := math.Min(math.Max(math.Round(float64(cfg.Cache.Sets)*s.CacheMult), 1), 1<<22)
		cfg.Cache.Sets = int(f)
		cfg.PrewarmBlocks = cfg.Cache.Sets * cfg.Cache.Ways
	}
	return cfg
}

// volumeConfig is volume vol's engine configuration: each volume is its own
// hardware, drawing from its own seed stream.
func volumeConfig(cfg engine.Config, s experiments.Spec, vol int) engine.Config {
	cfg.Seed = sim.Stream(s.Seed, vol)
	cfg.Volume = vol
	return cfg
}

// counters are the per-call tallies of the traced pass. Every cell runs with
// one worker, so one goroutine at a time touches them.
type counters struct {
	nextCalls  uint64
	nextDur    time.Duration
	admitCalls uint64
	admitDur   time.Duration
	hookDur    time.Duration
}

// countingGen counts and times every Next of the generator it wraps.
type countingGen struct {
	inner workload.Generator
	c     *counters
}

func (g *countingGen) Name() string { return g.inner.Name() }

func (g *countingGen) Next() (workload.Request, bool) {
	t := time.Now()
	r, ok := g.inner.Next()
	g.c.nextDur += time.Since(t)
	g.c.nextCalls++
	return r, ok
}

// HotBlocks forwards the prewarm set: engine.New and the array's volume
// filters find it by type assertion, so dropping it would change the run.
func (g *countingGen) HotBlocks(n int) []int64 {
	if h, ok := g.inner.(interface{ HotBlocks(int) []int64 }); ok {
		return h.HotBlocks(n)
	}
	return nil
}

// timedBalancer times the balancer it wraps: Admit per call, and its
// interval-close decision between two monitor hooks registered around the
// inner Attach (hooks fire in registration order).
type timedBalancer struct {
	inner engine.Balancer
	c     *counters
	t0    time.Time
}

func (b *timedBalancer) Name() string { return b.inner.Name() }

func (b *timedBalancer) Attach(st *engine.Stack) {
	st.Monitor().OnClose(func(iostat.Sample) { b.t0 = time.Now() })
	b.inner.Attach(st)
	st.Monitor().OnClose(func(iostat.Sample) { b.c.hookDur += time.Since(b.t0) })
}

func (b *timedBalancer) Admit(op block.Op, e block.Extent) bool {
	t := time.Now()
	ok := b.inner.Admit(op, e)
	b.c.admitDur += time.Since(t)
	b.c.admitCalls++
	return ok
}

// pass assembles and runs grid points by hand, the way experiments.RunContext
// does. The zero pass is untraced: it builds the stacks as they are. A traced
// pass wraps every generator and balancer, records spans around each layer
// call, and counts the simulator events of every stack it built.
type pass struct {
	tr  *tracer // nil: untraced
	cnt counters
	// built collects the current cell's stacks (traced only), for event counts.
	built []*engine.Stack
	// cell and buildParent place the spans of the cell being run: the grid
	// point's index, and the span a stack build nests under.
	cell, buildParent int
	barriers          int
}

func (p *pass) gen(s experiments.Spec) workload.Generator {
	g := experiments.NewGenerator(s)
	if p.tr == nil {
		return g
	}
	return &countingGen{inner: g, c: &p.cnt}
}

func (p *pass) newStack(cfg engine.Config, gen workload.Generator, s experiments.Spec) *engine.Stack {
	bal := experiments.NewBalancerWithThresholds(s.Scheme, s.Thresholds)
	if p.tr == nil {
		return engine.New(cfg, gen, bal)
	}
	if bal != nil {
		bal = &timedBalancer{inner: bal, c: &p.cnt}
	}
	sp := p.tr.begin("engine.build", p.buildParent, p.cell)
	st := engine.New(cfg, gen, bal)
	p.tr.end(sp)
	p.built = append(p.built, st)
	return st
}

// staticBuilder returns the build function of a statically routed array:
// every volume replays the base stream through its own router copy.
func (p *pass) staticBuilder(s experiments.Spec, cfg engine.Config, acfg array.Config) array.BuildFunc {
	return func(vol int) (*engine.Stack, error) {
		gen := array.VolumeGen(p.gen(s), acfg.NewRouter(s.Seed), vol)
		return p.newStack(volumeConfig(cfg, s, vol), gen, s), nil
	}
}

// staticConfig is a statically routed spec's array configuration: zipf
// routing when the spec sets a skew, uniform otherwise.
func staticConfig(s experiments.Spec) array.Config {
	pol := array.Uniform
	if s.RouteSkew > 0 {
		pol = array.Zipf
	}
	return array.Config{Volumes: s.Volumes, Policy: pol, Skew: s.RouteSkew, Workers: s.ShardWorkers}
}

func (p *pass) newControlled(ctx context.Context, s experiments.Spec, cfg engine.Config) (*array.Controlled, error) {
	variant, err := array.ParseVariant(s.RouteVariant)
	if err != nil {
		return nil, err
	}
	ccfg := array.ControllerConfig{Volumes: s.Volumes, Skew: s.RouteSkew, Seed: s.Seed, Variant: variant, Workers: s.ShardWorkers}
	return array.NewControlled(ctx, ccfg, s.Intervals, s.Interval, p.gen(s),
		func(vol int, gen workload.Generator) (*engine.Stack, error) {
			return p.newStack(volumeConfig(cfg, s, vol), gen, s), nil
		})
}

// build constructs every stack of a spec without running it — the set-up
// work of one cell.
func (p *pass) build(ctx context.Context, spec experiments.Spec) error {
	s := spec.Normalize()
	cfg := engineConfig(s)
	switch {
	case s.Volumes == 1:
		p.newStack(cfg, p.gen(s), s)
	case s.Scheme == experiments.SchemeArrayLB:
		if _, err := p.newControlled(ctx, s, cfg); err != nil {
			return err
		}
	default:
		b := p.staticBuilder(s, cfg, staticConfig(s))
		for v := 0; v < s.Volumes; v++ {
			b(v)
		}
	}
	return nil
}

// run executes grid point cell by hand and returns its results: single stacks
// step one monitor interval at a time, controlled arrays one barrier at a
// time, and static arrays go through array.Run.
func (p *pass) run(ctx context.Context, cell int, spec experiments.Spec) (*engine.Results, error) {
	s := spec.Normalize()
	cfg := engineConfig(s)
	clear(p.built)
	p.built = p.built[:0]
	cs := p.tr.begin("cell", -1, cell)
	defer p.tr.end(cs)
	p.cell, p.buildParent = cell, cs

	switch {
	case s.Volumes == 1:
		st := p.newStack(cfg, p.gen(s), s)
		st.Start(ctx, s.Intervals)
		for k := 1; k <= s.Intervals; k++ {
			sp := p.tr.begin("engine.step", cs, cell)
			st.StepTo(time.Duration(k) * s.Interval)
			p.tr.end(sp)
		}
		sp := p.tr.begin("engine.drain", cs, cell)
		st.Drain()
		p.tr.end(sp)
		return st.Collect(), ctx.Err()

	case s.Scheme == experiments.SchemeArrayLB:
		bs := p.tr.begin("array.build", cs, cell)
		p.buildParent = bs
		c, err := p.newControlled(ctx, s, cfg)
		p.tr.end(bs)
		if err != nil {
			return nil, err
		}
		for k := 1; k <= s.Intervals; k++ {
			sp := p.tr.begin("array.step", cs, cell)
			err := c.StepTo(ctx, k)
			p.tr.end(sp)
			if err != nil {
				return nil, err
			}
			p.barriers++
		}
		sp := p.tr.begin("array.finish", cs, cell)
		ares, err := c.Finish(ctx)
		p.tr.end(sp)
		if err != nil {
			return nil, err
		}
		return ares.Merged, nil

	default:
		acfg := staticConfig(s)
		rs := p.tr.begin("array.run", cs, cell)
		p.buildParent = rs
		ares, err := array.Run(ctx, acfg, s.Intervals, p.staticBuilder(s, cfg, acfg))
		p.tr.end(rs)
		if err != nil {
			return nil, fmt.Errorf("array run: %w", err)
		}
		return ares.Merged, nil
	}
}
