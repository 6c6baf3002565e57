package array

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lbica/internal/engine"
	"lbica/internal/runner"
	"lbica/internal/workload"
)

// FeedBuildFunc assembles volume vol's stack over gen, the controller's
// feed for that volume, with the run's monitor interval.
type FeedBuildFunc func(vol int, gen workload.Generator) (*engine.Stack, error)

// Controlled is a resumable array run: Volumes stacks advancing in
// lockstep, one monitor interval per round, with the controller pulling
// the one base stream and routing each request once, into its volume's
// feed, at every interval barrier. NewStatic builds a statically routed
// run, whose router never reweights; NewAdaptive builds an array-lb run,
// which also observes every volume's load, reweights and migrates at each
// barrier. Both return the run unstarted: Start arms it at time zero, and
// Decode restores a barrier checkpoint onto it instead (ckpt.go). StepTo
// advances the run round by round and Finish runs the remainder and
// collects. Between StepTo calls the whole array is parked at an interval
// barrier.
//
// Determinism contract: the controller routes requests and makes every
// decision serially, between rounds, from state the barrier freezes —
// each volume's closed interval Sample and the controller's own arrival
// counts. Within a round the shard workers touch only their own volume's
// stack, and the round's join orders every volume's round-N writes before
// the controller's round-N reads (and the controller's writes before
// every round-N+1 read). Merged output is therefore byte-identical for
// every Workers value, including Workers == 1. A static run is also
// byte-identical to Run over VolumeGen: one router draws exactly what the
// sibling copies drew in lockstep, and stepping a stack at interval
// barriers matches running it straight through.
type Controlled struct {
	cfg          ControllerConfig // validated; only Volumes and Workers under static routing
	intervals    int
	monitorEvery time.Duration

	base   workload.Generator
	feeds  []*feedGen
	stacks []*engine.Stack

	// Routing: exactly one is set. A static run never observes,
	// reweights or migrates.
	static *Router
	rt     *adaptiveRouter

	// array-lb only: per-volume, per-interval arrival counts by 4 KiB
	// block — the controller's hotness signal for the migration pick —
	// and the loads the barrier reads.
	counts []map[int64]uint64
	loads  []float64

	// One-request lookahead over the base stream: route everything that
	// arrives strictly before the deadline (a request at exactly the
	// boundary belongs to the next interval, after the controller acted).
	pending    workload.Request
	hasPending bool

	next   int   // 1-based index of the next interval round to execute
	runErr error // sticky: first cancellation
}

// NewStatic builds a statically routed array run over one base stream:
// one cfg.NewRouter(seed) routes every request once. The run is built but
// not started: Start it, or Decode a barrier checkpoint onto it. build
// must assemble volume vol's stack over gen with MonitorEvery equal to
// monitorEvery.
func NewStatic(cfg Config, seed int64, intervals int, monitorEvery time.Duration, base workload.Generator, build FeedBuildFunc) (*Controlled, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controlled{
		cfg:    ControllerConfig{Volumes: cfg.Volumes, Workers: cfg.Workers},
		static: cfg.NewRouter(seed),
	}
	if err := c.build(intervals, monitorEvery, base, build); err != nil {
		return nil, err
	}
	return c, nil
}

// NewAdaptive builds an array-lb run over one base stream: the
// controller's adaptive router routes every request once and reweights
// and migrates at each barrier. The run is built but not started: Start
// it, or Decode a barrier checkpoint onto it. build must assemble volume
// vol's stack over gen with MonitorEvery equal to monitorEvery.
func NewAdaptive(cfg ControllerConfig, intervals int, monitorEvery time.Duration, base workload.Generator, build FeedBuildFunc) (*Controlled, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controlled{
		cfg:    cfg,
		rt:     newAdaptiveRouter(cfg),
		counts: make([]map[int64]uint64, cfg.Volumes),
		loads:  make([]float64, cfg.Volumes),
	}
	for v := range c.counts {
		c.counts[v] = make(map[int64]uint64)
	}
	if err := c.build(intervals, monitorEvery, base, build); err != nil {
		return nil, err
	}
	return c, nil
}

// NewControlled is NewAdaptive followed by Start.
func NewControlled(ctx context.Context, cfg ControllerConfig, intervals int, monitorEvery time.Duration, base workload.Generator,
	build FeedBuildFunc) (*Controlled, error) {
	c, err := NewAdaptive(cfg, intervals, monitorEvery, base, build)
	if err != nil {
		return nil, err
	}
	c.Start(ctx)
	return c, nil
}

// build assembles every volume's stack over its feed. The volumes prewarm
// from one shared list, dropped once the last volume is built.
func (c *Controlled) build(intervals int, monitorEvery time.Duration, base workload.Generator, build FeedBuildFunc) error {
	if intervals < 1 {
		intervals = 1
	}
	if monitorEvery <= 0 {
		monitorEvery = 200 * time.Millisecond
	}
	n := c.cfg.Volumes
	c.intervals, c.monitorEvery, c.base, c.next = intervals, monitorEvery, base, 1
	c.feeds = make([]*feedGen, n)
	c.stacks = make([]*engine.Stack, n)
	hot := &hotList{}
	hot.src, _ = base.(interface{ HotBlocks(int) []int64 })
	if c.static != nil && c.static.policy == Hash {
		hot.hash = c.static
	}
	for v := range c.stacks {
		c.feeds[v] = &feedGen{name: base.Name(), vol: v, hot: hot}
		st, err := build(v, c.feeds[v])
		if err != nil {
			return fmt.Errorf("array: building volume %d: %w", v, err)
		}
		c.stacks[v] = st
	}
	for _, f := range c.feeds {
		f.hot = nil
	}
	return nil
}

// Start arms every volume and draws the one-request lookahead from the
// base stream. A run must be started, or have a barrier checkpoint
// decoded onto it, exactly once before StepTo or Finish.
func (c *Controlled) Start(ctx context.Context) {
	for _, st := range c.stacks {
		st.Start(ctx, c.intervals)
	}
	c.pending, c.hasPending = c.base.Next()
}

// routeBefore routes every base-stream request arriving strictly before
// deadline into its volume's feed.
func (c *Controlled) routeBefore(deadline time.Duration) {
	for c.hasPending && c.pending.At < deadline {
		var v int
		if c.rt == nil {
			v = c.static.Route(c.pending)
		} else {
			v = c.rt.route(c.pending)
			c.counts[v][c.pending.Extent.LBA/workload.BlockSectors]++
		}
		c.feeds[v].push(c.pending)
		c.pending, c.hasPending = c.base.Next()
	}
}

// StepTo executes interval rounds up to and including interval (clamped
// to the run length), leaving every volume parked at the interval barrier
// with the controller's decisions for that barrier applied. Its shard
// workers start once per call and exit before it returns. Errors are
// sticky: once a round fails (cancellation is the only source), further
// StepTo calls return the same error without advancing.
func (c *Controlled) StepTo(ctx context.Context, interval int) error {
	p := c.newPool()
	defer p.stop()
	return c.stepTo(ctx, interval, p)
}

func (c *Controlled) stepTo(ctx context.Context, interval int, p *shardPool) error {
	if interval > c.intervals {
		interval = c.intervals
	}
	for c.runErr == nil {
		if c.runErr = ctx.Err(); c.runErr != nil || c.next > interval {
			break
		}
		deadline := time.Duration(c.next) * c.monitorEvery
		c.routeBefore(deadline)
		p.round(deadline)
		// A cut round is no barrier: neither adapt nor advance past it.
		if c.runErr = ctx.Err(); c.runErr != nil {
			break
		}
		// Barrier: every volume is parked at deadline with the previous
		// interval's sample closed.
		if c.rt != nil {
			c.adapt()
		}
		c.next++
	}
	return c.runErr
}

// Finish runs the remaining interval rounds, drains the requests still in
// flight at the last barrier, and collects the merged results. The base
// stream's remainder past the last interval is never routed: a stack
// submits nothing at or after its horizon (engine.Stack.Run). The
// per-volume results land in Results.PerVolume exactly as for Run; on
// cancellation only whole volumes are kept. Finish releases every volume
// stack (engine.Stack.Release): the run cannot step or finish again.
func (c *Controlled) Finish(ctx context.Context) (*Results, error) {
	p := c.newPool()
	runErr := c.stepTo(ctx, c.intervals, p)
	if runErr == nil {
		p.round(-1)
		runErr = ctx.Err()
	}
	p.stop()
	if runErr != nil {
		// Cancelled: drain in-flight work only — the stacks' halted event
		// chains stop on their own.
		for _, st := range c.stacks {
			st.Drain()
		}
	}

	per := make([]*engine.Results, len(c.stacks))
	for v, st := range c.stacks {
		res := st.Collect()
		st.Release()
		res.Volume = v
		// Same partial rule as Run: a cancellation that still let the
		// volume close every interval changed nothing; volumes stopped
		// short are dropped.
		if runErr != nil && len(res.Samples) < c.intervals {
			continue
		}
		per[v] = res
	}
	return &Results{Volumes: len(c.stacks), Merged: Merge(per), PerVolume: per}, runErr
}

// BalancerActed reports whether any volume's balancer has observably
// acted on the run so far (engine.Stack.BalancerActed).
func (c *Controlled) BalancerActed() bool {
	for _, st := range c.stacks {
		if st.BalancerActed() {
			return true
		}
	}
	return false
}

// feedGen is the refillable per-volume generator under a controlled run:
// the controller routes each interval's slice of the base stream into the
// owning volume's feed before stepping it. While the run is built, its
// HotBlocks serves the run's one prewarm list.
type feedGen struct {
	name string
	vol  int
	hot  *hotList // nil once every volume is built
	reqs []workload.Request
	pos  int
}

func (f *feedGen) Name() string { return f.name }

func (f *feedGen) Next() (workload.Request, bool) {
	if f.pos >= len(f.reqs) {
		return workload.Request{}, false
	}
	r := f.reqs[f.pos]
	f.pos++
	return r, true
}

func (f *feedGen) HotBlocks(n int) []int64 {
	if f.hot == nil {
		return nil
	}
	return f.hot.blocks(n, f.vol)
}

func (f *feedGen) push(r workload.Request) {
	if f.pos == len(f.reqs) {
		// The volume consumed everything queued so far; recycle the slice
		// so a long run doesn't retain the whole routed stream.
		f.reqs = f.reqs[:0]
		f.pos = 0
	}
	f.reqs = append(f.reqs, r)
}

// hotList is a controlled run's one read-only prewarm list: the base
// generator's HotBlocks, built once for every volume. Under uniform and
// zipf routing any block may be routed anywhere, so every volume prewarms
// the same hottest set. Under hash routing a volume prewarms only the
// blocks that route to it, taken from the Volumes × n hottest, as
// VolumeGen does.
type hotList struct {
	src  interface{ HotBlocks(int) []int64 }
	hash *Router // static hash routing; nil otherwise
	n    int     // the length list was requested at
	list []int64
}

func (h *hotList) blocks(n, vol int) []int64 {
	if h.src == nil {
		return nil
	}
	want := n
	if h.hash != nil {
		want = n * h.hash.n
	}
	if h.list == nil || h.n != want {
		h.list, h.n = h.src.HotBlocks(want), want
	}
	if h.hash == nil {
		return h.list
	}
	out := make([]int64, 0, n)
	for _, b := range h.list {
		if h.hash.RouteBlock(b) != vol {
			continue
		}
		out = append(out, b)
		if len(out) == n {
			break
		}
	}
	return out
}

// shardPool steps a controlled run's volumes for one StepTo or Finish
// call. The caller is one of its workers; the others start on the first
// round, take each round's deadline, claim volumes until none is left,
// and exit when stop joins them, so no worker outlives the call. When the
// pool resolves to one worker, the volumes step serially on the caller. A
// volume's panic is re-raised on the caller once every worker has exited,
// as runner.Map does.
type shardPool struct {
	stacks  []*engine.Stack
	workers int

	rounds chan time.Duration // nil until the first round
	next   atomic.Int64       // the next volume to claim this round
	done   sync.WaitGroup     // the current round's helper workers
	exited sync.WaitGroup

	mu       sync.Mutex
	panicked bool
	panicVal any
}

func (c *Controlled) newPool() *shardPool {
	return &shardPool{stacks: c.stacks, workers: runner.Options{Workers: c.cfg.Workers}.PoolSize(len(c.stacks))}
}

// stepVolume advances one volume to deadline, or drains its in-flight
// requests when deadline < 0.
func stepVolume(st *engine.Stack, deadline time.Duration) {
	st.ResumeArrivals()
	if deadline < 0 {
		st.Drain()
		return
	}
	st.StepTo(deadline)
}

// round steps every volume to deadline and returns once all of them are
// parked there.
func (p *shardPool) round(deadline time.Duration) {
	if p.workers == 1 {
		for _, st := range p.stacks {
			stepVolume(st, deadline)
		}
		return
	}
	helpers := p.workers - 1
	if p.rounds == nil {
		p.rounds = make(chan time.Duration)
		p.exited.Add(helpers)
		for range helpers {
			go p.work()
		}
	}
	p.next.Store(0)
	p.done.Add(helpers)
	for range helpers {
		p.rounds <- deadline
	}
	p.claim(deadline)
	p.done.Wait()
	p.mu.Lock()
	panicked, val := p.panicked, p.panicVal
	p.mu.Unlock()
	if panicked {
		p.stop()
		panic(val)
	}
}

func (p *shardPool) work() {
	defer p.exited.Done()
	for deadline := range p.rounds {
		p.claim(deadline)
		p.done.Done()
	}
}

// claim steps unclaimed volumes until none is left this round, recording
// the first panic instead of unwinding the worker.
func (p *shardPool) claim(deadline time.Duration) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			if !p.panicked {
				p.panicked, p.panicVal = true, r
			}
			p.mu.Unlock()
		}
	}()
	for v := p.next.Add(1) - 1; v < int64(len(p.stacks)); v = p.next.Add(1) - 1 {
		stepVolume(p.stacks[v], deadline)
	}
}

// stop joins the workers; it is idempotent.
func (p *shardPool) stop() {
	if p.rounds != nil {
		close(p.rounds)
		p.exited.Wait()
		p.rounds = nil
	}
}
