// Stack forking: a sibling stack that continues from this one's exact
// mid-run state, so several scheme variants can share one warm-up prefix.
//
// Fork runs on the checkpoint codec (ckpt.go): it encodes the stack,
// builds a fresh sibling from the same configuration, and decodes onto
// it, so the codec is the only code that copies mid-run state. The
// determinism contract is the codec's: the sibling, run to completion,
// produces byte-identical Results to a stack built fresh and run
// uninterrupted with the same configuration. The only per-type hooks are
// the Fresh constructors that build the sibling's unstarted generator and
// unattached balancer.
package engine

import (
	"context"
	"fmt"

	"lbica/internal/workload"
)

// FreshGenerator is a generator Fork can rebuild: Fresh returns an
// unstarted generator with the receiver's configuration.
type FreshGenerator interface{ Fresh() workload.Generator }

// FreshBalancer is a balancer Fork can rebuild: Fresh returns an
// unattached balancer with the receiver's configuration.
type FreshBalancer interface{ Fresh() Balancer }

// DropBalancer is the balFor argument that gives the fork no balancer —
// the WB baseline. The decode refuses it once the balancer has acted on
// the run (BalancerActed), since the prefixes have diverged by then.
func DropBalancer(*Stack) Balancer { return nil }

// Fork returns a sibling stack that continues from this one's exact state:
// virtual clock, pending events, queued and in-flight requests, cache
// contents, RNG positions and accumulated statistics. The original is not
// modified and remains runnable; Fork may be called repeatedly at
// different points.
//
// balFor selects the sibling's balancer: nil keeps the original's scheme,
// DropBalancer installs none (the WB baseline). No other value is
// accepted.
//
// Forking fails when the generator or balancer has no Fresh constructor,
// or the state cannot be encoded or decoded (a traced run, a completer the
// codec does not know, a dropped balancer that already acted).
func (st *Stack) Fork(ctx context.Context, balFor func(*Stack) Balancer) (*Stack, error) {
	gen, ok := st.gen.(FreshGenerator)
	if !ok {
		return nil, fmt.Errorf("engine: generator %q cannot be rebuilt for a fork", st.gen.Name())
	}
	var bal Balancer
	switch {
	case balFor != nil:
		if balFor(st) != nil {
			return nil, fmt.Errorf("engine: Fork takes a nil balFor or DropBalancer")
		}
	case st.bal != nil:
		fb, ok := st.bal.(FreshBalancer)
		if !ok {
			return nil, fmt.Errorf("engine: balancer %q cannot be rebuilt for a fork", st.bal.Name())
		}
		bal = fb.Fresh()
	}
	payload, err := st.Encode()
	if err != nil {
		return nil, err
	}
	sib := New(st.cfg, gen.Fresh(), bal)
	if err := sib.Decode(ctx, payload); err != nil {
		return nil, err
	}
	return sib, nil
}

// BalancerActed reports whether the attached balancer has observably
// influenced the run so far: any policy-timeline entry, balancer-routed
// bypass, shadow cancellation, cache policy switch, or recorded bypass
// counter. While it returns false, the run's state is bit-identical to
// what a balancer-less (WB) run would have produced, so restoring the
// state with the balancer dropped is a valid shared-warmup WB baseline;
// once it returns true the schemes have diverged and a WB variant must
// run from scratch. Always false when no balancer is attached.
func (st *Stack) BalancerActed() bool { return st.bal != nil && st.acted() }

// acted is BalancerActed's evidence, read off the run's state alone.
func (st *Stack) acted() bool {
	if len(st.timeline) > 0 || st.bypassed > 0 || st.cancelled > 0 {
		return true
	}
	cs := st.cch.Stats()
	return cs.PolicySwitches > 0 || cs.BypassedReads > 0 || cs.BypassedWr > 0
}
