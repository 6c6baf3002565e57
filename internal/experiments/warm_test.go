package experiments

import (
	"context"
	"testing"
)

// warmGroup is one grid coordinate's scheme group, the unit RunWarmShared
// plans over.
func warmGroup(wl string, volumes int, skew float64, intervals int) []Spec {
	specs := make([]Spec, len(Schemes)+1)
	for i, sc := range append(append([]string(nil), Schemes...), SchemeArrayLB) {
		specs[i] = Spec{Workload: wl, Scheme: sc, Seed: 11, Intervals: intervals,
			Volumes: volumes, RouteSkew: skew}
	}
	return specs
}

// TestRunWarmSharedMultiVolume is the tentpole's array extension of the
// warm-sharing contract: a multi-volume scheme group run through the
// shared-warmup planner is byte-identical to per-spec scratch runs, and
// the plan's outcomes say exactly how each member ran — the LBICA array
// leads, WB forks the whole array (the quiet-balancer window), SIB and
// the adaptive multi-volume ARRAY-LB fall back to scratch with their
// reasons recorded.
func TestRunWarmSharedMultiVolume(t *testing.T) {
	ctx := context.Background()
	const warmup, intervals = 10, 40
	for _, volumes := range []int{2, 3} {
		specs := warmGroup("mail", volumes, 1.2, intervals)
		if warmLeaderIndex(specs, warmup) < 0 {
			t.Fatalf("%d volumes: group unexpectedly unshareable", volumes)
		}
		got, plan := RunWarmShared(ctx, specs, warmup, nil)
		wantKind := map[string]WarmOutcome{
			SchemeWB:      {Kind: WarmForked},
			SchemeSIB:     {Kind: WarmScratch, Reason: WarmReasonSIB},
			SchemeLBICA:   {Kind: WarmLeader},
			SchemeArrayLB: {Kind: WarmScratch, Reason: WarmReasonMultiVolume},
		}
		for i, s := range specs {
			if plan[i] != wantKind[s.Scheme] {
				t.Errorf("%d volumes, %s: outcome %+v, want %+v", volumes, s.Scheme, plan[i], wantKind[s.Scheme])
			}
			mustEqual(t, got[i], RunContext(ctx, s), s.Scheme)
		}
	}
}

// A warm group whose WB window has closed — the leader's balancer acted
// before the barrier — must fall back to a scratch WB run and say so.
func TestRunWarmSharedBalancerActedFallback(t *testing.T) {
	ctx := context.Background()
	const intervals = 40
	specs := warmGroup("mail", 2, 1.2, intervals)
	// A barrier deep into the run: by then the LBICA balancer has
	// bypassed or switched policy on the bursty mail mix.
	warmup := intervals - 1
	got, plan := RunWarmShared(ctx, specs, warmup, nil)
	for i, s := range specs {
		if s.Scheme == SchemeWB {
			if plan[i].Kind != WarmScratch {
				t.Skipf("balancer quiet through %d intervals; no fallback to exercise", warmup)
			}
			if plan[i].Reason != WarmReasonBalancerActed {
				t.Errorf("WB fallback reason %q, want %q", plan[i].Reason, WarmReasonBalancerActed)
			}
		}
		mustEqual(t, got[i], RunContext(ctx, s), s.Scheme)
	}
}

// A group that cannot share at all (single member) still runs and
// reports the no-leader reason for every member.
func TestRunWarmSharedNoLeader(t *testing.T) {
	ctx := context.Background()
	specs := []Spec{{Workload: "mail", Scheme: SchemeLBICA, Seed: 11, Intervals: 20, Volumes: 2, RouteSkew: 1.2}}
	got, plan := RunWarmShared(ctx, specs, 5, nil)
	if plan[0] != (WarmOutcome{Kind: WarmScratch, Reason: WarmReasonNoLeader}) {
		t.Errorf("singleton outcome %+v, want scratch/no-leader", plan[0])
	}
	mustEqual(t, got[0], RunContext(ctx, specs[0]), "singleton")
}
