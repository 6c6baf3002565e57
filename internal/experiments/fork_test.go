package experiments

import (
	"context"
	"reflect"
	"testing"
	"time"

	"lbica/internal/engine"
)

// forkSpec is the shortened matrix cell the fork-equivalence property
// runs over: long enough for bursts and balancer decisions to happen
// after the fork point, short enough to keep the full schemes ×
// workloads product fast.
func forkSpec(wl, scheme string) Spec {
	return Spec{Workload: wl, Scheme: scheme, Seed: 7, Intervals: 60}.Normalize()
}

// buildStack constructs the single-volume stack exactly as RunContext's
// Volumes==1 path does.
func buildStack(spec Spec) *engine.Stack { return spec.routedStack(0) }

// runScratch is the uninterrupted baseline run.
func runScratch(spec Spec) *engine.Results {
	st := buildStack(spec)
	return st.RunContext(context.Background(), spec.Intervals)
}

func mustEqual(t *testing.T, got, want *engine.Results, what string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: results diverge from uninterrupted run\ngot:  %+v\nwant: %+v", what, got, want)
	}
}

// TestForkEquivalence is the tentpole's determinism property: a stack
// forked mid-run and drained produces results identical to a stack that
// ran start-to-finish, for every scheme × paper workload — including a
// fork taken off another fork, and the original (leader) run staying
// unperturbed by having been forked.
func TestForkEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, wl := range Workloads {
		for _, sc := range Schemes {
			wl, sc := wl, sc
			t.Run(wl+"/"+sc, func(t *testing.T) {
				t.Parallel()
				spec := forkSpec(wl, sc)
				want := runScratch(spec)

				// Fork at an interval barrier one third in.
				barrier := time.Duration(spec.Intervals/3) * spec.Interval
				leader := buildStack(spec)
				leader.Start(ctx, spec.Intervals)
				leader.StepTo(barrier)
				f1, err := leader.Fork(ctx, nil)
				if err != nil {
					t.Fatalf("Fork at %v: %v", barrier, err)
				}

				// Fork-of-fork: step the first fork to a later barrier and
				// branch again before draining anything.
				barrier2 := time.Duration(spec.Intervals/2) * spec.Interval
				f1.StepTo(barrier2)
				f2, err := f1.Fork(ctx, nil)
				if err != nil {
					t.Fatalf("Fork of fork at %v: %v", barrier2, err)
				}

				f1.Drain()
				mustEqual(t, f1.Collect(), want, "fork at barrier")
				f2.Drain()
				mustEqual(t, f2.Collect(), want, "fork of fork")
				leader.Drain()
				mustEqual(t, leader.Collect(), want, "leader after forking")
			})
		}
	}
}

// TestForkDropBalancerIsWBBaseline is the planner's warmup-sharing trick:
// while an LBICA leader's balancer has not acted, a fork taken with
// DropBalancer and drained is byte-identical to a from-scratch WB run.
func TestForkDropBalancerIsWBBaseline(t *testing.T) {
	ctx := context.Background()
	for _, wl := range Workloads {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			t.Parallel()
			lbSpec := forkSpec(wl, SchemeLBICA)
			wbSpec := forkSpec(wl, SchemeWB)
			want := runScratch(wbSpec)

			leader := buildStack(lbSpec)
			leader.Start(ctx, lbSpec.Intervals)
			barrier := 2 * lbSpec.Interval
			leader.StepTo(barrier)
			if leader.BalancerActed() {
				t.Skipf("balancer already acted by %v; no shared-warmup window on this workload", barrier)
			}
			f, err := leader.Fork(ctx, engine.DropBalancer)
			if err != nil {
				t.Fatalf("Fork: %v", err)
			}
			f.Drain()
			mustEqual(t, f.Collect(), want, "WB fork off LBICA leader")

			// The leader still finishes as a faithful LBICA run.
			leader.Drain()
			mustEqual(t, leader.Collect(), runScratch(lbSpec), "LBICA leader")
		})
	}
}

// TestForkSnapshot drives the Snapshot wrapper: branch twice off one
// inert snapshot, each branch equal to the uninterrupted run.
func TestForkSnapshot(t *testing.T) {
	ctx := context.Background()
	spec := forkSpec(WorkloadTPCC, SchemeLBICA)
	want := runScratch(spec)

	leader := buildStack(spec)
	leader.Start(ctx, spec.Intervals)
	leader.StepTo(10 * spec.Interval)
	snap, err := leader.Snapshot(ctx)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// The leader drains first: the snapshot must be unaffected.
	leader.Drain()
	mustEqual(t, leader.Collect(), want, "leader")
	for i := 0; i < 2; i++ {
		f, err := snap.Fork(ctx, nil)
		if err != nil {
			t.Fatalf("snapshot fork %d: %v", i, err)
		}
		f.Drain()
		mustEqual(t, f.Collect(), want, "snapshot fork")
	}
}
