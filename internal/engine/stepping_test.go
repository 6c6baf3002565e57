package engine

import (
	"context"
	"reflect"
	"testing"
	"time"

	"lbica/internal/block"
	"lbica/internal/sim"
	"lbica/internal/workload"
)

// The stepping API (Start / StepTo / Drain / Collect) is the run loop the
// array controller drives one interval at a time; splitting a run at
// interval boundaries must not change a single byte of the results, or
// the controlled path's "byte-identical to serial" guarantee is void
// before the controller even acts.
func TestSteppedRunMatchesRunContext(t *testing.T) {
	cfg := testConfig()
	mk := func() *Stack {
		gen := workload.TPCC(workload.Scale{Intervals: 6, Interval: cfg.MonitorEvery},
			sim.NewRNG(3, "workload:tpcc"))
		return New(cfg, gen, nil)
	}
	const intervals = 6

	want := mk().RunContext(context.Background(), intervals)

	st := mk()
	st.Start(context.Background(), intervals)
	for iv := 1; iv <= intervals; iv++ {
		st.ResumeArrivals() // no-op while the pump is alive
		st.StepTo(time.Duration(iv) * cfg.MonitorEvery)
	}
	st.Drain()
	got := st.Collect()

	if !reflect.DeepEqual(got, want) {
		t.Fatal("stepped run differs from RunContext")
	}
	if got.AppCompleted == 0 || len(got.Samples) != intervals {
		t.Fatalf("stepped run incomplete: %d requests, %d samples", got.AppCompleted, len(got.Samples))
	}
}

// A stack fed by an exhaustible generator parks its arrival pump when the
// feed runs dry; ResumeArrivals restarts it after a refill, and requests
// pushed between steps execute. This is the controller's feed contract.
func TestResumeArrivalsAfterFeedExhaustion(t *testing.T) {
	cfg := testConfig()
	feed := &sliceGen{}
	for i := 0; i < 50; i++ {
		feed.reqs = append(feed.reqs, workload.Request{
			At:     time.Duration(i) * time.Millisecond,
			Extent: block.Extent{LBA: int64(i) * workload.BlockSectors, Sectors: workload.BlockSectors},
		})
	}
	st := New(cfg, feed, nil)
	st.Start(context.Background(), 2)
	st.StepTo(cfg.MonitorEvery)
	if got := st.Collect().AppSubmitted; got != 50 {
		t.Fatalf("first round submitted %d, want 50", got)
	}

	// Refill past the deadline, inside the run, and resume: the parked
	// pump must restart. A feed obeys the run's horizon like any
	// generator, so the request at exactly 2 × MonitorEvery never runs.
	for i := 50; i <= 80; i++ {
		feed.reqs = append(feed.reqs, workload.Request{
			At:     cfg.MonitorEvery + time.Duration(i-50)*time.Millisecond,
			Extent: block.Extent{LBA: int64(i) * workload.BlockSectors, Sectors: workload.BlockSectors},
		})
	}
	feed.reqs[80].At = 2 * cfg.MonitorEvery
	st.ResumeArrivals()
	st.StepTo(2 * cfg.MonitorEvery)
	st.Drain()
	res := st.Collect()
	if res.AppSubmitted != 80 {
		t.Fatalf("after refill submitted %d, want 80", res.AppSubmitted)
	}
	if res.AppCompleted != 80 {
		t.Fatalf("completed %d of 80", res.AppCompleted)
	}
}

// sliceGen is a refillable test generator (the controller's feed shape).
type sliceGen struct {
	reqs []workload.Request
	pos  int
}

func (g *sliceGen) Name() string { return "slice" }

func (g *sliceGen) Next() (workload.Request, bool) {
	if g.pos >= len(g.reqs) {
		return workload.Request{}, false
	}
	r := g.reqs[g.pos]
	g.pos++
	return r, true
}
