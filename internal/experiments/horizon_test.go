package experiments

import (
	"context"
	"testing"
	"time"

	"lbica/internal/block"
	"lbica/internal/trace"
)

// TestRunEndsAtItsHorizon pins the run horizon over the workload catalog
// at short run lengths, where mail and web schedule requests past the
// run: a run submits exactly the requests its generator emits before
// intervals × interval, every one of them completes, and none is submitted
// at or after the horizon. Under WB each application request is queued
// exactly once under its own origin (AppRead, ReadMiss or AppWrite), so
// those trace events are the submissions.
func TestRunEndsAtItsHorizon(t *testing.T) {
	names, _ := WorkloadCatalog()
	for _, name := range names {
		for _, intervals := range []int{3, 12} {
			s := Spec{Workload: name, Scheme: SchemeWB, Seed: 7, Intervals: intervals}.Normalize()
			horizon := time.Duration(intervals) * s.Interval
			var arrivals uint64
			for gen := NewGenerator(s); ; arrivals++ {
				if r, ok := gen.Next(); !ok || r.At >= horizon {
					break
				}
			}
			var buf trace.Buffer
			s.Hooks = &Hooks{Trace: &buf}
			res := RunContext(context.Background(), s)
			var submitted, late uint64
			for _, e := range buf.Events {
				if e.Kind != trace.Queued && e.Kind != trace.Merged {
					continue
				}
				if o := e.Origin; o == block.AppRead || o == block.ReadMiss || o == block.AppWrite {
					submitted++
					if e.At >= horizon {
						late++
					}
				}
			}
			if arrivals == 0 || res.AppSubmitted != arrivals || res.AppCompleted != arrivals || submitted != arrivals || late != 0 {
				t.Errorf("%s at %d intervals: %d arrivals before the horizon; run submitted %d, completed %d, queued %d, %d of them at or after it",
					name, intervals, arrivals, res.AppSubmitted, res.AppCompleted, submitted, late)
			}
		}
	}
}
