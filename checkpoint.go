package lbica

import (
	"context"
	"fmt"

	"lbica/internal/experiments"
)

// checkpointSpec validates o for a single-run checkpoint and translates it
// into its run description. The stream options are not covered.
func checkpointSpec(o Options) (experiments.Spec, error) {
	if o.TraceWriter != nil || o.RecordTo != nil || o.ReplayFrom != nil {
		return experiments.Spec{}, fmt.Errorf("lbica: checkpoint/restore does not compose with TraceWriter, RecordTo or ReplayFrom")
	}
	return toSpec(o)
}

// RunCheckpoint is RunContext with a mid-run save: the simulation pauses
// at the saveAt-th interval barrier, writes its complete warmed state to
// path (atomically: temp file + rename), then runs to completion and
// returns the full report — byte-identical to the same RunContext call.
// A later RunRestore with the same options resumes from the barrier and
// finishes the identical run. saveAt zero means half the run; it must be
// positive and strictly before Options.Intervals otherwise. Every run
// kind checkpoints: a single stack, a statically routed array, and an
// "array-lb" array, whose file also holds the controller's routing
// weights, load estimates and migration pins.
//
// A cancellation that arrives before the barrier skips the save (no file
// is written — a halted mid-interval state is not a resumable prefix) and
// returns the partial report with ctx.Err(), like RunContext.
func RunCheckpoint(ctx context.Context, o Options, path string, saveAt int) (*Report, error) {
	s, err := checkpointSpec(o)
	if err != nil {
		return nil, err
	}
	if saveAt < 0 {
		return nil, fmt.Errorf("lbica: negative checkpoint interval %d; zero means half the run", saveAt)
	}
	if saveAt == 0 {
		saveAt = max(s.Intervals/2, 1)
	}
	if saveAt >= s.Intervals {
		return nil, fmt.Errorf("lbica: checkpoint interval %d is not strictly before the run's %d intervals", saveAt, s.Intervals)
	}
	res, perVolume, err := experiments.RunSaving(ctx, s, saveAt, path)
	if err != nil {
		return nil, fmt.Errorf("lbica: %w", err)
	}
	return buildReport(s, res, perVolume), runCtxErr(ctx, s, res, perVolume)
}

// RunRestore resumes a run saved with RunCheckpoint: o must describe the
// same run (same workload, scheme, seed, intervals, cache geometry, array
// shape, …) — the file records the run's canonical identity and a
// mismatch is an error, as is any corruption, truncation or format-version
// skew. The simulation picks up at the saved barrier and runs to
// completion; the report is byte-identical to the uninterrupted run's.
func RunRestore(ctx context.Context, o Options, path string) (*Report, error) {
	s, err := checkpointSpec(o)
	if err != nil {
		return nil, err
	}
	res, perVolume, err := experiments.RunRestored(ctx, s, path)
	if err != nil {
		return nil, fmt.Errorf("lbica: %w", err)
	}
	return buildReport(s, res, perVolume), runCtxErr(ctx, s, res, perVolume)
}
