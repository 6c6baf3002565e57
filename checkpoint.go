package lbica

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"lbica/internal/checkpoint"
	"lbica/internal/experiments"
	"lbica/internal/workload"
)

// checkpointKey is the canonical identity of a single-stack run: every
// normalized option that shapes the simulation, plus the checkpoint
// format version. A restore whose options produce a different key is
// resuming a different experiment and is rejected outright — unlike the
// sweep's warm cache (where a bad entry silently degrades to scratch), a
// checkpoint file named explicitly by the user is a hard contract.
func checkpointKey(s experiments.Spec) string {
	t := s.Thresholds
	id := struct {
		Format                       int
		Workload, Name, Scheme       string
		Seed                         int64
		Intervals                    int
		IntervalNS                   int64
		RateFactor                   float64
		Phases                       *[]workload.Phase
		CacheMiB, CacheWays          int
		Replacement                  string
		DominantPair, MemberMin      float64
		PromoteAlone, ReadAlone      float64
		MinQueued                    int
		DiskElevator, DisablePrewarm bool
	}{
		Format:         checkpoint.FormatVersion,
		Workload:       s.Workload,
		Name:           s.Name,
		Scheme:         strings.ToLower(s.Scheme),
		Seed:           s.Seed,
		Intervals:      s.Intervals,
		IntervalNS:     int64(s.Interval),
		RateFactor:     s.RateFactor,
		Phases:         s.Phases,
		CacheMiB:       s.CacheMiB,
		CacheWays:      s.CacheWays,
		Replacement:    s.Replacement,
		DominantPair:   t.DominantPair,
		MemberMin:      t.MemberMin,
		PromoteAlone:   t.PromoteAlone,
		ReadAlone:      t.ReadAlone,
		MinQueued:      t.MinQueued,
		DiskElevator:   s.DiskElevator,
		DisablePrewarm: s.DisablePrewarm,
	}
	// The struct holds only JSON-marshalable field types, so Marshal
	// cannot fail; json gives a canonical, human-inspectable encoding.
	b, _ := json.Marshal(id)
	return "run|" + string(b)
}

// checkpointSpec validates o for a single-run checkpoint and translates it
// into its run description. Multi-volume runs and the stream options are
// not covered.
func checkpointSpec(o Options) (experiments.Spec, error) {
	if o.Volumes > 1 {
		return experiments.Spec{}, fmt.Errorf("lbica: checkpoint/restore needs a single volume (got Volumes %d); multi-volume warmups persist through the sweep warm cache instead (lbicasweep -warm-cache)", o.Volumes)
	}
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
// positive and strictly before Options.Intervals otherwise. Single-volume
// runs only — multi-volume warmups persist through the sweep warm cache.
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
	res, err := experiments.RunSaving(ctx, s, saveAt, func(payload []byte) error {
		if err := checkpoint.WriteFile(path, checkpointKey(s), [][]byte{payload}); err != nil {
			return fmt.Errorf("writing checkpoint: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lbica: %w", err)
	}
	return buildReport(s, res, nil), runCtxErr(ctx, s, res, nil)
}

// RunRestore resumes a run saved with RunCheckpoint: o must describe the
// same run (same workload, scheme, seed, intervals, cache geometry, …) —
// the file records the run's canonical identity and a mismatch is an
// error, as is any corruption, truncation or format-version skew. The
// simulation picks up at the saved barrier and runs to completion; the
// report is byte-identical to the uninterrupted run's.
func RunRestore(ctx context.Context, o Options, path string) (*Report, error) {
	s, err := checkpointSpec(o)
	if err != nil {
		return nil, err
	}
	key, payloads, err := checkpoint.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("lbica: %w", err)
	}
	if key != checkpointKey(s) {
		return nil, fmt.Errorf("lbica: checkpoint %s was saved for a different run configuration", path)
	}
	if len(payloads) != 1 {
		return nil, fmt.Errorf("lbica: checkpoint %s holds %d stacks; single-run restore needs exactly 1", path, len(payloads))
	}
	res, err := experiments.RunRestored(ctx, s, payloads[0])
	if err != nil {
		return nil, fmt.Errorf("lbica: restoring checkpoint %s: %w", path, err)
	}
	return buildReport(s, res, nil), runCtxErr(ctx, s, res, nil)
}
