package lbica_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lbica"
	"lbica/internal/checkpoint"
)

// ckptOpts is a small single-stack run the checkpoint tests share.
func ckptOpts(scheme string) lbica.Options {
	return lbica.Options{Workload: "tpcc", Scheme: scheme, Seed: 3, Intervals: 12}
}

// The public contract: a run that pauses to save a checkpoint, and a run
// resumed from that checkpoint, both report byte-identically to the
// uninterrupted RunContext call — for every scheme kind (no balancer,
// periodic-scan SIB, adaptive LBICA).
func TestRunCheckpointRestoreByteIdentical(t *testing.T) {
	for _, scheme := range []string{"wb", "sib", "lbica"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			o := ckptOpts(scheme)
			baseline, err := lbica.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "warm.ckpt")
			saved, err := lbica.RunCheckpoint(context.Background(), o, path, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(baseline, saved) {
				t.Error("checkpointing run diverged from the uninterrupted run")
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Fatalf("checkpoint file not written: %v", err)
			}
			restored, err := lbica.RunRestore(context.Background(), o, path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(baseline, restored) {
				t.Error("restored run diverged from the uninterrupted run")
			}
		})
	}
}

// An array checkpoints and restores like a single stack: both runs report
// exactly what the uninterrupted run reports, the per-volume reports
// included, under every static routing policy and array-lb variant,
// scheme kind, width and shard-worker count.
func TestRunCheckpointRestoreArrays(t *testing.T) {
	skews := map[string]float64{"uniform": 0, "hash": 0, "zipf": 1.2}
	for _, scheme := range []string{"wb", "sib", "lbica"} {
		for _, policy := range []string{"uniform", "hash", "zipf"} {
			for _, volumes := range []int{2, 3} {
				for _, workers := range []int{1, 0} {
					o := ckptOpts(scheme)
					o.Volumes, o.RoutePolicy, o.RouteSkew, o.ShardWorkers = volumes, policy, skews[policy], workers
					t.Run(fmt.Sprintf("%s-%s-%dvol-w%d", scheme, policy, volumes, workers), func(t *testing.T) {
						t.Parallel()
						checkpointMatchesRun(t, o)
					})
				}
			}
		}
	}
	for _, variant := range []string{"weighted", "p2c"} {
		for _, volumes := range []int{2, 3} {
			for _, workers := range []int{1, 0} {
				o := ckptOpts("array-lb")
				o.Volumes, o.RouteSkew, o.RouteVariant, o.ShardWorkers = volumes, 1.2, variant, workers
				t.Run(fmt.Sprintf("array-lb-%s-%dvol-w%d", variant, volumes, workers), func(t *testing.T) {
					t.Parallel()
					checkpointMatchesRun(t, o)
				})
			}
		}
	}
}

// checkpointMatchesRun checkpoints o at interval 5 and restores it; both
// reports must equal the uninterrupted run's.
func checkpointMatchesRun(t *testing.T, o lbica.Options) {
	baseline, err := lbica.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.PerVolume) != o.Volumes {
		t.Fatalf("baseline has %d per-volume reports, want %d", len(baseline.PerVolume), o.Volumes)
	}
	path := filepath.Join(t.TempDir(), "array.ckpt")
	saved, err := lbica.RunCheckpoint(context.Background(), o, path, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline, saved) {
		t.Error("checkpointing array run diverged from the uninterrupted run")
	}
	restored, err := lbica.RunRestore(context.Background(), o, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline, restored) {
		t.Error("restored array run diverged from the uninterrupted run")
	}
}

// A checkpoint is a hard contract when named explicitly: options that
// describe a different run, and a corrupted file, are errors — never a
// silent divergent resume.
func TestRunRestoreRejectsMismatchAndCorruption(t *testing.T) {
	o := ckptOpts("lbica")
	path := filepath.Join(t.TempDir(), "warm.ckpt")
	if _, err := lbica.RunCheckpoint(context.Background(), o, path, 4); err != nil {
		t.Fatal(err)
	}

	other := o
	other.Seed = 99
	if _, err := lbica.RunRestore(context.Background(), other, path); err == nil {
		t.Error("restore with a different seed did not error")
	}
	wl := o
	wl.Workload = "mail"
	if _, err := lbica.RunRestore(context.Background(), wl, path); err == nil {
		t.Error("restore with a different workload did not error")
	}

	// A file in the older single-run format — the same payload under a
	// key of the run's options as JSON — is another run's, never restored.
	_, payloads, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	oldKey := `run|{"Format":3,"Workload":"tpcc","Name":"","Scheme":"lbica","Seed":3,"Intervals":12,"IntervalNS":200000000,"RateFactor":1}`
	old := filepath.Join(t.TempDir(), "old.ckpt")
	if err := checkpoint.WriteFile(old, oldKey, payloads); err != nil {
		t.Fatal(err)
	}
	if _, err := lbica.RunRestore(context.Background(), o, old); err == nil {
		t.Error("restore of an older single-run file did not error")
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := lbica.RunRestore(context.Background(), o, path); err == nil {
		t.Error("bit-flipped checkpoint did not error")
	}
	if _, err := lbica.RunRestore(context.Background(), o, path+".missing"); err == nil {
		t.Error("missing checkpoint file did not error")
	}
}

func TestRunCheckpointValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.ckpt")
	cases := []struct {
		name   string
		o      lbica.Options
		saveAt int
	}{
		{"negative saveAt", ckptOpts("lbica"), -1},
		{"saveAt at run end", ckptOpts("lbica"), 12},
		{"saveAt past run end", ckptOpts("lbica"), 99},
	}
	for _, tc := range cases {
		if _, err := lbica.RunCheckpoint(context.Background(), tc.o, path, tc.saveAt); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("a refused checkpoint wrote %s (stat: %v)", path, err)
	}
	// saveAt 0 defaults to half the run and must succeed.
	o := ckptOpts("wb")
	if _, err := lbica.RunCheckpoint(context.Background(), o, path, 0); err != nil {
		t.Errorf("saveAt 0 (half the run): %v", err)
	}
	if _, err := lbica.RunRestore(context.Background(), o, path); err != nil {
		t.Errorf("restore of defaulted-barrier checkpoint: %v", err)
	}
}
