package checkpoint_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"lbica/internal/checkpoint"
)

// TestGenCorpus regenerates the committed FuzzDecodeCheckpoint seed
// corpus (testdata/fuzz). Rerun with GEN_CORPUS=1 after any wire-format
// change (and FormatVersion bump) so the committed seeds keep exercising
// the current format's success paths, not just its version-mismatch arm.
func TestGenCorpus(t *testing.T) {
	if os.Getenv("GEN_CORPUS") == "" {
		t.Skip("set GEN_CORPUS=1 to regenerate")
	}
	spec := fuzzSpec()
	leader := fuzzStack(spec)
	leader.Start(context.Background(), spec.Intervals)
	leader.StepTo(1 * spec.Interval)
	payload, err := checkpoint.EncodeStack(leader)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("payload size: %d", len(payload))
	path := filepath.Join(t.TempDir(), "seed.ckpt")
	if err := checkpoint.WriteFile(path, "corpus-seed", [][]byte{payload}); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("container size: %d", len(valid))

	trunc := valid[:len(valid)*2/3]
	flip := bytes.Clone(valid)
	flip[len(flip)/3] ^= 0x10
	ver := bytes.Clone(valid)
	ver[8] = 0xFE // format version field, little-endian low byte

	// Small valid container with synthetic payloads (container-layer
	// coverage without a large file).
	small := filepath.Join(t.TempDir(), "small.ckpt")
	if err := checkpoint.WriteFile(small, "tiny", [][]byte{[]byte("\x01payload-a"), {}, []byte("b")}); err != nil {
		t.Fatal(err)
	}
	smallBuf, err := os.ReadFile(small)
	if err != nil {
		t.Fatal(err)
	}

	// A multi-volume warmup container: a static array's controller and
	// volume payloads at the first barrier.
	arr := fuzzArray(spec)
	arr.Start(context.Background())
	arr.StepTo(context.Background(), 1)
	arrPayloads, err := arr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	multi := filepath.Join(t.TempDir(), "multi.ckpt")
	if err := checkpoint.WriteFile(multi, "corpus-array", arrPayloads); err != nil {
		t.Fatal(err)
	}
	multiBuf, err := os.ReadFile(multi)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("multi-volume container size: %d", len(multiBuf))

	// An ARRAY-LB container: the array-lb controller's payload, at a
	// barrier after its first migration, so it holds pins.
	lb := fuzzAdaptive(spec)
	lb.Start(context.Background())
	lb.StepTo(context.Background(), 5)
	lbPayloads, err := lb.Encode()
	if err != nil {
		t.Fatal(err)
	}
	lbPath := filepath.Join(t.TempDir(), "array-lb.ckpt")
	if err := checkpoint.WriteFile(lbPath, "corpus-array-lb", lbPayloads); err != nil {
		t.Fatal(err)
	}
	lbBuf, err := os.ReadFile(lbPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("array-lb container size: %d, controller payload %d", len(lbBuf), len(lbPayloads[0]))

	dir := "testdata/fuzz/FuzzDecodeCheckpoint"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]byte{
		"seed00": valid,
		"seed01": trunc,
		"seed02": flip,
		"seed03": ver,
		"seed04": smallBuf,
		"seed05": []byte("LBICACK1"),
		"seed06": {},
		"seed07": payload[:128],
		"seed08": multiBuf,
		"seed09": lbBuf,
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
