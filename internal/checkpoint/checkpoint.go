// Package checkpoint persists warmed simulation state across process
// invocations: a versioned container file holding one encoded
// engine.Stack payload, or a multi-volume array's controller payload
// (static or array-lb) and one payload per volume, and a
// content-addressed on-disk store that maps a canonical warmup key to
// such a file.
//
// Trust model: checkpoint files are a cache, never a source of truth. A
// missing, truncated, corrupt, version-skewed, or key-colliding entry is
// reported distinctly from a hit so callers can fall back to simulating
// the prefix from scratch — a sweep must never fail because its cache
// directory holds garbage. Every structural claim a file makes (magic,
// version, checksum, lengths, key) is verified before any payload byte
// reaches the stack decoder, and the decoder itself bounds-checks every
// read, so hostile input surfaces as an error, not a panic.
package checkpoint

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"lbica/internal/ckpt"
	"lbica/internal/engine"
)

// FormatVersion is the container format version. It must be bumped
// whenever any layer's wire encoding changes (the per-package EncodeState
// bodies, the completer payloads, or this container) so stale caches read
// as misses instead of corrupt state. Version 3 stores a multi-volume
// warmup as the static array controller's payload followed by one payload
// per volume (array.Controlled.Encode); version 4 writes each cache line
// as variable-length integers (cache.Cache.EncodeState); version 5 writes
// each random stream's register instead of its draw count
// (sim.RNG.EncodeState); version 6 writes the event kernel as its clock,
// counters and each pending event's (time, seq) key, and names an event
// by its seq instead of an arena slot and generation
// (sim.Engine.EncodeState).
const FormatVersion = 6

// magic identifies a checkpoint container file.
const magic = "LBICACK1"

// maxFileSize caps how much of a checkpoint file Read will load — a
// corrupted length field or a hostile file cannot drive an unbounded
// allocation. Real warmed-stack payloads are a few MiB.
const maxFileSize = 1 << 30

// EncodeStack serializes a mid-run stack into one checkpoint payload
// (engine.Stack.Encode).
func EncodeStack(st *engine.Stack) ([]byte, error) { return st.Encode() }

// DecodeStack restores one checkpoint payload onto a freshly built,
// not-yet-started stack (see engine.Stack.DecodeState for the contract).
// The stack must be discarded on error.
func DecodeStack(ctx context.Context, st *engine.Stack, payload []byte) error {
	return st.Decode(ctx, payload)
}

// WriteFile atomically publishes a checkpoint container: the key it was
// built for plus its payloads — one stack's, or a multi-volume warmup's
// controller and volume payloads in one file. The write goes to a temp file in the target
// directory first and is renamed into place, so concurrent sweeps racing
// on the same key each observe either no file or a complete one.
func WriteFile(path, key string, payloads [][]byte) error {
	var w ckpt.Writer
	w.U32(FormatVersion)
	w.String(key)
	w.U32(uint32(len(payloads)))
	for _, p := range payloads {
		w.U32(uint32(len(p)))
	}
	head := append([]byte(magic), w.Data()...)

	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*.tmp")
	if err != nil {
		return err
	}
	err = writeContainer(tmp, head, payloads)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// writeContainer writes the head, each payload and the CRC-32 over all of
// them to f one after another, so no payload is copied on the way out.
func writeContainer(f *os.File, head []byte, payloads [][]byte) error {
	sum := crc32.ChecksumIEEE(head)
	if _, err := f.Write(head); err != nil {
		return err
	}
	for _, p := range payloads {
		sum = crc32.Update(sum, crc32.IEEETable, p)
		if _, err := f.Write(p); err != nil {
			return err
		}
	}
	_, err := f.Write(binary.LittleEndian.AppendUint32(nil, sum))
	return err
}

// ReadFile loads and fully verifies a checkpoint container, returning
// the key it was written for and its payloads. Every error return means
// "treat as absent": the file is truncated, corrupt, from a different
// format version, or otherwise unusable.
func ReadFile(path string) (key string, payloads [][]byte, err error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", nil, err
	}
	if fi.Size() > maxFileSize {
		return "", nil, fmt.Errorf("checkpoint: %s is %d bytes, over the %d cap", path, fi.Size(), maxFileSize)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	if len(buf) < len(magic)+4 {
		return "", nil, fmt.Errorf("checkpoint: %s truncated (%d bytes)", path, len(buf))
	}
	if string(buf[:len(magic)]) != magic {
		return "", nil, fmt.Errorf("checkpoint: %s is not a checkpoint container", path)
	}
	body, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return "", nil, fmt.Errorf("checkpoint: %s checksum mismatch (file %08x, computed %08x)", path, sum, got)
	}
	r := ckpt.NewReader(body[len(magic):])
	version := r.U32()
	if r.Err() == nil && version != FormatVersion {
		return "", nil, fmt.Errorf("checkpoint: %s is format v%d, this build reads v%d", path, version, FormatVersion)
	}
	key = r.String()
	n := r.Count(4)
	if err := r.Err(); err != nil {
		return "", nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	lens := make([]int, n)
	for i := range lens {
		lens[i] = int(r.U32())
	}
	if err := r.Err(); err != nil {
		return "", nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	rest := r.Remaining()
	if totalInts(lens) != rest {
		return "", nil, fmt.Errorf("checkpoint: %s payload lengths sum to %d, %d bytes present", path, totalInts(lens), rest)
	}
	payloads = make([][]byte, n)
	off := len(body) - rest
	for i, l := range lens {
		if l < 0 {
			return "", nil, fmt.Errorf("checkpoint: %s has negative payload length", path)
		}
		payloads[i] = body[off : off+l]
		off += l
	}
	return key, payloads, nil
}

func totalInts(ls []int) int {
	n := 0
	for _, l := range ls {
		if l < 0 {
			return -1
		}
		n += l
	}
	return n
}

// Store is a content-addressed checkpoint cache rooted at a directory.
// Entries are immutable once published; the key is hashed into the
// filename and also embedded in the file, so a filename collision between
// different keys reads as corrupt, not as a false hit.
type Store struct {
	dir string
}

// Open validates dir and returns a store over it. The directory is
// created if absent; an existing non-directory path or an unwritable
// directory is an error — callers validate eagerly (at flag-parse time)
// so a misconfigured cache fails the invocation up front instead of
// surfacing mid-sweep. Open also removes the entries an earlier format
// wrote (pruneStale): the version is part of every key, so no lookup
// would ever reach them again.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty cache directory")
	}
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		return nil, fmt.Errorf("checkpoint: %s exists and is not a directory", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	probe, err := os.CreateTemp(dir, ".ckpt-probe-*")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s is not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())
	pruneStale(dir)
	return &Store{dir: dir}, nil
}

// pruneStale removes each *.ckpt file in dir whose header has the
// container magic and a version below FormatVersion. A file it cannot
// read, a foreign file and a newer format's entry stay: the store only
// deletes what it knows this build has replaced.
func pruneStale(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.Type().IsRegular() || filepath.Ext(e.Name()) != ".ckpt" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		if v, ok := headerVersion(path); ok && v < FormatVersion {
			os.Remove(path)
		}
	}
}

// headerVersion reads the format version from a container's header. ok
// is false when the file cannot be read or does not start with the magic.
func headerVersion(path string) (version uint32, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	var head [len(magic) + 4]byte
	if _, err := io.ReadFull(f, head[:]); err != nil || string(head[:len(magic)]) != magic {
		return 0, false
	}
	return binary.LittleEndian.Uint32(head[len(magic):]), true
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the file an entry for key lives at.
func (s *Store) Path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+".ckpt")
}

// Save publishes payloads under key, atomically.
func (s *Store) Save(key string, payloads [][]byte) error {
	return WriteFile(s.Path(key), key, payloads)
}

// Load looks key up. A miss returns (nil, nil); a present-but-unusable
// entry (corrupt, truncated, version-skewed, key collision) returns a
// non-nil error so the caller can both fall back to scratch and surface
// the fallback.
func (s *Store) Load(key string) ([][]byte, error) {
	path := s.Path(key)
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return nil, nil
	}
	gotKey, payloads, err := ReadFile(path)
	if err != nil {
		return nil, err
	}
	if gotKey != key {
		return nil, fmt.Errorf("checkpoint: %s was written for a different key", path)
	}
	return payloads, nil
}
