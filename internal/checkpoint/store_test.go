package checkpoint_test

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"lbica/internal/checkpoint"
)

// TestContainerRoundTrip pins the container format: WriteFile → ReadFile
// returns the same key and payload bytes, including empty payload lists
// and zero-length payloads.
func TestContainerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name     string
		key      string
		payloads [][]byte
	}{
		{"single", "k1", [][]byte{[]byte("hello stack state")}},
		{"multi", "k2|vol=3", [][]byte{[]byte("vol0"), []byte("volume-one"), []byte("v2")}},
		{"empty-payload", "k3", [][]byte{{}}},
		{"no-payloads", "k4", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".ckpt")
			if err := checkpoint.WriteFile(path, tc.key, tc.payloads); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			key, payloads, err := checkpoint.ReadFile(path)
			if err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
			if key != tc.key {
				t.Errorf("key %q, want %q", key, tc.key)
			}
			if len(payloads) != len(tc.payloads) {
				t.Fatalf("%d payloads, want %d", len(payloads), len(tc.payloads))
			}
			for i := range payloads {
				if string(payloads[i]) != string(tc.payloads[i]) {
					t.Errorf("payload %d = %q, want %q", i, payloads[i], tc.payloads[i])
				}
			}
		})
	}
}

// Every way a file can be structurally bad must surface as a ReadFile
// error — never a panic, never a false hit.
func TestReadFileRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry.ckpt")
	if err := checkpoint.WriteFile(path, "key", [][]byte{[]byte("payload-bytes")}); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	damage := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated-header", func(b []byte) []byte { return b[:6] }},
		{"truncated-tail", func(b []byte) []byte { return b[:len(b)-5] }},
		{"bad-magic", func(b []byte) []byte { c := clone(b); c[0] ^= 0xff; return c }},
		{"flipped-payload-bit", func(b []byte) []byte { c := clone(b); c[len(c)/2] ^= 0x01; return c }},
		{"flipped-crc", func(b []byte) []byte { c := clone(b); c[len(c)-1] ^= 0x01; return c }},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			bad := filepath.Join(dir, d.name+".ckpt")
			if err := os.WriteFile(bad, d.mut(clone(good)), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := checkpoint.ReadFile(bad); err == nil {
				t.Errorf("ReadFile accepted %s damage", d.name)
			}
		})
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

// reCRC recomputes the trailing checksum after a deliberate mutation so
// only deeper validation layers can reject the file.
func reCRC(b []byte) []byte {
	body := b[:len(b)-4]
	return binary.LittleEndian.AppendUint32(clone(body), crc32.ChecksumIEEE(body))
}

// A container from a different format version must read as unusable even
// when its checksum is intact: the CRC is recomputed over the altered
// version field so only the version check can reject it.
func TestReadFileRejectsVersionSkew(t *testing.T) {
	// Reimplement just enough of the writer with version+1. The layout is
	// magic, then a ckpt.Writer body starting with the u32 version.
	path := filepath.Join(t.TempDir(), "skew.ckpt")
	if err := checkpoint.WriteFile(path, "key", [][]byte{[]byte("p")}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[8]++ // first byte of the little-endian u32 version, after the 8-byte magic
	buf = reCRC(buf)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := checkpoint.ReadFile(path); err == nil {
		t.Error("ReadFile accepted a version-skewed container")
	}
}

// A store entry written for a different key (filename collision, or a
// file renamed by hand) must load as corrupt, not as a hit.
func TestStoreKeyMismatch(t *testing.T) {
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("key-a", [][]byte{[]byte("a")}); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(st.Path("key-a"), st.Path("key-b")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("key-b"); err == nil {
		t.Error("Load returned a hit for a file written under another key")
	}
}

// Load distinguishes a miss (nil, nil) from damage (nil, error).
func TestStoreMissVersusCorrupt(t *testing.T) {
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payloads, err := st.Load("absent")
	if payloads != nil || err != nil {
		t.Errorf("miss = (%v, %v), want (nil, nil)", payloads, err)
	}
	if err := os.WriteFile(st.Path("present"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("present"); err == nil {
		t.Error("Load accepted garbage as a hit")
	}
}

// Open's eager validation: creates a missing directory, rejects an empty
// path and a path occupied by a regular file.
func TestOpenValidation(t *testing.T) {
	base := t.TempDir()
	nested := filepath.Join(base, "a", "b")
	st, err := checkpoint.Open(nested)
	if err != nil {
		t.Errorf("Open did not create missing directory: %v", err)
	} else if st.Dir() != nested {
		t.Errorf("store roots at %q, want %q", st.Dir(), nested)
	}
	if fi, err := os.Stat(nested); err != nil || !fi.IsDir() {
		t.Errorf("Open left no directory at %s", nested)
	}
	if _, err := checkpoint.Open(""); err == nil {
		t.Error("Open accepted an empty path")
	}
	file := filepath.Join(base, "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Open(file); err == nil {
		t.Error("Open accepted a regular file as a cache directory")
	}
}

// Open removes the entries an earlier format wrote, and only those: a
// foreign file, a newer format's entry, a header too short to read, a file
// without the .ckpt suffix and a current entry all stay.
func TestOpenPrunesStaleEntries(t *testing.T) {
	dir := t.TempDir()
	header := func(version uint32) []byte {
		return binary.LittleEndian.AppendUint32([]byte("LBICACK1"), version)
	}
	files := map[string][]byte{
		"v4.ckpt":      append(header(4), "old payload"...),
		"v1.ckpt":      header(1),
		"foreign.ckpt": []byte("not a checkpoint container"),
		"v6.ckpt":      append(header(6), "newer payload"...),
		"short.ckpt":   []byte("LBICACK1\x04"),
		"v4.txt":       header(4),
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.ckpt"), 0o755); err != nil {
		t.Fatal(err)
	}
	current := filepath.Join(dir, "current.ckpt")
	if err := checkpoint.WriteFile(current, "key", [][]byte{[]byte("p")}); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Open(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"v4.ckpt", "v1.ckpt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived Open (stat: %v)", name, err)
		}
	}
	for _, name := range []string{"foreign.ckpt", "v6.ckpt", "short.ckpt", "v4.txt", "sub.ckpt", "current.ckpt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("Open removed %s: %v", name, err)
		}
	}
	if _, _, err := checkpoint.ReadFile(current); err != nil {
		t.Errorf("current entry no longer reads: %v", err)
	}
}
