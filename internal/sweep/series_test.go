package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"lbica/internal/engine"
	"lbica/internal/experiments"
	"lbica/internal/iostat"
)

// seriesGrid exercises the burst axis and a bursting catalog workload so
// the exported group/policy columns actually move.
func seriesGrid() Grid {
	return Grid{
		Workloads:      []string{"tpcc", "burst-mix-hi"},
		Schemes:        []string{"wb", "lbica"},
		BurstMults:     []float64{1, 2},
		SeedReplicates: 2,
		Seed:           5,
		Intervals:      8,
	}
}

func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestSeriesExportProperties is the series exporter's property test: one
// file per run, each with exactly Intervals data rows, strictly
// increasing interval indexes, parseable float columns, and group/policy
// labels.
func TestSeriesExportProperties(t *testing.T) {
	g := seriesGrid()
	dir := t.TempDir()
	res, err := Execute(t.Context(), g, Options{SeriesDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	files := readDir(t, dir)
	if len(files) != res.Total {
		t.Fatalf("exported %d series files, want one per run (%d)", len(files), res.Total)
	}
	header := "interval,cache_load_us,disk_load_us,hit_ratio,group,policy"
	for name, data := range files {
		lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		if lines[0] != header {
			t.Fatalf("%s: header %q, want %q", name, lines[0], header)
		}
		if rows := len(lines) - 1; rows != g.Intervals {
			t.Errorf("%s: %d data rows, want Intervals = %d", name, rows, g.Intervals)
		}
		prev := -1
		for _, line := range lines[1:] {
			cols := strings.Split(line, ",")
			if len(cols) != 6 {
				t.Fatalf("%s: row %q has %d columns, want 6", name, line, len(cols))
			}
			iv, err := strconv.Atoi(cols[0])
			if err != nil {
				t.Fatalf("%s: interval %q: %v", name, cols[0], err)
			}
			if iv <= prev {
				t.Fatalf("%s: interval index %d after %d — not strictly increasing", name, iv, prev)
			}
			prev = iv
			for _, c := range cols[1:4] {
				v, err := strconv.ParseFloat(c, 64)
				if err != nil {
					t.Fatalf("%s: float column %q: %v", name, c, err)
				}
				if v < 0 {
					t.Errorf("%s: negative metric %v", name, v)
				}
			}
			if cols[4] == "" || cols[5] == "" {
				t.Errorf("%s: empty group/policy in row %q", name, line)
			}
		}
	}
	// File names carry the grid coordinates in expansion vocabulary.
	if _, ok := files["series_tpcc_wb_cm1_rf1_bm1_r0.csv"]; !ok {
		t.Errorf("expected coordinate-named file missing; got %v", fileNames(files))
	}
}

func fileNames(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSeriesExportParallelMatchesSerial extends the sweep determinism
// guarantee to the series files: every exported byte must be identical
// between the serial baseline and the full worker pool.
func TestSeriesExportParallelMatchesSerial(t *testing.T) {
	g := seriesGrid()
	serialDir, parallelDir := t.TempDir(), t.TempDir()
	if _, err := Execute(t.Context(), g, Options{Workers: 1, SeriesDir: serialDir}); err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(t.Context(), g, Options{Workers: 0, SeriesDir: parallelDir}); err != nil {
		t.Fatal(err)
	}
	serial, parallel := readDir(t, serialDir), readDir(t, parallelDir)
	if len(serial) == 0 || len(serial) != len(parallel) {
		t.Fatalf("file counts diverge: %d serial vs %d parallel", len(serial), len(parallel))
	}
	for name, sb := range serial {
		pb, ok := parallel[name]
		if !ok {
			t.Fatalf("parallel run missing series file %s", name)
		}
		if !bytes.Equal(sb, pb) {
			t.Errorf("series file %s differs between serial and parallel sweeps", name)
		}
	}
}

// TestSeriesExportInterruptedLeavesOnlyWholeFiles pins the torn-file fix:
// a sweep cancelled mid-flight still exports the runs that finished, and
// every series file present in the directory is whole — correct header,
// full column count, parseable floats — with no temp-file debris. The
// in-place writes this replaces could leave a half-written CSV behind.
func TestSeriesExportInterruptedLeavesOnlyWholeFiles(t *testing.T) {
	g := Grid{
		Workloads:      []string{"tpcc"},
		Schemes:        []string{"wb", "lbica"},
		SeedReplicates: 2,
		Seed:           5,
		Intervals:      4,
	}
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	res, err := Execute(ctx, g, Options{
		Workers: 1,
		OnDone: func(done, total int) {
			if done >= total/2 {
				cancel()
			}
		},
		SeriesDir: dir,
	})
	if err == nil {
		t.Fatal("interrupted sweep returned nil error")
	}
	if res.Completed == 0 || res.Completed >= res.Total {
		t.Fatalf("want a genuine partial sweep, got %d of %d runs", res.Completed, res.Total)
	}

	files := readDir(t, dir)
	if len(files) != res.Completed {
		t.Fatalf("exported %d series files, want one per completed run (%d)", len(files), res.Completed)
	}
	header := "interval,cache_load_us,disk_load_us,hit_ratio,group,policy"
	for name, data := range files {
		if !strings.HasPrefix(name, "series_") || !strings.HasSuffix(name, ".csv") {
			t.Fatalf("foreign file %q in series dir (temp debris?)", name)
		}
		lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		if lines[0] != header {
			t.Fatalf("%s: torn file — header %q", name, lines[0])
		}
		if rows := len(lines) - 1; rows != g.Intervals {
			t.Errorf("%s: %d data rows, want %d — partial file survived the interrupt", name, rows, g.Intervals)
		}
		for _, line := range lines[1:] {
			cols := strings.Split(line, ",")
			if len(cols) != 6 {
				t.Fatalf("%s: torn row %q", name, line)
			}
			for _, c := range cols[1:4] {
				if _, err := strconv.ParseFloat(c, 64); err != nil {
					t.Fatalf("%s: unparseable column %q: %v", name, c, err)
				}
			}
		}
	}
}

// TestSeriesExportPublishIsAtomic drives the temp-then-rename mechanism
// directly: a write that fails before publish must leave the final path
// absent — never a torn CSV — and a successful one must leave no temp
// file behind.
func TestSeriesExportPublishIsAtomic(t *testing.T) {
	er := &engine.Results{Samples: []iostat.Sample{
		{Interval: 0, End: 200 * time.Millisecond, CacheLoad: time.Millisecond, DiskLoad: 2 * time.Millisecond},
		{Interval: 1, End: 400 * time.Millisecond, CacheLoad: 3 * time.Millisecond, DiskLoad: time.Millisecond},
	}}
	dir := t.TempDir()
	pt := Point{Spec: experiments.Spec{Workload: "tpcc", Scheme: "WB", CacheMult: 1, RateFactor: 1, BurstMult: 1, Volumes: 1}}
	path := filepath.Join(dir, SeriesFileName(pt))

	// Block the temp slot with a directory: the write fails before ever
	// touching the final path.
	tmp := filepath.Join(dir, "."+filepath.Base(path)+".tmp")
	if err := os.MkdirAll(filepath.Join(tmp, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeSeriesFile(path, er); err == nil {
		t.Fatal("write into a blocked temp slot succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed write left something at the final path: %v", err)
	}
	if err := os.RemoveAll(tmp); err != nil {
		t.Fatal(err)
	}

	// Unblocked, the publish lands whole and cleans up its temp file.
	if err := writeSeriesFile(path, er); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteRunSeriesCSV(&want, er); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("published series file differs from the direct encoding")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("temp file survived a successful publish: %v", err)
	}
}

// TestSeriesFileNameSanitizesHostileNames: registry names may contain
// anything; the exported file names must stay on a filesystem-safe
// alphabet and still be distinguishable by coordinates.
func TestSeriesFileNameSanitizesHostileNames(t *testing.T) {
	pt := Point{Workload: `w,"x"/../y`, Scheme: "LBICA", CacheMult: 0.5, RateFactor: 1, BurstMult: 2, Replicate: 3}
	name := SeriesFileName(pt)
	if strings.ContainsAny(name, `,"/\`+"\n") {
		t.Errorf("hostile characters leak into file name %q", name)
	}
	if !strings.Contains(name, "cm0.5") || !strings.Contains(name, "bm2") || !strings.Contains(name, "_r3") {
		t.Errorf("coordinates missing from file name %q", name)
	}
	if name != filepath.Base(name) {
		t.Errorf("file name %q escapes its directory", name)
	}

	// Array coordinates ride the same pipeline: every float component is
	// formatted by ftoa — the exact cells-CSV encoder — so a file name's
	// rs component joins back to its CSV row byte for byte, and even a
	// pathological skew value stays on the safe alphabet.
	arr := pt
	arr.Volumes = 4
	arr.RouteSkew = 1.2
	aname := SeriesFileName(arr)
	if !strings.Contains(aname, "_v4_rs"+ftoa(arr.RouteSkew)+"_") {
		t.Errorf("array file name %q does not embed ftoa(%v) = %q", aname, arr.RouteSkew, ftoa(arr.RouteSkew))
	}
	for _, v := range []float64{0.5, 1, 1.2, 2.75} {
		if s := ftoa(v); sanitizeName(s) != s {
			t.Errorf("sanitizer not the identity on ftoa(%v) = %q", v, s)
		}
	}
	// Exponent-formatted floats (never grid-valid, but defense in depth):
	// the '+' of "1e+21" must not survive into a file name.
	huge := pt
	huge.Volumes = 2
	huge.RouteSkew = 1e21
	if n := SeriesFileName(huge); strings.ContainsAny(n, "+,/") {
		t.Errorf("exponent formatting leaks hostile bytes into %q", n)
	}
}

// TestSummarizeEmptyGroup guards the zero-replicate path: an interrupted
// sweep must never panic aggregating an empty group.
func TestSummarizeEmptyGroup(t *testing.T) {
	c := summarize(cellKey{"tpcc", "WB", 1, 1, 1, 1, 0}, nil)
	if c.Replicates != 0 || c.Workload != "tpcc" || c.QMeanUS != 0 {
		t.Errorf("empty group summarized to %+v, want a zero-metric cell with its coordinates", c)
	}
	if cells := Aggregate(nil); len(cells) != 0 {
		t.Errorf("Aggregate(nil) = %v, want no cells", cells)
	}
}
