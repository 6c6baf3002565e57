package trace

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"lbica/internal/block"
)

func TestBinaryRoundTrip(t *testing.T) {
	events := []Event{
		{At: 0, Kind: Queued, Dev: SSD, ID: 1, Origin: block.AppRead, LBA: 100, Sector: 8},
		{At: time.Millisecond, Kind: Dispatched, Dev: SSD, ID: 1, Origin: block.AppRead, LBA: 100, Sector: 8},
		{At: 2 * time.Millisecond, Kind: Completed, Dev: SSD, ID: 1, Origin: block.AppRead, LBA: 100, Sector: 8},
		{At: 3 * time.Millisecond, Kind: PolicySet, Aux: 3},
		{At: 4 * time.Millisecond, Kind: Bypassed, Dev: HDD, ID: 2, Origin: block.BypassWrite, LBA: -512, Sector: 16},
	}
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for _, e := range events {
		w.Record(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, events)
	}
}

func TestBadMagic(t *testing.T) {
	_, err := ReadAll(strings.NewReader("NOTATRACE_______"))
	if err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestEmptyStream(t *testing.T) {
	got, err := ReadAll(bytes.NewReader(nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty stream: %v %v", got, err)
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	w.Record(Event{Kind: Queued, ID: 1})
	w.Close()
	full := buf.Bytes()
	_, err := ReadAll(bytes.NewReader(full[:len(full)-3]))
	if err == nil || err == io.EOF {
		t.Fatalf("truncated stream must error, got %v", err)
	}
}

// Property: any event round-trips through the binary codec bit-for-bit.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(at int64, kind, dev, origin uint8, id uint64, lba, sector, aux int64) bool {
		e := Event{
			At:     time.Duration(at & math.MaxInt64), // the reader rejects negative times
			Kind:   Kind(kind % uint8(numKinds)),
			Dev:    Device(dev % 2),
			ID:     id,
			Origin: block.Origin(origin % uint8(block.NumOrigins)),
			LBA:    lba,
			Sector: sector,
			Aux:    aux,
		}
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf)
		w.Record(e)
		if w.Close() != nil {
			return false
		}
		got, err := ReadAll(&buf)
		return err == nil && len(got) == 1 && got[0] == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBufferFilter(t *testing.T) {
	var b Buffer
	b.Record(Event{Kind: Queued, Dev: SSD, ID: 1})
	b.Record(Event{Kind: Queued, Dev: HDD, ID: 2})
	b.Record(Event{Kind: Completed, Dev: SSD, ID: 1})
	ssd := b.Filter(func(e Event) bool { return e.Dev == SSD })
	if len(ssd) != 2 {
		t.Fatalf("filtered %d, want 2", len(ssd))
	}
}

func TestDiscard(t *testing.T) {
	Discard.Record(Event{ID: 1}) // must not panic
}

// TestWriteText pins the one-line text form of an event, the form
// traceinspect's dump mode writes.
func TestWriteText(t *testing.T) {
	queued := Event{At: time.Millisecond, Kind: Queued, Dev: SSD, ID: 1, Origin: block.AppRead, LBA: 100, Sector: 8}
	if s := queued.String(); !strings.Contains(s, "Q ssd #1 R") {
		t.Errorf("queue event renders as %q", s)
	}
	if s := (Event{At: 2 * time.Millisecond, Kind: PolicySet, Aux: 2}).String(); !strings.Contains(s, "policy=2") {
		t.Errorf("policy event renders as %q", s)
	}
}

func TestRecordAfterCloseIgnored(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	w.Record(Event{ID: 1})
	w.Close()
	n := buf.Len()
	w.Record(Event{ID: 2})
	if buf.Len() != n {
		t.Error("record after close wrote bytes")
	}
}

func BenchmarkBinaryWrite(b *testing.B) {
	w := NewBinaryWriter(io.Discard)
	e := Event{At: 123456, Kind: Queued, Dev: SSD, ID: 42, Origin: block.AppWrite, LBA: 4096, Sector: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Record(e)
	}
	w.Close()
}
