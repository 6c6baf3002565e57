package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"lbica/internal/block"
)

// malformed is the magic plus one record whose bytes are the valid
// record's with patch applied.
func malformed(patch func(rec []byte)) []byte {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	w.Record(Event{At: time.Millisecond, Kind: Queued, Dev: SSD, ID: 1, Origin: block.AppRead, LBA: 8, Sector: 8})
	w.Close()
	data := buf.Bytes()
	patch(data[len(magic):])
	return data
}

// The three malformed records that used to crash traceinspect: an origin
// byte past the origin enum, a device byte past the device enum, and a
// timestamp of 2^62 ns, which made the census append empty windows until
// memory ran out. Each is an error, in the reader or the census. The
// testdata/fuzz/FuzzTraceAnalyze corpus holds the same three files.
var crashers = map[string][]byte{
	"origin 200": malformed(func(rec []byte) { rec[18] = 200 }),
	"device 7":   malformed(func(rec []byte) { rec[9] = 7 }),
	"at 2^62 ns": malformed(func(rec []byte) { binary.LittleEndian.PutUint64(rec[0:], 1<<62) }),
}

func TestMalformedRecordsAreErrors(t *testing.T) {
	for name, data := range crashers {
		_, aerr := Analyze(bytes.NewReader(data))
		_, werr := WindowCensus(bytes.NewReader(data), SSD, 200*time.Millisecond)
		if werr == nil {
			t.Errorf("%s: WindowCensus accepted the record", name)
		}
		if aerr == nil && name != "at 2^62 ns" {
			t.Errorf("%s: Analyze accepted the record", name)
		}
	}
	for name, patch := range map[string]func([]byte){
		"kind 6":        func(rec []byte) { rec[8] = byte(numKinds) },
		"negative time": func(rec []byte) { binary.LittleEndian.PutUint64(rec[0:], 1<<63) },
	} {
		if _, err := ReadAll(bytes.NewReader(malformed(patch))); err == nil {
			t.Errorf("%s: the reader accepted the record", name)
		}
	}
	// The last window the census still fills holds its record.
	last := malformed(func(rec []byte) {
		binary.LittleEndian.PutUint64(rec[0:], uint64((MaxWindows-1)*time.Millisecond))
	})
	wins, err := WindowCensus(bytes.NewReader(last), SSD, time.Millisecond)
	if err != nil || len(wins) != MaxWindows || wins[MaxWindows-1].Census.Total() != 1 {
		t.Fatalf("census at the bound: %d windows, err %v", len(wins), err)
	}
}

// FuzzTraceAnalyze: any byte stream decodes, analyzes and censuses to
// results or an error, never a panic or an unbounded allocation.
func FuzzTraceAnalyze(f *testing.F) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for i, k := range []Kind{Queued, Dispatched, Completed, Queued, Merged, Bypassed, PolicySet} {
		w.Record(Event{At: time.Duration(i) * 70 * time.Millisecond, Kind: k, Dev: Device(i % 2),
			ID: uint64(i / 3), Origin: block.Origin(i), LBA: int64(8 * i), Sector: 8})
	}
	w.Close()
	f.Add(buf.Bytes())
	f.Add([]byte(magic))
	f.Add([]byte{})
	for _, data := range crashers {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		Analyze(bytes.NewReader(data))
		for _, dev := range []Device{SSD, HDD} {
			WindowCensus(bytes.NewReader(data), dev, 200*time.Millisecond)
		}
	})
}
