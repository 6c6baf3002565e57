// Package trace is the simulation's blktrace: a typed, per-request event
// log with binary and text codecs.
//
// The physical LBICA prototype shells out to blktrace to learn what kinds
// of requests are sitting in the SSD queue; here the same information flows
// through an in-process event stream. The package also supports writing a
// captured trace to disk and replaying it later (cmd/traceinspect,
// examples/tracereplay).
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"lbica/internal/block"
)

// Kind is the lifecycle stage an event records, mirroring blktrace's
// Q/D/C actions plus the balancer-specific ones.
type Kind uint8

// Event kinds.
const (
	// Queued: the request entered a device queue.
	Queued Kind = iota
	// Merged: the request was absorbed into an already-queued request.
	Merged
	// Dispatched: the device began servicing the request.
	Dispatched
	// Completed: the device finished the request.
	Completed
	// Bypassed: a load balancer re-routed the request to the disk tier.
	Bypassed
	// PolicySet: the balancer changed the cache write policy. Device is
	// the new policy's numeric value; the request fields are zero.
	PolicySet
	numKinds
)

var kindNames = [...]string{"Q", "M", "D", "C", "B", "P"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Device identifies which tier an event happened on.
type Device uint8

// Devices.
const (
	SSD Device = iota
	HDD
)

func (d Device) String() string {
	if d == SSD {
		return "ssd"
	}
	return "hdd"
}

// Event is one trace record.
type Event struct {
	At     time.Duration
	Kind   Kind
	Dev    Device
	ID     uint64
	Origin block.Origin
	LBA    int64
	Sector int64 // length in sectors
	Aux    int64 // kind-specific: PolicySet → policy value
}

func (e Event) String() string {
	if e.Kind == PolicySet {
		return fmt.Sprintf("%12v %s policy=%d", e.At, e.Kind, e.Aux)
	}
	return fmt.Sprintf("%12v %s %s #%d %s [%d,+%d)", e.At, e.Kind, e.Dev, e.ID, e.Origin, e.LBA, e.Sector)
}

// Recorder receives events. Implementations: *Buffer, *BinaryWriter, and
// the engine's census maintenance.
type Recorder interface {
	Record(Event)
}

// RecorderFunc adapts a function to the Recorder interface.
type RecorderFunc func(Event)

// Record implements Recorder.
func (f RecorderFunc) Record(e Event) { f(e) }

// discard is Discard's comparable concrete type: engine.New tests a
// configured recorder == Discard to run the stack untraced, and comparing
// two interfaces that hold func values panics.
type discard struct{}

// Record implements Recorder by dropping the event.
func (discard) Record(Event) {}

// Discard drops every event. A stack configured with it is untraced: it
// builds no events at all, and it can be checkpointed.
var Discard Recorder = discard{}

// Buffer is an in-memory event sink.
type Buffer struct {
	Events []Event
}

// Record implements Recorder.
func (b *Buffer) Record(e Event) { b.Events = append(b.Events, e) }

// Filter returns the events matching pred, in order.
func (b *Buffer) Filter(pred func(Event) bool) []Event {
	var out []Event
	for _, e := range b.Events {
		if pred(e) {
			out = append(out, e)
		}
	}
	return out
}

// Binary codec.
//
// Each record is a fixed 43-byte little-endian frame:
//
//	offset size field
//	0      8    At (ns)
//	8      1    Kind
//	9      1    Dev
//	10     8    ID
//	18     1    Origin
//	19     8    LBA
//	27     8    Sectors
//	35     8    Aux (unused except PolicySet; marshalled for fixed size)
//
// preceded once by a 8-byte magic header.
const (
	magic      = "LBICATR1"
	recordSize = 8 + 1 + 1 + 8 + 1 + 8 + 8 + 8
)

// BinaryWriter streams events to w in the binary format.
type BinaryWriter struct {
	w      *bufio.Writer
	wrote  bool
	closed bool
}

// NewBinaryWriter wraps w.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: bufio.NewWriter(w)}
}

// Record implements Recorder. Encoding errors surface at Close (events are
// fire-and-forget on the hot path, matching blktrace's relayfs behavior).
func (bw *BinaryWriter) Record(e Event) {
	if bw.closed {
		return
	}
	if !bw.wrote {
		bw.w.WriteString(magic)
		bw.wrote = true
	}
	var buf [recordSize]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(e.At))
	buf[8] = byte(e.Kind)
	buf[9] = byte(e.Dev)
	binary.LittleEndian.PutUint64(buf[10:], e.ID)
	buf[18] = byte(e.Origin)
	binary.LittleEndian.PutUint64(buf[19:], uint64(e.LBA))
	binary.LittleEndian.PutUint64(buf[27:], uint64(e.Sector))
	binary.LittleEndian.PutUint64(buf[35:], uint64(e.Aux))
	bw.w.Write(buf[:])
}

// Close flushes buffered records and reports any deferred write error.
func (bw *BinaryWriter) Close() error {
	bw.closed = true
	return bw.w.Flush()
}

// ErrBadMagic marks a stream that is not an LBICA trace.
var ErrBadMagic = errors.New("trace: bad magic (not an LBICA binary trace)")

// Reader decodes a binary trace stream.
type Reader struct {
	r       *bufio.Reader
	started bool
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Next returns the next event, or io.EOF at end of stream. A record whose
// kind, device or origin byte lies outside its enum, or whose timestamp
// is negative, is an error: the analyzers index by those fields.
func (tr *Reader) Next() (Event, error) {
	if !tr.started {
		var m [len(magic)]byte
		if _, err := io.ReadFull(tr.r, m[:]); err != nil {
			if err == io.EOF {
				return Event{}, io.EOF
			}
			return Event{}, fmt.Errorf("trace: reading magic: %w", err)
		}
		if string(m[:]) != magic {
			return Event{}, ErrBadMagic
		}
		tr.started = true
	}
	var buf [recordSize]byte
	if _, err := io.ReadFull(tr.r, buf[:]); err != nil {
		if err == io.EOF {
			return Event{}, io.EOF
		}
		return Event{}, fmt.Errorf("trace: reading record: %w", err)
	}
	e := Event{
		At:     time.Duration(binary.LittleEndian.Uint64(buf[0:])),
		Kind:   Kind(buf[8]),
		Dev:    Device(buf[9]),
		ID:     binary.LittleEndian.Uint64(buf[10:]),
		Origin: block.Origin(buf[18]),
		LBA:    int64(binary.LittleEndian.Uint64(buf[19:])),
		Sector: int64(binary.LittleEndian.Uint64(buf[27:])),
		Aux:    int64(binary.LittleEndian.Uint64(buf[35:])),
	}
	switch {
	case e.At < 0:
		return Event{}, fmt.Errorf("trace: record at negative time %d ns", int64(e.At))
	case e.Kind >= numKinds:
		return Event{}, fmt.Errorf("trace: record kind byte %d outside [0, %d)", e.Kind, numKinds)
	case e.Dev > HDD:
		return Event{}, fmt.Errorf("trace: record device byte %d outside [0, %d]", e.Dev, HDD)
	case int(e.Origin) >= block.NumOrigins:
		return Event{}, fmt.Errorf("trace: record origin byte %d outside [0, %d)", e.Origin, block.NumOrigins)
	}
	return e, nil
}

// ReadAll decodes the whole stream.
func ReadAll(r io.Reader) ([]Event, error) {
	tr := NewReader(r)
	var out []Event
	for {
		e, err := tr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}
