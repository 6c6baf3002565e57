// Package ckpt provides the low-level wire primitives of the checkpoint
// codec: a bounds-checked binary writer/reader pair plus the memoizing
// Encoder/Decoder that serialize the shared request/completer graph a
// warmed stack holds in flight.
//
// It is the only code that copies mid-run state: a persistent checkpoint,
// a warm-plan member restored from its leader's prefix, and an in-memory
// engine.Stack.Fork all go through it. The encoder writes memo references
// for shared requests, kind-tagged completer payloads, and small component
// ids; the decoder replays them against a freshly built stack. Decoding is
// strictly two-phase for completers (allocate a placeholder, memoize it,
// then fill), which is what lets the request graph's cycles (an in-flight
// application op is the completer of its own legs) round-trip.
//
// Every read is validated against the remaining input before it
// allocates, so a truncated, bit-flipped, or hostile payload surfaces as
// a sticky decode error — never a panic or an unbounded allocation.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"time"

	"lbica/internal/block"
)

// Writer accumulates a little-endian binary payload. Writes cannot fail.
// A sizing Writer keeps no bytes and only counts them, so an encoder can
// measure a payload before it allocates the buffer once (NewSizer).
type Writer struct {
	buf    []byte
	sizing bool
	n      int
}

// Data returns the accumulated payload (nil on a sizing Writer).
func (w *Writer) Data() []byte { return w.buf }

// Len returns the number of bytes written, or counted, so far.
func (w *Writer) Len() int {
	if w.sizing {
		return w.n
	}
	return len(w.buf)
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	if w.sizing {
		w.n++
		return
	}
	w.buf = append(w.buf, v)
}

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 writes a fixed 32-bit value.
func (w *Writer) U32(v uint32) {
	if w.sizing {
		w.n += 4
		return
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 writes a fixed 64-bit value.
func (w *Writer) U64(v uint64) {
	if w.sizing {
		w.n += 8
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 writes a signed 64-bit value.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Uvarint writes v as a variable-length integer: seven bits a byte, low
// groups first, so a value below 128 takes one byte and the largest ten.
func (w *Writer) Uvarint(v uint64) {
	if w.sizing {
		w.n += (bits.Len64(v|1) + 6) / 7
		return
	}
	// Appending to w.buf in place updates only its length, where
	// binary.AppendUvarint's result would store the whole slice header
	// (and its pointer, behind a write barrier) once per value.
	for v >= 0x80 {
		w.buf = append(w.buf, byte(v)|0x80)
		v >>= 7
	}
	w.buf = append(w.buf, byte(v))
}

// Varint writes v zigzag-encoded as a Uvarint, so a value near zero
// takes one byte whatever its sign.
func (w *Writer) Varint(v int64) { w.Uvarint(uint64(v<<1) ^ uint64(v>>63)) }

// Int writes an int as 64 bits.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// I32 writes a signed 32-bit value.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// F64 writes a float64 by bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Duration writes a time.Duration as its nanosecond count.
func (w *Writer) Duration(d time.Duration) { w.I64(int64(d)) }

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	if w.sizing {
		w.n += len(s)
		return
	}
	w.buf = append(w.buf, s...)
}

// Frame writes what body writes behind a u32 length prefix, so a reader
// can step over the frame without decoding it (Reader.SkipFrame).
func (w *Writer) Frame(body func()) {
	at := w.Len()
	w.U32(0)
	body()
	if !w.sizing {
		binary.LittleEndian.PutUint32(w.buf[at:], uint32(len(w.buf)-at-4))
	}
}

// Reader consumes a payload written by Writer. The first failed read sets
// a sticky error; every subsequent read returns the zero value, so decode
// paths can read unconditionally and check Err once per section.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error { return r.err }

// Failf sets the sticky error (keeping the first one).
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("ckpt: "+format, args...)
	}
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.Failf("truncated input: need %d bytes, have %d", n, r.Remaining())
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U32 reads a fixed 32-bit value.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed 64-bit value.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a signed 64-bit value.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Uvarint reads a value written by Writer.Uvarint. Input that ends inside
// the value, or whose value does not fit in 64 bits, sets the sticky error.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	switch {
	case n == 0:
		r.Failf("truncated varint: %d bytes remain", r.Remaining())
		return 0
	case n < -binary.MaxVarintLen64:
		r.Failf("varint longer than %d bytes", binary.MaxVarintLen64)
		return 0
	case n < 0:
		r.Failf("varint overflows 64 bits")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a value written by Writer.Varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// I32 reads a signed 32-bit value.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// F64 reads a float64 by bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Duration reads a time.Duration.
func (r *Reader) Duration() time.Duration { return time.Duration(r.I64()) }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.U32()
	b := r.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

// Frame reads a frame written by Writer.Frame: body decodes its content,
// which must consume exactly the recorded length.
func (r *Reader) Frame(body func()) {
	n := int(r.U32())
	start := r.off
	body()
	if r.err == nil && r.off-start != n {
		r.Failf("frame of %d bytes decoded as %d", n, r.off-start)
	}
}

// SkipFrame steps over a frame written by Writer.Frame without decoding
// it.
func (r *Reader) SkipFrame() { r.take(int(r.U32())) }

// Count reads a u32 element count and validates it against the remaining
// input assuming each element occupies at least elemSize bytes — the
// guard that keeps a hostile length prefix from driving an unbounded
// allocation. elemSize must be ≥ 1.
func (r *Reader) Count(elemSize int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n*elemSize > r.Remaining() {
		r.Failf("corrupt element count %d (elem size %d, %d bytes remain)", n, elemSize, r.Remaining())
		return 0
	}
	return n
}

// Encoder serializes a stack's state: wire primitives via the embedded
// Writer plus the memo tables for the shared request/completer graph and
// the component-reference map. Encoding cannot fail structurally; the
// sticky error only reports state the codec does not know how to encode
// (a non-encodable completer or generator), which callers surface as a
// scratch fallback.
type Encoder struct {
	*Writer
	err     error
	reqIDs  map[*block.Request]uint32
	compIDs map[block.Completer]uint32
	envIDs  map[any]uint32
}

// NewEncoder returns an empty encoder whose buffer holds size bytes
// before it has to grow.
func NewEncoder(size int) *Encoder {
	return newEncoder(&Writer{buf: make([]byte, 0, size)})
}

// NewSizer returns an encoder that keeps no bytes: after an encode pass,
// Len is the exact length the same pass writes through NewEncoder.
func NewSizer() *Encoder { return newEncoder(&Writer{sizing: true}) }

func newEncoder(w *Writer) *Encoder {
	return &Encoder{
		Writer:  w,
		reqIDs:  make(map[*block.Request]uint32),
		compIDs: make(map[block.Completer]uint32),
		envIDs:  make(map[any]uint32),
	}
}

// Err returns the sticky encode error, if any.
func (e *Encoder) Err() error { return e.err }

// Failf sets the sticky encode error (keeping the first one).
func (e *Encoder) Failf(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("ckpt: "+format, args...)
	}
}

// Section writes a named marker delimiting a state section, so a decoder
// that drifts out of alignment fails fast at the next boundary instead of
// misinterpreting the rest of the payload.
func (e *Encoder) Section(tag string) { e.String(tag) }

// RegisterComponent assigns the next component id to c. Both sides must
// register the same components in the same order; ComponentRef then
// resolves cross-component pointers (a chain's owning queue, an op's
// owning stack) by id.
func (e *Encoder) RegisterComponent(c any) {
	if _, ok := e.envIDs[c]; ok {
		return
	}
	e.envIDs[c] = uint32(len(e.envIDs))
}

// ComponentRef writes the id of a registered component.
func (e *Encoder) ComponentRef(c any) {
	id, ok := e.envIDs[c]
	if !ok {
		e.Failf("component %T not registered", c)
	}
	e.U32(id)
}

// StateCodec is any stack component that can round-trip its mutable
// state through a checkpoint: encode onto an Encoder, restore in place
// from a Decoder. Wrapper components (rate limiters, tees) assert it on
// what they wrap to decide checkpointability dynamically.
type StateCodec interface {
	EncodeState(*Encoder)
	DecodeState(*Decoder)
}

// EncodableCompleter is a completion callback the codec can serialize:
// it names its registered kind and writes its payload. Every completer
// the engine or queue layer installs implements it.
type EncodableCompleter interface {
	block.Completer
	CkptKind() string
	EncodeCkpt(*Encoder)
}

// Request encodes a request reference: nil, a memo back-reference, or —
// on first encounter — the request's fields followed by its completion
// callback. Shared requests (a queue node and a server's in-flight op
// pointing at the same request) round-trip to a single shared request.
func (e *Encoder) Request(r *block.Request) {
	if r == nil {
		e.U32(0)
		return
	}
	if id, ok := e.reqIDs[r]; ok {
		e.U32(id)
		return
	}
	id := uint32(len(e.reqIDs) + 1)
	e.reqIDs[r] = id
	e.U32(id)
	e.U64(r.ID)
	e.U8(uint8(r.Origin))
	e.I64(r.Extent.LBA)
	e.I64(r.Extent.Sectors)
	e.U64(r.ParentID)
	e.Duration(r.Submit)
	e.Duration(r.Dispatch)
	e.Duration(r.Complete)
	e.Int(r.Merged)
	e.Bool(r.Shadowed)
	e.Bool(r.Recycle)
	e.Completer(r.OnComplete)
}

// Completer encodes a completion-callback reference: nil, a memo
// back-reference, or — on first encounter — the completer's kind tag and
// payload. A completer that does not implement EncodableCompleter sets
// the sticky error: the state has no codec, and the encode fails.
func (e *Encoder) Completer(c block.Completer) {
	if c == nil {
		e.U32(0)
		return
	}
	if id, ok := e.compIDs[c]; ok {
		e.U32(id)
		return
	}
	id := uint32(len(e.compIDs) + 1)
	e.compIDs[c] = id
	e.U32(id)
	ec, ok := c.(EncodableCompleter)
	if !ok {
		e.Failf("completer %T is not checkpointable", c)
		e.String("")
		return
	}
	e.String(ec.CkptKind())
	ec.EncodeCkpt(e)
}

// completerCodec is one registered completer kind: alloc returns an empty
// placeholder (memoized before the payload is read, so cyclic references
// resolve), fill decodes the payload into it.
type completerCodec struct {
	alloc func(d *Decoder) block.Completer
	fill  func(d *Decoder, c block.Completer)
}

var completerCodecs = map[string]completerCodec{}

// RegisterCompleter registers the decode pair for a completer kind.
// Called from package init by every package that installs completers
// (engine, ioqueue). Registering a kind twice panics: it would silently
// shadow the first codec.
func RegisterCompleter(kind string, alloc func(d *Decoder) block.Completer, fill func(d *Decoder, c block.Completer)) {
	if _, dup := completerCodecs[kind]; dup {
		panic(fmt.Sprintf("ckpt: completer kind %q registered twice", kind))
	}
	completerCodecs[kind] = completerCodec{alloc: alloc, fill: fill}
}

// Decoder deserializes a payload written by Encoder against a freshly
// built stack: the embedded Reader supplies the bounds-checked
// primitives, and the memo tables replay the encoder's id assignment in
// lockstep (ids are assigned in encounter order on both sides).
type Decoder struct {
	*Reader
	reqs  []*block.Request
	comps []block.Completer
	envs  []any
}

// NewDecoder returns a decoder over payload b.
func NewDecoder(b []byte) *Decoder {
	return &Decoder{Reader: NewReader(b)}
}

// Section reads a marker written by Encoder.Section and fails if it does
// not match.
func (d *Decoder) Section(tag string) {
	got := d.take(int(d.U32()))
	if d.err == nil && string(got) != tag {
		d.Failf("section marker mismatch: want %q, got %q", tag, got)
	}
}

// RegisterComponent records the next component id as c, mirroring the
// encoder-side registration order.
func (d *Decoder) RegisterComponent(c any) {
	d.envs = append(d.envs, c)
}

// ComponentRef resolves a component id written by Encoder.ComponentRef.
func (d *Decoder) ComponentRef() any {
	id := d.U32()
	if d.err != nil {
		return nil
	}
	if int(id) >= len(d.envs) {
		d.Failf("component id %d out of range (%d registered)", id, len(d.envs))
		return nil
	}
	return d.envs[id]
}

// Request decodes a request reference written by Encoder.Request.
func (d *Decoder) Request() *block.Request {
	id := d.U32()
	if d.err != nil || id == 0 {
		return nil
	}
	if int(id) <= len(d.reqs) {
		return d.reqs[id-1]
	}
	if int(id) != len(d.reqs)+1 {
		d.Failf("request id %d out of sequence (%d seen)", id, len(d.reqs))
		return nil
	}
	r := &block.Request{}
	// Memoized before the completer payload is read: a completer that
	// references this request back-references the memo entry.
	d.reqs = append(d.reqs, r)
	r.ID = d.U64()
	r.Origin = block.Origin(d.U8())
	r.Extent.LBA = d.I64()
	r.Extent.Sectors = d.I64()
	r.ParentID = d.U64()
	r.Submit = d.Duration()
	r.Dispatch = d.Duration()
	r.Complete = d.Duration()
	r.Merged = d.Int()
	r.Shadowed = d.Bool()
	r.Recycle = d.Bool()
	r.OnComplete = d.Completer()
	return r
}

// Completer decodes a completer reference written by Encoder.Completer,
// dispatching first-encounter payloads through the registered kind codec
// in two phases (allocate + memoize, then fill) so cyclic request graphs
// resolve.
func (d *Decoder) Completer() block.Completer {
	id := d.U32()
	if d.err != nil || id == 0 {
		return nil
	}
	if int(id) <= len(d.comps) {
		return d.comps[id-1]
	}
	if int(id) != len(d.comps)+1 {
		d.Failf("completer id %d out of sequence (%d seen)", id, len(d.comps))
		return nil
	}
	kind := d.String()
	if d.err != nil {
		return nil
	}
	codec, ok := completerCodecs[kind]
	if !ok {
		d.Failf("unknown completer kind %q", kind)
		return nil
	}
	c := codec.alloc(d)
	if d.err != nil {
		return nil
	}
	if c == nil {
		d.Failf("completer kind %q allocated nil", kind)
		return nil
	}
	d.comps = append(d.comps, c)
	codec.fill(d, c)
	return c
}
