package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lbica/internal/ckpt"
)

// refEvent / refHeap are a reference kernel built on container/heap with
// the same (time, seq) ordering. The property tests below drive it in
// lockstep with the 4-ary kernel and require the fire order to match
// exactly.
type refEvent struct {
	at  time.Duration
	seq uint64
	id  int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)     { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any       { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h refHeap) peek() *refEvent { return h[0] }
func (h refHeap) empty() bool     { return len(h) == 0 }

// refKernel mirrors Engine's observable behavior.
type refKernel struct {
	now   time.Duration
	seq   uint64
	queue refHeap
	fired []int
}

func (k *refKernel) at(t time.Duration, id int) *refEvent {
	e := &refEvent{at: t, seq: k.seq, id: id}
	k.seq++
	heap.Push(&k.queue, e)
	return e
}

func (k *refKernel) run(horizon time.Duration) {
	for !k.queue.empty() {
		next := k.queue.peek()
		if horizon > 0 && next.at > horizon {
			k.now = horizon
			return
		}
		heap.Pop(&k.queue)
		k.now = next.at
		k.fired = append(k.fired, next.id)
	}
	if horizon > 0 && k.now < horizon {
		k.now = horizon
	}
}

// TestKernelMatchesReferenceModel drives randomized schedule / partial-run
// / checkpoint sequences (fixed seeds) through the kernel and the
// container/heap reference in lockstep, and requires identical fire order,
// identical clocks, and identical pending counts throughout. A checkpoint
// step encodes the engine, decodes it onto a fresh one and rebinds every
// pending event through the handle the test holds, so the heap a restore
// rebuilds must keep the (time, seq) determinism contract too.
func TestKernelMatchesReferenceModel(t *testing.T) {
	type handle struct {
		ev Event
		fn func()
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := NewEngine()
		ref := &refKernel{}
		var engFired []int
		var live []handle
		nextID, restores := 0, 0

		for step := 0; step < 4000; step++ {
			switch r := rng.Float64(); {
			case r < 0.55: // schedule
				d := time.Duration(rng.Intn(1000))
				id := nextID
				nextID++
				fn := func() { engFired = append(engFired, id) }
				ev := eng.At(eng.Now()+d, fn)
				re := ref.at(ref.now+d, id)
				if ev.Time() != re.at {
					t.Fatalf("seed %d: handle time %v != ref %v", seed, ev.Time(), re.at)
				}
				live = append(live, handle{ev, fn})
			case r < 0.95: // partial run to a random horizon
				h := eng.Now() + time.Duration(rng.Intn(500))
				eng.Run(h)
				ref.run(h)
				if eng.Now() != ref.now {
					t.Fatalf("seed %d step %d: clock %v != ref %v", seed, step, eng.Now(), ref.now)
				}
			default: // checkpoint round trip onto a fresh engine
				enc := ckpt.NewEncoder(0)
				eng.EncodeState(enc)
				pending := live[:0]
				for _, h := range live {
					if h.ev.Pending() {
						pending = append(pending, h)
					}
				}
				live = pending
				d := ckpt.NewDecoder(enc.Data())
				fresh := NewEngine()
				fresh.DecodeState(d)
				if err := d.Err(); err != nil {
					t.Fatalf("seed %d step %d: decode: %v", seed, step, err)
				}
				for i, h := range live {
					ev, ok := fresh.Rebind(h.ev, h.fn)
					if !ok {
						t.Fatalf("seed %d step %d: pending event %d at %v failed to rebind", seed, step, i, h.ev.Time())
					}
					live[i].ev = ev
				}
				if n := fresh.UnboundEvents(); n != 0 {
					t.Fatalf("seed %d step %d: %d events unbound after restore", seed, step, n)
				}
				if fresh.Now() != eng.Now() || fresh.Fired() != eng.Fired() {
					t.Fatalf("seed %d step %d: restored clock %v fired %d, want %v and %d",
						seed, step, fresh.Now(), fresh.Fired(), eng.Now(), eng.Fired())
				}
				eng = fresh
				restores++
			}
			if eng.Pending() != ref.queue.Len() {
				t.Fatalf("seed %d step %d: pending %d != ref %d", seed, step, eng.Pending(), ref.queue.Len())
			}
		}
		eng.RunUntilIdle()
		ref.run(0)

		if restores == 0 {
			t.Fatalf("seed %d: no checkpoint round trip ran", seed)
		}
		if eng.Now() != ref.now {
			t.Fatalf("seed %d: final clock %v != ref %v", seed, eng.Now(), ref.now)
		}
		if len(engFired) != len(ref.fired) {
			t.Fatalf("seed %d: fired %d events, ref fired %d", seed, len(engFired), len(ref.fired))
		}
		for i := range engFired {
			if engFired[i] != ref.fired[i] {
				t.Fatalf("seed %d: fire order diverges at %d: got id %d, ref id %d",
					seed, i, engFired[i], ref.fired[i])
			}
		}
		if eng.Pending() != 0 {
			t.Fatalf("seed %d: %d events still pending after drain", seed, eng.Pending())
		}
	}
}

// TestKernelReuseUnderChurn grows and shrinks the heap: interleaved bursts
// of scheduling and draining must never fire out of order, and every
// scheduled event fires exactly once.
func TestKernelReuseUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	eng := NewEngine()
	var lastAt time.Duration
	fired := 0
	for round := 0; round < 200; round++ {
		for i := 0; i < 32; i++ {
			at := eng.Now() + time.Duration(rng.Intn(100))
			eng.At(at, func() {
				if eng.Now() < lastAt {
					t.Errorf("clock ran backwards: %v after %v", eng.Now(), lastAt)
				}
				lastAt = eng.Now()
				fired++
			})
		}
		if round%4 == 3 {
			eng.RunUntilIdle()
		}
	}
	eng.RunUntilIdle()
	if fired != 200*32 || eng.Pending() != 0 {
		t.Fatalf("fired=%d pending=%d, want %d and 0", fired, eng.Pending(), 200*32)
	}
	if uint64(fired) != eng.Fired() {
		t.Fatalf("fired %d != engine count %d", fired, eng.Fired())
	}
}

// evKey is a pending event's wire key.
type evKey struct {
	at  time.Duration
	seq uint64
}

// kernelSection writes a kernel section by hand.
func kernelSection(now time.Duration, counter uint64, pending ...evKey) []byte {
	enc := ckpt.NewEncoder(0)
	enc.Section("sim.Engine")
	enc.Duration(now)
	enc.U64(counter)
	enc.U64(0)
	enc.U32(uint32(len(pending)))
	for _, k := range pending {
		enc.Duration(k.at)
		enc.U64(k.seq)
	}
	return enc.Data()
}

// withRefs appends refs to a kernel section as a counted list of
// EncodeEvent references, the shape a component's state takes after the
// engine's.
func withRefs(section []byte, refs ...evKey) []byte {
	enc := ckpt.NewEncoder(0)
	enc.U32(uint32(len(refs)))
	for _, k := range refs {
		enc.Bool(true)
		enc.Duration(k.at)
		enc.U64(k.seq)
	}
	return append(append([]byte{}, section...), enc.Data()...)
}

// restoreKernel decodes a withRefs payload onto a fresh engine and
// rebinds each reference the way a component's DecodeState does,
// reporting the first failure; every pending event must end bound.
func restoreKernel(payload []byte) error {
	d := ckpt.NewDecoder(payload)
	e := NewEngine()
	e.DecodeState(d)
	n := d.Count(17)
	for i := 0; i < n && d.Err() == nil; i++ {
		ref, pending := e.DecodeEvent(d)
		if !pending {
			continue
		}
		if _, ok := e.Rebind(ref, func() {}); !ok {
			return fmt.Errorf("reference %d (%v, seq %d) failed to rebind", i, ref.Time(), ref.seq)
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	if n := e.UnboundEvents(); n != 0 {
		return fmt.Errorf("%d pending events unbound", n)
	}
	return nil
}

// TestKernelCodecRejectsHostilePayloads: every malformed kernel section
// and every reference that names no unbound pending event fails the
// restore with an error, never a panic.
func TestKernelCodecRejectsHostilePayloads(t *testing.T) {
	// A real engine at 5 ns whose first event (seq 0, at 1 ns) has fired.
	e := NewEngine()
	first := e.At(1, func() {})
	e.At(10, func() {})
	e.At(20, func() {})
	e.Run(5)
	enc := ckpt.NewEncoder(0)
	e.EncodeState(enc)
	real := enc.Data()
	fired := evKey{first.Time(), first.seq}

	pending := []evKey{{10, 1}, {20, 2}}
	valid := kernelSection(5, 3, pending...)
	for name, payload := range map[string][]byte{
		"hand-written": withRefs(valid, pending...),
		"encoded":      withRefs(real, pending...),
	} {
		if err := restoreKernel(payload); err != nil {
			t.Fatalf("%s payload failed to restore: %v", name, err)
		}
	}

	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"event before the clock", withRefs(kernelSection(15, 3, pending...), pending...)},
		{"seq at the counter", withRefs(kernelSection(5, 2, pending...), pending...)},
		{"seq past the counter", withRefs(kernelSection(5, 1, pending...), pending...)},
		{"duplicate seq", withRefs(kernelSection(5, 3, evKey{10, 1}, evKey{20, 1}), evKey{10, 1}, evKey{20, 1})},
		{"negative clock", withRefs(kernelSection(-1, 3, pending...), pending...)},
		{"truncated event list", valid[:len(valid)-8]},
		{"rebind of an unknown event", withRefs(kernelSection(5, 4, pending...), pending[0], pending[1], evKey{30, 3})},
		{"rebind of a fired event", withRefs(real, fired, pending[0], pending[1])},
		{"rebind of a bound event", withRefs(valid, pending[0], pending[1], pending[0])},
		{"rebind at another time", withRefs(valid, pending[0], evKey{25, 2})},
		{"event left unbound", withRefs(valid, pending[0])},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("restore panicked: %v", r)
				}
			}()
			err := restoreKernel(c.payload)
			if err == nil {
				t.Fatal("hostile payload restored without error")
			}
			t.Log(err)
		})
	}
}
