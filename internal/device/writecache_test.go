package device

import (
	"testing"
	"time"

	"lbica/internal/block"
	"lbica/internal/sim"
)

func wcConfig() HDDConfig {
	cfg := sasHDD()
	cfg.WriteCacheLatency = 150 * time.Microsecond
	cfg.WriteCacheDepth = 10
	cfg.DrainIOPS = 1000
	return cfg
}

func TestWriteCacheAcksFast(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHDD(wcConfig(), sim.NewRNG(1, "h"))
	h.SetClock(eng.Now)
	for i := 0; i < 10; i++ {
		svc := h.Service(wr(int64(i) * 4096))
		if svc != 150*time.Microsecond {
			t.Fatalf("cached write %d serviced in %v, want 150µs", i, svc)
		}
	}
}

func TestWriteCacheDrainRestoresCapacity(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHDD(wcConfig(), sim.NewRNG(1, "h"))
	h.SetClock(eng.Now)
	// Fill the cache.
	for i := 0; i < 10; i++ {
		h.Service(wr(int64(i) * 4096))
	}
	// The 11th write overflows to spindle latency.
	if svc := h.Service(wr(11 * 4096)); svc <= time.Millisecond {
		t.Fatalf("overflow write serviced in %v, want spindle-scale", svc)
	}
	if h.WriteCacheRejects() != 1 {
		t.Fatalf("rejects = %d", h.WriteCacheRejects())
	}
	// Advance virtual time: 1000 IOPS drain clears ~5 slots in 5 ms.
	eng.At(5*time.Millisecond, func() {})
	eng.RunUntilIdle()
	if svc := h.Service(wr(12 * 4096)); svc != 150*time.Microsecond {
		t.Fatalf("post-drain write serviced in %v, want 150µs", svc)
	}
}

func TestWriteCacheDisabledWithoutClock(t *testing.T) {
	h := NewHDD(wcConfig(), sim.NewRNG(1, "h"))
	// No SetClock: every write costs spindle time.
	if svc := h.Service(wr(0)); svc <= time.Millisecond {
		t.Fatalf("write without clock serviced in %v, want spindle-scale", svc)
	}
}

func TestWriteCacheNeverServesReads(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHDD(wcConfig(), sim.NewRNG(1, "h"))
	h.SetClock(eng.Now)
	if svc := h.Service(rd(1 << 20)); svc <= time.Millisecond {
		t.Fatalf("random read serviced in %v, want spindle-scale", svc)
	}
}

func TestSeqThresholdBoundary(t *testing.T) {
	cfg := sasHDD()
	cfg.SeqThreshold = 64
	h := NewHDD(cfg, sim.NewRNG(1, "h"))
	h.Service(rd(0)) // position the head; rd() covers sectors [0,8)
	// Gap of exactly 64 sectors is still sequential.
	if svc := h.Service(rd(8 + 64)); svc > time.Millisecond {
		t.Errorf("gap == threshold treated as random (%v)", svc)
	}
	// One past is random.
	h2 := NewHDD(cfg, sim.NewRNG(2, "h"))
	h2.Service(rd(0))
	if svc := h2.Service(rd(8 + 65)); svc < time.Millisecond {
		t.Errorf("gap > threshold treated as sequential (%v)", svc)
	}
}

func TestSSDTransferScalesWithSize(t *testing.T) {
	cfg := DefaultSSDConfig()
	cfg.Sigma = 0.0001
	s := NewSSD(cfg, sim.NewRNG(3, "s"))
	small := s.Service(&block.Request{Origin: block.AppRead, Extent: block.Extent{LBA: 0, Sectors: 8}})
	large := s.Service(&block.Request{Origin: block.AppRead, Extent: block.Extent{LBA: 1 << 20, Sectors: 1024}})
	wantDelta := time.Duration(1024-8) * cfg.PerSector
	gotDelta := large - small
	if gotDelta < wantDelta/2 || gotDelta > wantDelta*2 {
		t.Errorf("size scaling delta = %v, want ≈%v", gotDelta, wantDelta)
	}
}

func TestHDDAvgLatencySymmetric(t *testing.T) {
	h := NewHDD(sasHDD(), sim.NewRNG(4, "h"))
	if h.AvgLatency(block.Read) != h.AvgLatency(block.Write) {
		t.Error("rotational model calibrates reads and writes identically at this altitude")
	}
}

func TestServerStallBlocksDispatch(t *testing.T) {
	eng := sim.NewEngine()
	q := newStubSource()
	cfg := DefaultSSDConfig()
	cfg.Channels = 1
	s := NewSSD(cfg, sim.NewRNG(5, "s"))
	srv := NewServer(eng, s, q, nil)
	srv.Stall(time.Second)
	q.push(rd(0))
	srv.Kick()
	if srv.Inflight() != 1 { // only the stall occupies the slot
		t.Fatalf("inflight = %d during stall", srv.Inflight())
	}
	if q.depth() != 1 {
		t.Fatal("request dispatched during stall")
	}
	eng.RunUntilIdle()
	if srv.Completed() != 1 {
		t.Fatalf("completed = %d after stall ends", srv.Completed())
	}
}

// stubSource is a minimal Source for server tests.
type stubSource struct{ reqs []*block.Request }

func newStubSource() *stubSource { return &stubSource{} }

func (s *stubSource) push(r *block.Request) { s.reqs = append(s.reqs, r) }

func (s *stubSource) Pop() *block.Request {
	if len(s.reqs) == 0 {
		return nil
	}
	r := s.reqs[0]
	s.reqs = s.reqs[1:]
	return r
}

func (s *stubSource) Depth() int { return len(s.reqs) }

func (s *stubSource) depth() int { return len(s.reqs) }
