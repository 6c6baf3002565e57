package device

import (
	"testing"
	"time"

	"lbica/internal/block"
	"lbica/internal/ioqueue"
	"lbica/internal/sim"
)

func rd(lba int64) *block.Request {
	return &block.Request{Origin: block.AppRead, Extent: block.Extent{LBA: lba, Sectors: 8}}
}

func wr(lba int64) *block.Request {
	return &block.Request{Origin: block.AppWrite, Extent: block.Extent{LBA: lba, Sectors: 8}}
}

// sasHDD is a 7.2K-RPM SAS drive behind a 4-spindle subsystem, with no
// controller write cache: the bare rotational model these tests probe.
func sasHDD() HDDConfig {
	return HDDConfig{
		Name:         "hdd",
		RPM:          7200,
		SeekAvg:      8500 * time.Microsecond,
		PerSector:    2500 * time.Nanosecond, // ≈ 200 MB/s streaming
		Spindles:     4,
		SeqThreshold: 64,
	}
}

func TestSSDReadWriteAsymmetry(t *testing.T) {
	s := NewSSD(DefaultSSDConfig(), sim.NewRNG(1, "ssd"))
	var rsum, wsum time.Duration
	n := 2000
	for i := 0; i < n; i++ {
		rsum += s.Service(rd(int64(i) * 1000))
		wsum += s.Service(wr(int64(i) * 1000))
	}
	if wsum >= rsum {
		t.Errorf("SSD writes (%v avg) not faster than reads (%v avg)", wsum/time.Duration(n), rsum/time.Duration(n))
	}
	ravg := rsum / time.Duration(n)
	want := DefaultSSDConfig().ReadBase
	if ravg < want/2 || ravg > want*2 {
		t.Errorf("SSD read avg %v too far from base %v", ravg, want)
	}
}

func TestSSDAvgLatencyCalibration(t *testing.T) {
	s := NewSSD(DefaultSSDConfig(), sim.NewRNG(1, "ssd"))
	if s.AvgLatency(block.Read) <= s.AvgLatency(block.Write) {
		t.Error("calibrated read latency should exceed write latency for this class")
	}
	if s.AvgLatency(block.Read) < 90*time.Microsecond {
		t.Error("calibrated read latency must include base flash latency")
	}
}

func TestSSDWriteCliff(t *testing.T) {
	cfg := DefaultSSDConfig()
	cfg.WriteCliffThreshold = 10
	cfg.WriteCliffFactor = 5
	cfg.Sigma = 0.001
	s := NewSSD(cfg, sim.NewRNG(1, "ssd"))
	var before, after time.Duration
	for i := 0; i < 10; i++ {
		before += s.Service(wr(int64(i) * 1000))
	}
	for i := 0; i < 10; i++ {
		after += s.Service(wr(int64(100+i) * 1000))
	}
	if float64(after) < 3*float64(before) {
		t.Errorf("write cliff not engaged: before=%v after=%v", before, after)
	}
}

func TestHDDRandomVsSequential(t *testing.T) {
	h := NewHDD(sasHDD(), sim.NewRNG(1, "hdd"))
	// Sequential stream after the first (positioning) access.
	var seq time.Duration
	h.Service(rd(0))
	for i := 1; i <= 100; i++ {
		seq += h.Service(rd(int64(i) * 8))
	}
	h2 := NewHDD(sasHDD(), sim.NewRNG(2, "hdd"))
	var rnd time.Duration
	for i := 0; i < 100; i++ {
		rnd += h2.Service(rd(int64((i*7919)%100000) * 1024))
	}
	if rnd < 20*seq {
		t.Errorf("random (%v) should dwarf sequential (%v)", rnd, seq)
	}
	// Sequential throughput ballpark: 8 sectors at PerSector each.
	wantSeq := 100 * 8 * sasHDD().PerSector
	if seq != wantSeq {
		t.Errorf("sequential service = %v, want exactly transfer time %v", seq, wantSeq)
	}
}

func TestHDDAvgLatencyMsScale(t *testing.T) {
	h := NewHDD(sasHDD(), sim.NewRNG(1, "hdd"))
	avg := h.AvgLatency(block.Read)
	if avg < 5*time.Millisecond || avg > 30*time.Millisecond {
		t.Errorf("HDD calibrated latency %v outside rotational-disk range", avg)
	}
}

func TestTierLatencyGap(t *testing.T) {
	// The premise of the whole paper: SSD service is orders of magnitude
	// faster than HDD random service.
	s := NewSSD(DefaultSSDConfig(), sim.NewRNG(1, "s"))
	h := NewHDD(sasHDD(), sim.NewRNG(1, "h"))
	ratio := float64(h.AvgLatency(block.Read)) / float64(s.AvgLatency(block.Read))
	if ratio < 30 {
		t.Errorf("HDD/SSD latency ratio %.1f too small to reproduce the bottleneck dynamics", ratio)
	}
}

func TestServerServesQueue(t *testing.T) {
	eng := sim.NewEngine()
	q := ioqueue.New("ssd")
	s := NewSSD(DefaultSSDConfig(), sim.NewRNG(1, "ssd"))
	var done []*block.Request
	srv := NewServer(eng, s, q, func(r *block.Request) { done = append(done, r) })
	for i := 0; i < 50; i++ {
		q.Push(rd(int64(i)*1000), eng.Now())
	}
	srv.Kick()
	eng.RunUntilIdle()
	if len(done) != 50 {
		t.Fatalf("completed %d, want 50", len(done))
	}
	for _, r := range done {
		if r.Complete < r.Dispatch || r.Dispatch < r.Submit {
			t.Fatalf("timestamps out of order: %+v", r)
		}
		if svc := r.Complete - r.Dispatch; svc <= 0 {
			t.Fatalf("service time %v not positive", svc)
		}
	}
	if srv.Completed() != 50 {
		t.Errorf("Completed() = %d", srv.Completed())
	}
	if q.Depth() != 0 {
		t.Errorf("queue not drained: %d", q.Depth())
	}
	if srv.Inflight() != 0 {
		t.Errorf("inflight not zero at idle: %d", srv.Inflight())
	}
}

func TestServerWidthLimitsConcurrency(t *testing.T) {
	eng := sim.NewEngine()
	q := ioqueue.New("ssd", ioqueue.WithMaxMergeSectors(0))
	cfg := DefaultSSDConfig()
	cfg.Channels = 2
	s := NewSSD(cfg, sim.NewRNG(1, "ssd"))
	srv := NewServer(eng, s, q, nil)
	for i := 0; i < 10; i++ {
		q.Push(rd(int64(i)*1000), 0)
	}
	srv.Kick()
	if srv.Inflight() != 2 {
		t.Fatalf("inflight = %d, want width 2", srv.Inflight())
	}
	if q.Depth() != 8 {
		t.Fatalf("queue depth = %d, want 8", q.Depth())
	}
	eng.RunUntilIdle()
	if srv.Completed() != 10 {
		t.Fatalf("completed = %d", srv.Completed())
	}
}

func TestServerUtilization(t *testing.T) {
	eng := sim.NewEngine()
	q := ioqueue.New("hdd", ioqueue.WithMaxMergeSectors(0))
	cfg := sasHDD()
	cfg.Spindles = 1
	h := NewHDD(cfg, sim.NewRNG(1, "hdd"))
	srv := NewServer(eng, h, q, nil)
	for i := 0; i < 20; i++ {
		q.Push(rd(int64((i*7919)%100000)*1024), 0)
	}
	srv.Kick()
	eng.RunUntilIdle()
	// Saturated single spindle: utilization ≈ 1 over the busy period.
	u := srv.Utilization(eng.Now())
	if u < 0.95 || u > 1.05 {
		t.Errorf("utilization = %.3f, want ≈1 for a saturated run", u)
	}
}

func TestServerCompletionChain(t *testing.T) {
	eng := sim.NewEngine()
	q := ioqueue.New("ssd")
	s := NewSSD(DefaultSSDConfig(), sim.NewRNG(1, "ssd"))
	srv := NewServer(eng, s, q, nil)
	chained := false
	r := rd(0)
	r.OnComplete = block.CompleterFunc(func(req *block.Request) {
		chained = true
		if req.Complete == 0 {
			t.Error("OnComplete ran before completion timestamp")
		}
	})
	q.Push(r, 0)
	srv.Kick()
	eng.RunUntilIdle()
	if !chained {
		t.Fatal("OnComplete never ran")
	}
}
