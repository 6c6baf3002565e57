package device

import (
	"testing"
	"time"

	"lbica/internal/block"
	"lbica/internal/ioqueue"
	"lbica/internal/sim"
)

func distCfg() HDDConfig {
	cfg := sasHDD()
	cfg.Spindles = 1
	cfg.DistanceSeek = true
	cfg.StrokeSectors = 1 << 24
	return cfg
}

func TestDistanceSeekScalesWithTravel(t *testing.T) {
	h := NewHDD(distCfg(), sim.NewRNG(1, "h"))
	h.Service(rd(0)) // park the head
	var shortSum time.Duration
	for i := 0; i < 50; i++ {
		h.lastEnd = 0
		shortSum += h.Service(rd(4096)) // ~4k sectors of travel
	}
	h2 := NewHDD(distCfg(), sim.NewRNG(1, "h"))
	h2.Service(rd(0))
	var longSum time.Duration
	for i := 0; i < 50; i++ {
		h2.lastEnd = 0
		longSum += h2.Service(rd(1 << 23)) // half-stroke travel
	}
	if longSum < shortSum*2 {
		t.Errorf("long seeks (%v) not clearly above short seeks (%v)", longSum/50, shortSum/50)
	}
}

// The feature pairing that motivates both options: under the distance-seek
// model, LOOK dispatch must beat FIFO on a random read backlog.
func TestElevatorBeatsFIFOUnderDistanceSeek(t *testing.T) {
	run := func(d ioqueue.Discipline) time.Duration {
		eng := sim.NewEngine()
		q := ioqueue.New("hdd", ioqueue.WithDiscipline(d), ioqueue.WithMaxMergeSectors(0))
		h := NewHDD(distCfg(), sim.NewRNG(2, "h"))
		srv := NewServer(eng, h, q, nil)
		// A scrambled backlog across the stroke.
		for i := 0; i < 200; i++ {
			lba := int64((i*579917)%(1<<21)) * 8
			q.Push(&block.Request{ID: uint64(i), Origin: block.ReadMiss,
				Extent: block.Extent{LBA: lba, Sectors: 8}}, 0)
		}
		srv.Kick()
		eng.RunUntilIdle()
		return eng.Now()
	}
	fifo := run(ioqueue.FIFODispatch)
	look := run(ioqueue.LookDispatch)
	if float64(look) > 0.7*float64(fifo) {
		t.Errorf("LOOK drain %v not clearly faster than FIFO %v", look, fifo)
	}
}

// With the default average-seek model the disciplines must perform about
// the same — confirming the calibrated experiments are insensitive to the
// opt-in features.
func TestDisciplinesEquivalentUnderAverageSeek(t *testing.T) {
	run := func(d ioqueue.Discipline) time.Duration {
		eng := sim.NewEngine()
		q := ioqueue.New("hdd", ioqueue.WithDiscipline(d), ioqueue.WithMaxMergeSectors(0))
		cfg := sasHDD()
		cfg.Spindles = 1
		h := NewHDD(cfg, sim.NewRNG(3, "h"))
		srv := NewServer(eng, h, q, nil)
		for i := 0; i < 200; i++ {
			lba := int64((i*579917)%(1<<21)) * 8
			q.Push(&block.Request{ID: uint64(i), Origin: block.ReadMiss,
				Extent: block.Extent{LBA: lba, Sectors: 8}}, 0)
		}
		srv.Kick()
		eng.RunUntilIdle()
		return eng.Now()
	}
	fifo := run(ioqueue.FIFODispatch)
	look := run(ioqueue.LookDispatch)
	ratio := float64(look) / float64(fifo)
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("disciplines diverge under average-seek model: LOOK/FIFO = %.2f", ratio)
	}
}
