package iostat

import (
	"testing"
	"time"

	"lbica/internal/block"
)

// fakeQueue is a scriptable QueueReader.
type fakeQueue struct {
	depth    int
	census   block.Census
	arrivals block.Census
}

func (f *fakeQueue) Depth() int             { return f.depth }
func (f *fakeQueue) Census() block.Census   { return f.census }
func (f *fakeQueue) Arrivals() block.Census { return f.arrivals }

func newMon() (*Monitor, *fakeQueue, *fakeQueue) {
	ssd, hdd := &fakeQueue{}, &fakeQueue{}
	m := New(Config{
		Every:      time.Second,
		SSDLatency: 100 * time.Microsecond,
		HDDLatency: 10 * time.Millisecond,
	}, ssd, hdd)
	return m, ssd, hdd
}

func TestQueueTimeEq1(t *testing.T) {
	if got := QueueTime(50, 100*time.Microsecond); got != 5*time.Millisecond {
		t.Errorf("QueueTime = %v", got)
	}
	if QueueTime(0, time.Second) != 0 {
		t.Error("empty queue must have zero queue time")
	}
}

func TestTickComputesLoadAndBottleneck(t *testing.T) {
	m, ssd, hdd := newMon()
	// SSD queue sits at 200 for the whole interval; HDD briefly touches 1.
	ssd.depth = 200
	ssd.census[block.AppRead] = 150
	ssd.census[block.Promote] = 50
	m.NoteDepth(SSD, 0)
	hdd.depth = 1
	m.NoteDepth(HDD, 0)
	hdd.depth = 0
	m.NoteDepth(HDD, 100*time.Millisecond) // HDD busy only 10% of the interval
	s := m.Tick(time.Second)

	if s.SSDDepthMax != 200 || s.SSDDepth != 200 {
		t.Errorf("depths = max %d end %d", s.SSDDepthMax, s.SSDDepth)
	}
	// Max-based load (the figures): 200 × 100µs and 1 × 10ms.
	if s.CacheLoad != 20*time.Millisecond {
		t.Errorf("cache load = %v", s.CacheLoad)
	}
	if s.DiskLoad != 10*time.Millisecond {
		t.Errorf("disk load = %v", s.DiskLoad)
	}
	// Average-based detector input: SSD avg 200 → 20ms; HDD avg 0.1 → 1ms.
	if s.SSDDepthAvg < 199 || s.SSDDepthAvg > 200 {
		t.Errorf("ssd depth avg = %v", s.SSDDepthAvg)
	}
	if s.HDDDepthAvg < 0.09 || s.HDDDepthAvg > 0.11 {
		t.Errorf("hdd depth avg = %v", s.HDDDepthAvg)
	}
	if !s.Bottleneck {
		t.Error("bottleneck not flagged (20ms avg cache vs 1ms avg disk)")
	}
	if s.Census[block.AppRead] != 150 {
		t.Errorf("census not captured at peak: %v", s.Census)
	}
}

func TestBottleneckUsesAveragesNotPeaks(t *testing.T) {
	m, ssd, hdd := newMon()
	// A single instantaneous HDD spike to 500 (5s max estimate) but only
	// for 1µs of the interval; the SSD holds 100 throughout.
	ssd.depth = 100
	m.NoteDepth(SSD, 0)
	hdd.depth = 500
	m.NoteDepth(HDD, 0)
	hdd.depth = 0
	m.NoteDepth(HDD, time.Microsecond)
	s := m.Tick(time.Second)
	if s.DiskLoad <= s.CacheLoad {
		t.Fatalf("peak-based loads should favor the disk spike: %v vs %v", s.DiskLoad, s.CacheLoad)
	}
	if !s.Bottleneck {
		t.Error("transient disk spike masked the sustained SSD backlog")
	}
}

func TestCensusSnapshotAtPeakNotEnd(t *testing.T) {
	m, ssd, _ := newMon()
	ssd.depth = 100
	ssd.census[block.AppWrite] = 100
	m.NoteDepth(SSD, 0)
	// Queue drains and refills lower with a different mix.
	ssd.depth = 10
	ssd.census = block.Census{}
	ssd.census[block.Promote] = 10
	m.NoteDepth(SSD, 500*time.Millisecond)
	s := m.Tick(time.Second)
	if s.Census[block.AppWrite] != 100 || s.Census[block.Promote] != 0 {
		t.Errorf("census = %v, want the peak-time mix", s.Census)
	}
}

func TestIntervalRollover(t *testing.T) {
	m, ssd, _ := newMon()
	ssd.depth = 10
	m.NoteDepth(SSD, 0)
	s0 := m.Tick(time.Second)
	if s0.Interval != 0 {
		t.Errorf("first interval = %d", s0.Interval)
	}
	// Next interval: the queue is still at 10 (no depth change events),
	// so the average must carry over even with no NoteDepth calls.
	s1 := m.Tick(2 * time.Second)
	if s1.Interval != 1 {
		t.Errorf("second interval = %d", s1.Interval)
	}
	if s1.SSDDepthMax != 0 {
		t.Errorf("depth max leaked across intervals: %d", s1.SSDDepthMax)
	}
	if s1.SSDDepthAvg < 9.99 || s1.SSDDepthAvg > 10.01 {
		t.Errorf("steady queue average lost at rollover: %v", s1.SSDDepthAvg)
	}
	if s1.Start != time.Second || s1.End != 2*time.Second {
		t.Errorf("interval bounds = [%v,%v]", s1.Start, s1.End)
	}
	if len(m.Samples()) != 2 {
		t.Errorf("samples = %d", len(m.Samples()))
	}
}

func TestCompletionAccounting(t *testing.T) {
	m, _, _ := newMon()
	m.NoteCompletion(SSD, &block.Request{Submit: 0, Dispatch: 10, Complete: 100})
	m.NoteCompletion(SSD, &block.Request{Submit: 0, Dispatch: 10, Complete: 300})
	m.NoteCompletion(HDD, &block.Request{Submit: 0, Dispatch: 0, Complete: 1000})
	m.NoteAppDone(500)
	s := m.Tick(time.Second)
	if s.SSDCompleted != 2 || s.HDDCompleted != 1 {
		t.Errorf("completed = %d/%d", s.SSDCompleted, s.HDDCompleted)
	}
	if s.SSDAwait != 200 {
		t.Errorf("ssd await = %v", s.SSDAwait)
	}
	if s.SSDMaxLatency != 300 {
		t.Errorf("ssd max = %v", s.SSDMaxLatency)
	}
	if s.AppCompleted != 1 || s.AppAwait != 500 {
		t.Errorf("app = %d %v", s.AppCompleted, s.AppAwait)
	}
}

func TestOnCloseCallback(t *testing.T) {
	m, _, _ := newMon()
	var got []Sample
	m.OnClose(func(s Sample) { got = append(got, s) })
	m.Tick(time.Second)
	m.Tick(2 * time.Second)
	if len(got) != 2 || got[1].Interval != 1 {
		t.Fatalf("callbacks = %v", got)
	}
}

func TestDefaultInterval(t *testing.T) {
	m := New(Config{}, &fakeQueue{}, &fakeQueue{})
	if m.Every() != time.Second {
		t.Errorf("default interval = %v", m.Every())
	}
}
