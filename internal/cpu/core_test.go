package cpu

import (
	"testing"

	"clrdram/internal/trace"
)

// fakePort is a MemPort with a fixed load latency, driven by the test clock.
type fakePort struct {
	latency   int64
	cycle     int64
	pending   []fakeReq
	loads     int
	stores    int
	refuseAll bool
	core      *Core // receives LoadDone; set once the core is built
}

type fakeReq struct {
	due  int64
	slot int
}

func (f *fakePort) Load(core, slot int, addr uint64) bool {
	if f.refuseAll {
		return false
	}
	f.loads++
	f.pending = append(f.pending, fakeReq{due: f.cycle + f.latency, slot: slot})
	return true
}

func (f *fakePort) Store(core int, addr uint64) bool {
	if f.refuseAll {
		return false
	}
	f.stores++
	return true
}

func (f *fakePort) tick() {
	f.cycle++
	kept := f.pending[:0]
	for _, r := range f.pending {
		if r.due <= f.cycle {
			f.core.LoadDone(r.slot)
		} else {
			kept = append(kept, r)
		}
	}
	f.pending = kept
}

// run ticks core and port together until the core finishes or maxCycles.
func run(t *testing.T, c *Core, p *fakePort, maxCycles int) {
	t.Helper()
	for i := 0; i < maxCycles && !c.Finished(); i++ {
		c.Tick()
		p.tick()
	}
	if !c.Finished() {
		t.Fatalf("core did not finish in %d cycles (retired %d)", maxCycles, c.Retired())
	}
}

// bubbleOnly builds a trace of pure compute records (large bubbles).
func recordsOf(n, bubble int, write bool) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{Bubble: bubble, Addr: uint64(i) * 64, Write: write}
	}
	return recs
}

func TestComputeBoundIPCApproachesWidth(t *testing.T) {
	// With tiny memory latency and huge bubbles, IPC should approach the
	// issue width of 4.
	p := &fakePort{latency: 1}
	rd := &trace.SliceReader{Records: recordsOf(1000, 399, false), Loop: true}
	c := New(0, Config{}, rd, p, 100_000)
	p.core = c
	run(t, c, p, 1_000_000)
	ipc := c.Stats().IPC()
	if ipc < 3.5 || ipc > 4.0 {
		t.Fatalf("compute-bound IPC = %.2f, want ≈4", ipc)
	}
}

func TestMemoryLatencyReducesIPC(t *testing.T) {
	// Same instruction mix, two latencies: the slower memory must yield
	// lower IPC (the core of the paper's performance argument).
	mkIPC := func(latency int64) float64 {
		p := &fakePort{latency: latency}
		rd := &trace.SliceReader{Records: recordsOf(1000, 9, false), Loop: true}
		c := New(0, Config{}, rd, p, 50_000)
		p.core = c
		run(t, c, p, 10_000_000)
		return c.Stats().IPC()
	}
	fast := mkIPC(20)
	slow := mkIPC(400)
	if slow >= fast {
		t.Fatalf("IPC with 400-cycle memory (%.3f) should be below 20-cycle (%.3f)", slow, fast)
	}
	if fast/slow < 1.5 {
		t.Fatalf("latency sensitivity too weak: fast=%.3f slow=%.3f", fast, slow)
	}
}

func TestMSHRLimitCapsOutstandingLoads(t *testing.T) {
	p := &fakePort{latency: 10_000} // loads never return during the test
	rd := &trace.SliceReader{Records: recordsOf(100, 0, false), Loop: true}
	c := New(0, Config{MSHRs: 8}, rd, p, 0)
	p.core = c
	for i := 0; i < 100; i++ {
		c.Tick()
	}
	if p.loads != 8 {
		t.Fatalf("%d loads issued with 8 MSHRs, want exactly 8", p.loads)
	}
}

func TestWindowLimitCapsInflightInstructions(t *testing.T) {
	// With a large MSHR count, the 128-entry window becomes the limit:
	// after the head blocks on a never-returning load, at most 127 more
	// instructions can issue.
	p := &fakePort{latency: 1 << 40}
	rd := &trace.SliceReader{Records: recordsOf(10000, 3, false), Loop: true}
	c := New(0, Config{MSHRs: 1 << 20, WindowSize: 128}, rd, p, 0)
	p.core = c
	for i := 0; i < 1000; i++ {
		c.Tick()
	}
	if c.count != 128 {
		t.Fatalf("window occupancy = %d, want 128 (full)", c.count)
	}
	if c.Retired() == 0 {
		t.Fatal("instructions before the first load should have retired")
	}
}

func TestStoresArePosted(t *testing.T) {
	// Stores never block retirement even with infinite store latency
	// conceptually; Store() accepting is enough.
	p := &fakePort{latency: 1}
	rd := &trace.SliceReader{Records: recordsOf(1000, 4, true), Loop: true}
	c := New(0, Config{}, rd, p, 10_000)
	p.core = c
	run(t, c, p, 100_000)
	if p.stores == 0 {
		t.Fatal("no stores reached the port")
	}
	if p.loads != 0 {
		t.Fatal("store-only trace should not issue loads")
	}
	if ipc := c.Stats().IPC(); ipc < 3.0 {
		t.Fatalf("posted stores should not throttle IPC (got %.2f)", ipc)
	}
}

func TestBackpressureRetries(t *testing.T) {
	p := &fakePort{latency: 5, refuseAll: true}
	rd := &trace.SliceReader{Records: recordsOf(10, 0, false), Loop: true}
	c := New(0, Config{}, rd, p, 0)
	p.core = c
	for i := 0; i < 50; i++ {
		c.Tick()
		p.tick()
	}
	if p.loads != 0 {
		t.Fatal("refusing port should see no accepted loads")
	}
	// Un-refuse: the core must make progress again.
	p.refuseAll = false
	for i := 0; i < 50; i++ {
		c.Tick()
		p.tick()
	}
	if p.loads == 0 {
		t.Fatal("core did not retry after backpressure cleared")
	}
}

func TestEOFFinishesCore(t *testing.T) {
	p := &fakePort{latency: 2}
	rd := &trace.SliceReader{Records: recordsOf(5, 2, false)} // finite
	c := New(0, Config{}, rd, p, 0)
	p.core = c
	run(t, c, p, 10_000)
	// 5 records x (2 bubbles + 1 mem) = 15 instructions.
	if c.Retired() != 15 {
		t.Fatalf("retired %d, want 15", c.Retired())
	}
}

func TestTargetFreezesStats(t *testing.T) {
	p := &fakePort{latency: 2}
	rd := &trace.SliceReader{Records: recordsOf(100, 1, false), Loop: true}
	c := New(0, Config{}, rd, p, 50)
	p.core = c
	run(t, c, p, 10_000)
	frozen := c.Stats()
	// Keep running past the target: frozen stats must not change.
	for i := 0; i < 100; i++ {
		c.Tick()
		p.tick()
	}
	if got := c.Stats(); got != frozen {
		t.Fatalf("stats changed after finish: %+v vs %+v", got, frozen)
	}
	if c.Retired() <= frozen.Instructions {
		t.Fatal("core should keep executing after finishing (memory contention modeling)")
	}
}

func TestCountLLCMiss(t *testing.T) {
	p := &fakePort{latency: 1}
	c := New(0, Config{}, &trace.SliceReader{}, p, 0)
	p.core = c
	c.CountLLCMiss()
	c.CountLLCMiss()
	if c.Stats().LLCMisses != 2 {
		t.Fatal("CountLLCMiss not reflected in stats")
	}
}
