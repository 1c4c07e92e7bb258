package cpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"clrdram/internal/trace"
)

// TestInstructionConservation: for arbitrary finite traces, the core
// retires exactly the number of instructions the trace contains, no matter
// the memory latency pattern.
func TestInstructionConservation(t *testing.T) {
	f := func(bubbles []uint8, latSeed int64) bool {
		recs := make([]trace.Record, len(bubbles))
		var want uint64
		rng := rand.New(rand.NewSource(latSeed))
		for i, bb := range bubbles {
			recs[i] = trace.Record{
				Bubble: int(bb % 9),
				Addr:   uint64(rng.Intn(1 << 20)),
				Write:  rng.Intn(3) == 0,
			}
			want += uint64(recs[i].Instructions())
		}
		if len(recs) == 0 {
			return true
		}
		p := &fakePort{latency: int64(1 + rng.Intn(50))}
		c := New(0, Config{}, &trace.SliceReader{Records: recs}, p, 0)
		p.core = c
		for i := 0; i < 2_000_000 && !c.Finished(); i++ {
			c.Tick()
			p.tick()
		}
		return c.Finished() && c.Retired() == want
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMemAccessesMatchTraceRecords: every trace record produces exactly one
// memory access at the port.
func TestMemAccessesMatchTraceRecords(t *testing.T) {
	const n = 300
	recs := recordsOf(n, 2, false)
	for i := range recs {
		recs[i].Write = i%4 == 0
	}
	p := &fakePort{latency: 7}
	c := New(0, Config{}, &trace.SliceReader{Records: recs}, p, 0)
	p.core = c
	for i := 0; i < 1_000_000 && !c.Finished(); i++ {
		c.Tick()
		p.tick()
	}
	if !c.Finished() {
		t.Fatal("core did not finish")
	}
	if got := p.loads + p.stores; got != n {
		t.Fatalf("port saw %d accesses, want %d", got, n)
	}
	if c.Stats().MemAccesses != n {
		t.Fatalf("MemAccesses = %d, want %d", c.Stats().MemAccesses, n)
	}
}

// TestRetirementIsInOrder: a fast load issued after a slow load cannot
// retire before it — retired counts only move when the window head drains.
func TestRetirementIsInOrder(t *testing.T) {
	recs := []trace.Record{
		{Bubble: 0, Addr: 0x100}, // slow (first in order)
		{Bubble: 0, Addr: 0x200}, // fast
	}
	p := &selectivePort{slow: 0x100, slowLatency: 400, fastLatency: 5}
	c := New(0, Config{}, &trace.SliceReader{Records: recs}, p, 0)
	p.core = c
	for i := 0; i < 100; i++ {
		c.Tick()
		p.tick()
	}
	// Fast load's data returned long ago, but nothing may retire past the
	// blocked head (2 loads in flight, 0 retired).
	if c.Retired() != 0 {
		t.Fatalf("retired %d instructions while the head load is outstanding", c.Retired())
	}
	for i := 0; i < 2000 && !c.Finished(); i++ {
		c.Tick()
		p.tick()
	}
	if c.Retired() != 2 {
		t.Fatalf("retired %d, want 2", c.Retired())
	}
}

// selectivePort gives one address a much longer latency.
type selectivePort struct {
	slow                     uint64
	slowLatency, fastLatency int64
	cycle                    int64
	pending                  []fakeReq
	core                     *Core
}

func (s *selectivePort) Load(core, slot int, addr uint64) bool {
	lat := s.fastLatency
	if addr == s.slow {
		lat = s.slowLatency
	}
	s.pending = append(s.pending, fakeReq{due: s.cycle + lat, slot: slot})
	return true
}

func (s *selectivePort) Store(core int, addr uint64) bool { return true }

func (s *selectivePort) tick() {
	s.cycle++
	kept := s.pending[:0]
	for _, r := range s.pending {
		if r.due <= s.cycle {
			s.core.LoadDone(r.slot)
		} else {
			kept = append(kept, r)
		}
	}
	s.pending = kept
}
