package cache

import (
	"errors"
	"slices"
	"testing"
)

// tiny returns a small cache: 4 sets x 2 ways x 64 B lines = 512 B.
func tiny() *Cache {
	return New(Config{SizeBytes: 512, Ways: 2, LineBytes: 64, MSHRs: 4})
}

// woken records the waiters the cache hands to its wake function.
func woken(c *Cache) *[]Waiter {
	var got []Waiter
	c.SetWake(func(w Waiter) { got = append(got, w) })
	return &got
}

func TestMissThenFillThenHit(t *testing.T) {
	c := tiny()
	got := woken(c)
	if out := c.Access(0x100, false, &Waiter{Core: 1, Slot: 7}); out != Miss {
		t.Fatalf("first access = %v, want miss", out)
	}
	if _, wb := c.Fill(c.LineAddr(0x100)); wb {
		t.Fatal("no writeback expected on a cold fill")
	}
	if !slices.Equal(*got, []Waiter{{Core: 1, Slot: 7}}) {
		t.Fatalf("woken %v, want the one waiter", *got)
	}
	if got := c.Access(0x100, false, nil); got != Hit {
		t.Fatalf("after fill = %v, want hit", got)
	}
	if got := c.Access(0x13f, false, nil); got != Hit {
		t.Fatalf("same line, different offset = %v, want hit", got)
	}
}

func TestMergedMiss(t *testing.T) {
	c := tiny()
	got := woken(c)
	if out := c.Access(0x200, false, &Waiter{Core: 0, Slot: 3}); out != Miss {
		t.Fatal("want miss")
	}
	if out := c.Access(0x23f, false, &Waiter{Core: 2, Slot: 1}); out != MergedMiss { // same line
		t.Fatalf("second access to in-flight line = %v, want merged", out)
	}
	c.Fill(c.LineAddr(0x200))
	if want := []Waiter{{Core: 0, Slot: 3}, {Core: 2, Slot: 1}}; !slices.Equal(*got, want) {
		t.Fatalf("woken %v, want %v in merge order", *got, want)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Merged != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMSHRExhaustionRejects(t *testing.T) {
	c := tiny()
	for i := 0; i < 4; i++ {
		if got := c.Access(uint64(i)*64, false, nil); got != Miss {
			t.Fatalf("access %d = %v, want miss", i, got)
		}
	}
	if got := c.Access(4*64, false, nil); got != Rejected {
		t.Fatalf("5th distinct miss = %v, want rejected", got)
	}
	if c.InflightMisses() != 4 {
		t.Fatalf("InflightMisses = %d", c.InflightMisses())
	}
}

func TestLRUEvictionAndWriteback(t *testing.T) {
	c := tiny() // 4 sets → set = (addr>>6)&3; same set every 256 bytes
	// Fill both ways of set 0, first line dirty.
	c.Access(0x000, true, nil)
	c.Fill(0x000)
	c.Access(0x100, false, nil)
	c.Fill(0x100)
	// Touch 0x000 so 0x100 becomes LRU.
	if got := c.Access(0x000, false, nil); got != Hit {
		t.Fatal("0x000 should hit")
	}
	// Allocate a third line in set 0: evicts 0x100 (clean, no writeback).
	c.Access(0x200, false, nil)
	if victim, wb := c.Fill(0x200); wb {
		t.Fatalf("clean eviction should not write back (victim %#x)", victim)
	}
	if c.Contains(0x100) {
		t.Fatal("0x100 should have been evicted (LRU)")
	}
	if !c.Contains(0x000) {
		t.Fatal("0x000 (recently used) should survive")
	}
	// Fourth line evicts dirty 0x000: writeback required, correct address.
	c.Access(0x300, false, nil)
	victim, wb := c.Fill(0x300)
	if !wb || victim != 0x000 {
		t.Fatalf("dirty eviction: wb=%v victim=%#x, want true/0x0", wb, victim)
	}
}

func TestWriteAllocateMarksDirty(t *testing.T) {
	c := tiny()
	c.Access(0x000, true, nil) // store miss
	c.Fill(0x000)
	c.Access(0x100, false, nil)
	c.Fill(0x100)
	// Third line in set 0 evicts the LRU line 0x000, which the store made
	// dirty: must write back.
	c.Access(0x200, false, nil)
	victim, wb := c.Fill(0x200)
	if !wb || victim != 0x000 {
		t.Fatalf("write-allocated line should be dirty: wb=%v victim=%#x", wb, victim)
	}
}

func TestStoreMergeMarksDirty(t *testing.T) {
	c := tiny()
	c.Access(0x000, false, nil) // load miss
	c.Access(0x000, true, nil)  // store merged into the same MSHR
	c.Fill(0x000)
	c.Access(0x100, false, nil)
	c.Fill(0x100)
	c.Access(0x200, false, nil)
	victim, wb := c.Fill(0x200) // evicts LRU 0x000, dirtied by the merge
	if !wb || victim != 0x000 {
		t.Fatalf("line dirtied by a merged store must write back: wb=%v victim=%#x", wb, victim)
	}
}

func TestFillWithoutMSHRPanics(t *testing.T) {
	c := tiny()
	defer func() {
		if recover() == nil {
			t.Fatal("Fill without MSHR should panic")
		}
	}()
	c.Fill(0x40)
}

func TestDefaultsMatchPaperTable2(t *testing.T) {
	cfg := Config{}.Defaults()
	if cfg.SizeBytes != 8<<20 || cfg.Ways != 8 || cfg.LineBytes != 64 {
		t.Fatalf("defaults %+v do not match Table 2 (8 MiB, 8-way, 64 B)", cfg)
	}
	c := New(Config{})
	if sets := len(c.lines) / c.ways; sets != (8<<20)/(8*64) {
		t.Fatalf("set count = %d", sets)
	}
}

func TestVictimAddressRoundTrip(t *testing.T) {
	c := New(Config{SizeBytes: 1 << 14, Ways: 2, LineBytes: 64, MSHRs: 8})
	// A line's reconstructed victim address must map back to the same set
	// and tag.
	addrs := []uint64{0x0, 0x40, 0x1000, 0xdeadbe40, 0x7fffffc0}
	for _, a := range addrs {
		la := c.LineAddr(a)
		set, tag := c.locate(la)
		if got := c.reconstruct(set, tag); got != la {
			t.Fatalf("reconstruct(%#x) = %#x", la, got)
		}
	}
}

func TestHitRateOnLoop(t *testing.T) {
	// A working set that fits the cache should be all hits after warmup.
	c := New(Config{SizeBytes: 1 << 14, Ways: 4, LineBytes: 64, MSHRs: 64})
	lines := (1 << 14) / 64
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			addr := uint64(i * 64)
			out := c.Access(addr, false, nil)
			if pass == 0 && out == Miss {
				c.Fill(addr)
			} else if pass > 0 && out != Hit {
				t.Fatalf("pass %d line %d: %v, want hit", pass, i, out)
			}
		}
	}
}

// TestVictimAddressRoundTripMaxTag reconstructs the line address of the
// largest tag each geometry allows, including the smallest geometry Validate
// accepts (LineBytes × sets = 4), where the tag reaches bit 61 — the bit just
// below the packed valid and dirty flags.
func TestVictimAddressRoundTripMaxTag(t *testing.T) {
	for _, cfg := range []Config{
		{}, // the paper's 8 MiB LLC
		{SizeBytes: 1 << 14, Ways: 2, LineBytes: 64},
		{SizeBytes: 4, Ways: 1, LineBytes: 4},
		{SizeBytes: 8, Ways: 2, LineBytes: 1},
	} {
		c := New(cfg)
		la := c.LineAddr(^uint64(0))
		set, tag := c.locate(la)
		if tag&^tagMask != 0 {
			t.Fatalf("%+v: max tag %#x overlaps the flag bits", cfg, tag)
		}
		if got := c.reconstruct(set, tag); got != la {
			t.Fatalf("%+v: reconstruct(max line %#x) = %#x", cfg, la, got)
		}
		// Through the public path too: dirty-fill the max line, then evict
		// it from its set and check the writeback address.
		c.Access(la, true, nil)
		c.Fill(la)
		if !c.Contains(la) {
			t.Fatalf("%+v: max line not resident after fill", cfg)
		}
		stride := uint64(c.cfg.LineBytes) << c.setBits // same set, next tag down
		var victim uint64
		var wb bool
		for w := 1; w <= c.ways && !wb; w++ {
			a := la - uint64(w)*stride
			c.Access(a, false, nil)
			victim, wb = c.Fill(a)
		}
		if !wb || victim != la {
			t.Fatalf("%+v: evicting the max line: wb=%v victim=%#x, want %#x", cfg, wb, victim, la)
		}
	}
}

// TestValidateRejects checks each rejected geometry returns an error that
// wraps ErrInvalidConfig.
func TestValidateRejects(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero size":          {SizeBytes: 0, Ways: 8, LineBytes: 64},
		"negative ways":      {SizeBytes: 1 << 20, Ways: -1, LineBytes: 64},
		"zero line":          {SizeBytes: 1 << 20, Ways: 8, LineBytes: 0},
		"negative latency":   {SizeBytes: 1 << 20, Ways: 8, LineBytes: 64, HitLatency: -1},
		"negative mshrs":     {SizeBytes: 1 << 20, Ways: 8, LineBytes: 64, MSHRs: -1},
		"line over size":     {SizeBytes: 32, Ways: 1, LineBytes: 64},
		"ways over size":     {SizeBytes: 1 << 10, Ways: 32, LineBytes: 64},
		"overflowing ways":   {SizeBytes: 1 << 20, Ways: 1 << 62, LineBytes: 64},
		"three ways":         {SizeBytes: 8 << 20, Ways: 3, LineBytes: 64},
		"non-pow2 line":      {SizeBytes: 96 * 4, Ways: 1, LineBytes: 96},
		"tag reaches flags":  {SizeBytes: 2, Ways: 1, LineBytes: 1},
		"one line of 2 B":    {SizeBytes: 2, Ways: 1, LineBytes: 2},
		"two sets of 1 B":    {SizeBytes: 4, Ways: 2, LineBytes: 1},
		"one byte, one line": {SizeBytes: 1, Ways: 1, LineBytes: 1},
	} {
		if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: Validate(%+v) = %v, want ErrInvalidConfig", name, cfg, err)
		}
	}
	for _, cfg := range []Config{
		Config{}.Defaults(),
		{SizeBytes: 4, Ways: 1, LineBytes: 1},
		{SizeBytes: 4, Ways: 1, LineBytes: 4},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
}

// TestCloneIsDeepCopy checks a clone carries the master's lines, statistics
// and LRU clock, and that mutating it leaves the master untouched.
func TestCloneIsDeepCopy(t *testing.T) {
	m := tiny()
	for _, a := range []uint64{0x000, 0x100, 0x040} {
		m.Access(a, a == 0x100, nil)
		m.Fill(a)
	}
	m.Access(0x000, false, nil) // a hit, so the stats and clock move again
	lines, st, tick := slices.Clone(m.lines), m.Stats(), m.tick

	c := m.Clone()
	if !slices.Equal(c.lines, lines) || c.Stats() != st || c.tick != tick {
		t.Fatalf("clone differs from master: stats %+v vs %+v, tick %d vs %d", c.Stats(), st, c.tick, tick)
	}
	// Evict the dirty 0x100 from the clone and fill new lines.
	c.Access(0x200, true, nil)
	c.Fill(0x200)
	c.Access(0x300, false, nil)
	c.Fill(0x300)
	c.Access(0x040, true, nil)
	if slices.Equal(c.lines, lines) {
		t.Fatal("clone mutations did not change the clone")
	}
	if !slices.Equal(m.lines, lines) || m.Stats() != st || m.tick != tick {
		t.Fatal("mutating the clone changed the master")
	}
	if !m.Contains(0x100) || m.Contains(0x200) {
		t.Fatal("master residency changed through the clone")
	}
	// The master and an independent twin driven identically stay equal.
	twin := m.Clone()
	for _, cc := range []*Cache{m, twin} {
		cc.Access(0x500, false, nil)
		cc.Fill(0x500)
	}
	if !slices.Equal(m.lines, twin.lines) || m.Stats() != twin.Stats() || m.tick != twin.tick {
		t.Fatal("identically driven master and clone diverged")
	}
}

// TestMSHRReuseStartsClean checks a recycled MSHR carries neither the
// waiters nor the dirty flag of its previous miss into the next one.
func TestMSHRReuseStartsClean(t *testing.T) {
	c := New(Config{SizeBytes: 512, Ways: 2, LineBytes: 64, MSHRs: 1})
	got := woken(c)
	// A store miss with a merged load: dirty, one waiter.
	c.Access(0x000, true, nil)
	c.Access(0x000, false, &Waiter{Core: 0, Slot: 5})
	c.Fill(0x000)
	*got = nil
	// The only MSHR is recycled for a clean load miss without waiters.
	if out := c.Access(0x100, false, nil); out != Miss {
		t.Fatalf("second miss = %v, want miss on the recycled MSHR", out)
	}
	c.Fill(0x100)
	if len(*got) != 0 {
		t.Fatalf("recycled MSHR woke stale waiters %v", *got)
	}
	// A third line in the same set evicts the LRU line (0x000, dirty);
	// a fourth evicts 0x100, which must leave clean.
	c.Access(0x200, false, nil)
	if v, wb := c.Fill(0x200); !wb || v != 0x000 {
		t.Fatalf("evicting the stored line = (%#x, %v), want a writeback of 0x0", v, wb)
	}
	c.Access(0x300, false, nil)
	if v, wb := c.Fill(0x300); wb {
		t.Fatalf("evicting 0x100 wrote back %#x: the recycled MSHR kept the dirty flag", v)
	}
	if c.InflightMisses() != 0 || len(c.mshrs) != 1 {
		t.Fatalf("miss table: %d in flight, %d entries; want 0 and 1", c.InflightMisses(), len(c.mshrs))
	}
}

// TestCloneWithMissesInFlightPanics checks Clone refuses a cache with misses
// in flight: their fetches belong to the original system.
func TestCloneWithMissesInFlightPanics(t *testing.T) {
	c := tiny()
	c.Access(0x40, false, &Waiter{})
	defer func() {
		if recover() == nil {
			t.Fatal("Clone with a miss in flight should panic")
		}
	}()
	c.Clone()
}
