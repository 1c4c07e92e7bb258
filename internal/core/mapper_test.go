package core

import (
	"testing"

	"clrdram/internal/dram"
	"clrdram/internal/trace"
)

func devCfg() dram.Config {
	cfg := dram.Standard16Gb()
	cfg.Rows = 1 << 10
	return cfg
}

// identityRanking returns pages in ascending order (page 0 hottest).
func identityRanking(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

func TestBuildMappingHotColdSplit(t *testing.T) {
	const pages = 256
	m, err := BuildMapping(devCfg(), CLR(0.25), identityRanking(pages), pages)
	if err != nil {
		t.Fatal(err)
	}
	// 25% of the workload's pages are hot.
	if m.HotPages() != 64 {
		t.Fatalf("HotPages = %d, want 64", m.HotPages())
	}
	hpRows := m.HPRowCount()
	if hpRows != 256 { // 25% of 1024 rows
		t.Fatalf("HPRowCount = %d, want 256", hpRows)
	}
	for p := 0; p < pages; p++ {
		addr := uint64(p) * PageBytes
		da := m.Translate(addr)
		hot := m.IsHot(addr)
		if (p < 64) != hot {
			t.Fatalf("page %d hot=%v, want %v", p, hot, p < 64)
		}
		if hot && da.Row >= hpRows {
			t.Fatalf("hot page %d mapped to max-capacity row %d", p, da.Row)
		}
		if !hot && da.Row < hpRows {
			t.Fatalf("cold page %d mapped to high-performance row %d", p, da.Row)
		}
	}
}

func TestTranslateDistinctFrames(t *testing.T) {
	// No two pages may share a (bank,row,slot) frame.
	const pages = 512
	m, err := BuildMapping(devCfg(), CLR(0.5), identityRanking(pages), pages)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[3]int]int{}
	for p := 0; p < pages; p++ {
		da := m.Translate(uint64(p) * PageBytes)
		slot := da.Column / pageLines
		key := [3]int{da.Bank, da.Row, slot}
		if prev, dup := seen[key]; dup {
			t.Fatalf("pages %d and %d share frame %v", prev, p, key)
		}
		seen[key] = p
	}
}

func TestTranslateLinesWithinPage(t *testing.T) {
	const pages = 64
	m, err := BuildMapping(devCfg(), CLR(0.25), identityRanking(pages), pages)
	if err != nil {
		t.Fatal(err)
	}
	for _, page := range []int{0, 20, 63} {
		base := m.Translate(uint64(page) * PageBytes)
		for line := 0; line < pageLines; line++ {
			addr := uint64(page)*PageBytes + uint64(line)*64
			da := m.Translate(addr)
			if da.Bank != base.Bank || da.Row != base.Row {
				t.Fatalf("page %d line %d left its frame", page, line)
			}
			if da.Column != base.Column+line {
				t.Fatalf("page %d line %d column = %d, want %d", page, line, da.Column, base.Column+line)
			}
		}
	}
}

func TestHotPagesSpreadAcrossBanks(t *testing.T) {
	const pages = 64
	m, err := BuildMapping(devCfg(), CLR(1.0), identityRanking(pages), pages)
	if err != nil {
		t.Fatal(err)
	}
	banks := map[int]bool{}
	for p := 0; p < 16; p++ {
		banks[m.Translate(uint64(p)*PageBytes).Bank] = true
	}
	if len(banks) != 16 {
		t.Fatalf("first 16 hot pages use %d banks, want 16 (bank-parallel striping)", len(banks))
	}
}

func TestColdPagesPreserveAdjacency(t *testing.T) {
	// With no hot pages, consecutive page pairs share a row (8 KiB rows).
	const pages = 64
	m, err := BuildMapping(devCfg(), Baseline(), identityRanking(pages), pages)
	if err != nil {
		t.Fatal(err)
	}
	a := m.Translate(0)
	b := m.Translate(PageBytes)
	if a.Bank != b.Bank || a.Row != b.Row {
		t.Fatal("page pair 0/1 should share a bank-row in max-capacity mapping")
	}
	c := m.Translate(2 * PageBytes)
	if c.Bank == a.Bank {
		t.Fatal("page 2 should move to the next bank")
	}
}

func TestBuildMappingErrors(t *testing.T) {
	if _, err := BuildMapping(devCfg(), CLR(0.25), identityRanking(10), 20); err == nil {
		t.Error("short ranking should error")
	}
	dup := identityRanking(10)
	dup[1] = 0
	if _, err := BuildMapping(devCfg(), CLR(0.25), dup, 10); err == nil {
		t.Error("duplicate ranking entry should error")
	}
	if _, err := BuildMapping(devCfg(), CLR(0.25), nil, 0); err == nil {
		t.Error("zero pages should error")
	}
}

func TestBuildMappingCapacityLimits(t *testing.T) {
	// A footprint larger than the high-performance region must be rejected
	// when fully hot.
	small := devCfg()
	small.Rows = 4 // 4 rows x 16 banks: 64 HP frames, 128 MC pages max
	if _, err := BuildMapping(small, CLR(1.0), identityRanking(128), 128); err == nil {
		t.Error("128 hot pages cannot fit 64 HP frames")
	}
	// All-cold overflow: 100% HP rows leave no max-capacity space.
	if _, err := BuildMapping(small, Config{Enabled: true, HPFraction: 1, REFWms: 64, EarlyTermination: true}, identityRanking(65), 65); err == nil {
		// 65 pages, 65 hot? HPFraction 1 → hot = 65 > 64 capacity.
		t.Error("overflow should error")
	}
}

func TestProfilerRanking(t *testing.T) {
	p := NewFootprintProfiler(4)
	// Page 3 twice, page 1 once, page 0 never.
	p.Record(3 * PageBytes)
	p.Record(3*PageBytes + 64)
	p.Record(1 * PageBytes)
	r := p.Ranking(4)
	if r[0] != 3 || r[1] != 1 {
		t.Fatalf("ranking = %v, want [3 1 ...]", r)
	}
	if len(r) != 4 {
		t.Fatalf("ranking must cover all pages, got %d", len(r))
	}
	if p.Accesses() != 3 {
		t.Fatalf("Accesses = %d", p.Accesses())
	}
	if c := p.CoverageOfTop(4, 1); c < 0.66 || c > 0.67 {
		t.Fatalf("top-1 coverage = %v, want 2/3", c)
	}
}

func TestProfilerSample(t *testing.T) {
	recs := []trace.Record{{Addr: 0}, {Addr: PageBytes}, {Addr: PageBytes}}
	p := NewFootprintProfiler(2)
	n := p.Sample(&trace.SliceReader{Records: recs}, 10)
	if n != 3 {
		t.Fatalf("Sample consumed %d, want 3 (EOF)", n)
	}
	r := p.Ranking(2)
	if r[0] != 1 {
		t.Fatalf("ranking = %v, want page 1 first", r)
	}
}

func TestProfilerMapperEndToEnd(t *testing.T) {
	// Profile a skewed trace, build a 25% mapping, verify the hottest pages
	// landed in high-performance rows.
	const pages = 64
	p := NewFootprintProfiler(pages)
	for i := 0; i < 1000; i++ {
		page := uint64(i % 8) // pages 0..7 are hot
		p.Record(page * PageBytes)
	}
	for page := 8; page < pages; page++ {
		p.Record(uint64(page) * PageBytes)
	}
	m, err := BuildMapping(devCfg(), CLR(0.25), p.Ranking(pages), pages)
	if err != nil {
		t.Fatal(err)
	}
	for page := 0; page < 8; page++ {
		if !m.IsHot(uint64(page) * PageBytes) {
			t.Fatalf("hot page %d not mapped to high-performance rows", page)
		}
	}
}
