package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// refRanking is the original map-backed ranking: a stable sort of the
// ascending page list by descending access count, two map lookups per
// comparison. The dense-slice Profiler must reproduce its order exactly.
func refRanking(addrs []uint64, totalPages int) []int {
	counts := make(map[uint64]uint64)
	for _, a := range addrs {
		counts[a/PageBytes]++
	}
	pages := make([]int, totalPages)
	for i := range pages {
		pages[i] = i
	}
	sort.SliceStable(pages, func(a, b int) bool {
		return counts[uint64(pages[a])] > counts[uint64(pages[b])]
	})
	return pages
}

// TestRankingMatchesMapReference drives both profiler constructors and the
// map reference with random traces: skewed page draws (so count ties are
// common), footprints larger than the touched set (never-accessed pages),
// and addresses beyond the footprint, up to the top of the address space.
func TestRankingMatchesMapReference(t *testing.T) {
	f := func(seed int64, pagesRaw uint16, nRaw uint16, spanRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		pages := int(pagesRaw%700) + 1
		span := pages/(int(spanRaw%8)+1) + 1 // pages actually drawn from
		addrs := make([]uint64, int(nRaw%3000))
		for i := range addrs {
			switch r := rng.Intn(20); {
			case r == 0: // just beyond the footprint
				addrs[i] = uint64(pages+rng.Intn(64))*PageBytes + uint64(rng.Intn(PageBytes))
			case r == 1: // far beyond it: must not size any allocation
				addrs[i] = rng.Uint64() | 1<<63
			default: // skewed within the footprint: many equal counts
				pg := rng.Intn(span) % (rng.Intn(span) + 1)
				addrs[i] = uint64(pg)*PageBytes + uint64(rng.Intn(PageBytes))
			}
		}
		want := refRanking(addrs, pages)

		fp := NewFootprintProfiler(pages)
		for _, a := range addrs {
			fp.Record(a)
		}
		if !slices.Equal(fp.Ranking(pages), want) {
			return false
		}
		if fp.Accesses() != uint64(len(addrs)) {
			return false
		}
		// The unbounded profiler on the in-footprint part of the trace.
		var in []uint64
		for _, a := range addrs {
			if a/PageBytes < uint64(pages) {
				in = append(in, a)
			}
		}
		up := NewProfiler()
		for _, a := range in {
			up.Record(a)
		}
		return slices.Equal(up.Ranking(pages), refRanking(in, pages))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRankingShorterThanFootprint checks a ranking over fewer pages than the
// profiler's footprint ignores the counts beyond it, and one over more pages
// ranks the extra pages as never accessed.
func TestRankingShorterThanFootprint(t *testing.T) {
	addrs := []uint64{9 * PageBytes, 9 * PageBytes, 2 * PageBytes, 5 * PageBytes, 5 * PageBytes, 5 * PageBytes}
	p := NewFootprintProfiler(10)
	for _, a := range addrs {
		p.Record(a)
	}
	for _, n := range []int{0, 4, 6, 10, 13} {
		if got, want := p.Ranking(n), refRanking(addrs, n); !slices.Equal(got, want) {
			t.Errorf("Ranking(%d) = %v, want %v", n, got, want)
		}
	}
}
