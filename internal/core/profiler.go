package core

import (
	"cmp"
	"io"
	"slices"

	"clrdram/internal/trace"
)

// Profiler accumulates page-granularity access counts, implementing the
// paper's profiling-based hot-page identification (§8.1: "a profiling-based
// approach (similar to prior works) to assign a workload's X% of the most
// frequently-accessed pages to high-performance rows").
//
// Counts live in a dense per-page slice. A profiler built for a footprint
// (NewFootprintProfiler) allocates it once and ignores pages at or beyond the
// footprint — Ranking never ranks them — so no trace address ever sizes an
// allocation.
type Profiler struct {
	counts []uint64 // access count per page
	grow   bool     // NewProfiler: extend counts to the highest page seen
	total  uint64
}

// NewFootprintProfiler creates an empty profiler for a workload of
// footprintPages pages; accesses to pages outside it count toward Accesses
// only.
func NewFootprintProfiler(footprintPages int) *Profiler {
	return &Profiler{counts: make([]uint64, max(footprintPages, 0))}
}

// NewProfiler creates an empty profiler with no footprint bound: its count
// slice grows to the highest page recorded. Use it only on address streams
// already known to stay within a small footprint; the simulator profiles
// through NewFootprintProfiler.
func NewProfiler() *Profiler {
	return &Profiler{grow: true}
}

// Record notes one access to addr.
func (p *Profiler) Record(addr uint64) {
	p.total++
	page := addr / PageBytes
	if page >= uint64(len(p.counts)) {
		if !p.grow {
			return
		}
		p.counts = append(p.counts, make([]uint64, page+1-uint64(len(p.counts)))...)
	}
	p.counts[page]++
}

// Sample profiles up to n records from a trace reader (stopping early at
// EOF) and returns how many were consumed.
func (p *Profiler) Sample(rd trace.Reader, n int) int {
	consumed := 0
	for consumed < n {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			break
		}
		p.Record(rec.Addr)
		consumed++
	}
	return consumed
}

// Accesses returns the total recorded access count.
func (p *Profiler) Accesses() uint64 { return p.total }

// count returns page's access count (0 for pages never recorded).
func (p *Profiler) count(page int) uint64 {
	if page < len(p.counts) {
		return p.counts[page]
	}
	return 0
}

// Ranking returns every page in [0, totalPages) ordered from most to least
// accessed; ties and never-accessed pages keep ascending page order so the
// result is deterministic and covers the whole footprint (as BuildMapping
// requires). Only the accessed pages are sorted; the never-accessed ones
// follow in one ascending pass.
func (p *Profiler) Ranking(totalPages int) []int {
	pages := make([]int, 0, totalPages)
	for pg := 0; pg < totalPages; pg++ {
		if p.count(pg) != 0 {
			pages = append(pages, pg)
		}
	}
	counts := p.counts
	slices.SortFunc(pages, func(a, b int) int {
		if c := cmp.Compare(counts[b], counts[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for pg := 0; pg < totalPages; pg++ {
		if p.count(pg) == 0 {
			pages = append(pages, pg)
		}
	}
	return pages
}

// CoverageOfTop returns the fraction of recorded accesses that fall in the
// top n pages of the ranking — used to reproduce the paper's §8.2 coverage
// anecdotes.
func (p *Profiler) CoverageOfTop(totalPages, n int) float64 {
	if p.total == 0 || n <= 0 {
		return 0
	}
	rank := p.Ranking(totalPages)
	if n > len(rank) {
		n = len(rank)
	}
	var sum uint64
	for _, pg := range rank[:n] {
		sum += p.count(pg)
	}
	return float64(sum) / float64(p.total)
}
