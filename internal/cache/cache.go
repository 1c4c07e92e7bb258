// Package cache implements the shared last-level cache of the evaluated
// system (paper Table 2): 8 MiB, 8-way set associative, 64-byte lines, LRU
// replacement, write-back/write-allocate, with MSHR-style miss merging.
//
// The cache is a passive structure: the system simulator (package sim)
// drives it and forwards misses/writebacks to the memory controller.
package cache

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Config describes the cache geometry and behaviour.
type Config struct {
	SizeBytes  int // total capacity, default 8 MiB
	Ways       int // associativity, default 8
	LineBytes  int // default 64
	HitLatency int // CPU cycles from access to data for a hit, default 30
	MSHRs      int // outstanding distinct line misses, default 64
}

// Defaults fills zero fields with the paper's Table 2 configuration.
func (c Config) Defaults() Config {
	if c.SizeBytes == 0 {
		c.SizeBytes = 8 << 20
	}
	if c.Ways == 0 {
		c.Ways = 8
	}
	if c.LineBytes == 0 {
		c.LineBytes = 64
	}
	if c.HitLatency == 0 {
		c.HitLatency = 30
	}
	if c.MSHRs == 0 {
		c.MSHRs = 64
	}
	return c
}

// ErrInvalidConfig is wrapped by every error Validate returns, so callers
// can match a rejected configuration with errors.Is.
var ErrInvalidConfig = errors.New("cache: invalid configuration")

// Validate checks the geometry. Beyond positivity and powers of two, a line
// address must keep at least two bits below its tag (LineBytes × sets ≥ 4):
// the tag is stored in the low 62 bits of a word whose top two bits hold the
// valid and dirty flags.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("%w: non-positive geometry %+v", ErrInvalidConfig, c)
	}
	if c.HitLatency < 0 || c.MSHRs < 0 {
		return fmt.Errorf("%w: negative hit latency %d or MSHR count %d", ErrInvalidConfig, c.HitLatency, c.MSHRs)
	}
	if c.LineBytes > c.SizeBytes || c.Ways > c.SizeBytes/c.LineBytes {
		return fmt.Errorf("%w: %d ways of %d B lines exceed %d B", ErrInvalidConfig, c.Ways, c.LineBytes, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.Ways * c.LineBytes)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("%w: set count %d must be a positive power of two", ErrInvalidConfig, sets)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("%w: line size %d must be a power of two", ErrInvalidConfig, c.LineBytes)
	}
	if c.LineBytes*sets < 1<<flagBits {
		return fmt.Errorf("%w: line size %d × %d sets leaves the tag no room below the %d flag bits",
			ErrInvalidConfig, c.LineBytes, sets, flagBits)
	}
	return nil
}

// Outcome classifies an access.
type Outcome int

// Access outcomes.
const (
	// Hit: data present; completes after HitLatency.
	Hit Outcome = iota
	// Miss: a new miss; the caller must fetch the line from memory and call
	// Fill when it arrives.
	Miss
	// MergedMiss: the line is already being fetched; the access was merged
	// into the existing MSHR and completes when that fetch fills.
	MergedMiss
	// Rejected: no MSHR available; the caller must retry later.
	Rejected
)

// String names the outcome.
func (o Outcome) String() string {
	return [...]string{"hit", "miss", "merged-miss", "rejected"}[o]
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64 // distinct line fetches (MSHR allocations)
	Merged     uint64
	Rejected   uint64
	Writebacks uint64
}

// line is one way of a set: 16 B, so an 8-way set spans two 64 B host
// cache lines. The valid and dirty flags live in the top two bits of the tag
// word (Validate guarantees a tag never reaches them), which also makes the
// hit check one compare: word &^ dirtyBit == tag | validBit.
type line struct {
	word uint64 // tag | validBit | dirtyBit
	used uint64 // LRU timestamp
}

const (
	flagBits        = 2
	validBit uint64 = 1 << 63
	dirtyBit uint64 = 1 << 62
	tagMask         = dirtyBit - 1
)

func (l *line) valid() bool { return l.word&validBit != 0 }
func (l *line) dirty() bool { return l.word&dirtyBit != 0 }

// holds reports whether the line is valid and carries tag.
func (l *line) holds(tag uint64) bool { return l.word&^dirtyBit == tag|validBit }

// Waiter tags a load waiting on a line miss: the requesting core and the
// load's slot in that core's reorder window. Fill hands each waiter of the
// filled line to the wake function (SetWake).
type Waiter struct {
	Core, Slot int
}

// mshr is one entry of the miss table; waiters keeps its backing array
// across reuses of the entry.
type mshr struct {
	lineAddr uint64
	waiters  []Waiter
	dirty    bool // a store merged into this miss: mark dirty on fill
}

// Cache is the LLC model.
type Cache struct {
	cfg      Config
	lines    []line // set-major: set s is lines[s*ways : (s+1)*ways]
	ways     int
	setMask  uint64
	setBits  uint
	lineBits uint
	tick     uint64
	// The miss table: mshrs[:inflight] are the allocated entries. A filled
	// entry is swapped past the end and reused by a later miss, so the table
	// grows only to the peak number of misses in flight (at most
	// cfg.MSHRs) and a steady-state miss allocates nothing.
	mshrs    []mshr
	inflight int
	wake     func(Waiter)
	st       Stats
}

// New builds a cache; it panics on invalid configuration (callers that take
// the configuration from a user validate it first).
func New(cfg Config) *Cache {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	return &Cache{
		cfg:      cfg,
		lines:    make([]line, nsets*cfg.Ways),
		ways:     cfg.Ways,
		setMask:  uint64(nsets - 1),
		setBits:  uint(bits.TrailingZeros(uint(nsets))),
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
	}
}

// SetWake installs the function Fill calls once per waiter of the filled
// line, in the order the waiters merged into the miss. It must not call
// back into the cache.
func (c *Cache) SetWake(fn func(Waiter)) { c.wake = fn }

// Config returns the (defaulted) configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.st }

// LineAddr returns the line-aligned address of addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ (uint64(c.cfg.LineBytes) - 1) }

func (c *Cache) locate(lineAddr uint64) (set uint64, tag uint64) {
	idx := lineAddr >> c.lineBits
	return idx & c.setMask, idx >> c.setBits
}

// set returns the ways of set s.
func (c *Cache) set(s uint64) []line {
	base := int(s) * c.ways
	return c.lines[base : base+c.ways]
}

// InflightMisses returns the number of allocated MSHRs.
func (c *Cache) InflightMisses() int { return c.inflight }

// findMSHR returns the index of the allocated entry fetching lineAddr, or
// -1.
func (c *Cache) findMSHR(lineAddr uint64) int {
	for i := range c.mshrs[:c.inflight] {
		if c.mshrs[i].lineAddr == lineAddr {
			return i
		}
	}
	return -1
}

// Access looks up addr. For Miss the caller must fetch c.LineAddr(addr) from
// memory and call Fill when the data returns; w (if non-nil) is recorded
// and handed to the wake function at Fill time for both Miss and
// MergedMiss. For Hit the data is available after HitLatency CPU cycles
// (the caller schedules that delay). write marks the line dirty
// (write-allocate on miss).
func (c *Cache) Access(addr uint64, write bool, w *Waiter) Outcome {
	c.tick++
	lineAddr := c.LineAddr(addr)
	set, tag := c.locate(lineAddr)
	ways := c.set(set)
	for i := range ways {
		ln := &ways[i]
		if ln.holds(tag) {
			ln.used = c.tick
			if write {
				ln.word |= dirtyBit
			}
			c.st.Hits++
			return Hit
		}
	}
	if i := c.findMSHR(lineAddr); i >= 0 {
		m := &c.mshrs[i]
		if w != nil {
			m.waiters = append(m.waiters, *w)
		}
		if write {
			m.dirty = true
		}
		c.st.Merged++
		return MergedMiss
	}
	if c.inflight >= c.cfg.MSHRs {
		c.st.Rejected++
		return Rejected
	}
	if c.inflight == len(c.mshrs) {
		c.mshrs = append(c.mshrs, mshr{})
	}
	m := &c.mshrs[c.inflight]
	c.inflight++
	m.lineAddr, m.dirty, m.waiters = lineAddr, write, m.waiters[:0]
	if w != nil {
		m.waiters = append(m.waiters, *w)
	}
	c.st.Misses++
	return Miss
}

// Fill installs a fetched line, hands its waiters to the wake function in
// merge order, and returns the evicted victim's line address if it was
// dirty (the caller must write it back to memory). needsWriteback=false
// means no victim writeback is needed.
func (c *Cache) Fill(lineAddr uint64) (victim uint64, needsWriteback bool) {
	i := c.findMSHR(lineAddr)
	if i < 0 {
		panic(fmt.Sprintf("cache: Fill(%#x) without a matching MSHR", lineAddr))
	}
	c.inflight--
	c.mshrs[i], c.mshrs[c.inflight] = c.mshrs[c.inflight], c.mshrs[i]
	m := &c.mshrs[c.inflight] // released, but not reused before Fill returns

	set, tag := c.locate(lineAddr)
	ways := c.set(set)
	// Choose victim: invalid way first, else LRU.
	vi := 0
	for i := range ways {
		ln := &ways[i]
		if !ln.valid() {
			vi = i
			break
		}
		if ln.used < ways[vi].used {
			vi = i
		}
	}
	v := &ways[vi]
	if v.valid() && v.dirty() {
		needsWriteback = true
		victim = c.reconstruct(set, v.word&tagMask)
		c.st.Writebacks++
	}
	c.tick++
	word := tag | validBit
	if m.dirty {
		word |= dirtyBit
	}
	*v = line{word: word, used: c.tick}
	for _, w := range m.waiters {
		c.wake(w)
	}
	return victim, needsWriteback
}

// reconstruct rebuilds a line address from set index and tag.
func (c *Cache) reconstruct(set, tag uint64) uint64 {
	idx := tag<<c.setBits | set
	return idx << c.lineBits
}

// Clone returns an independent deep copy of the cache: same configuration,
// line array, LRU clock, and statistics, sharing no mutable state with the
// original. It exists for checkpoint-and-fork warmup (sim's WarmupCache),
// which snapshots the warmed LLC once and forks it across every
// configuration of a sweep — so the statistics travel too (warmup hits and
// misses are part of a run's reported LLC counters). The line array is one
// flat copy (2 MiB for the default geometry). The clone starts with an
// empty miss table and no wake function: the forking system installs its
// own. Cloning with misses in flight panics: their fetches are queued in
// the original system's memory controller, which alone will fill them.
func (c *Cache) Clone() *Cache {
	if c.inflight != 0 {
		panic(fmt.Sprintf("cache: Clone with %d misses in flight", c.inflight))
	}
	nc := *c
	nc.lines = slices.Clone(c.lines)
	nc.mshrs, nc.wake = nil, nil
	return &nc
}

// Contains reports whether the line holding addr is resident (for tests).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.locate(c.LineAddr(addr))
	ways := c.set(set)
	for i := range ways {
		if ways[i].holds(tag) {
			return true
		}
	}
	return false
}
