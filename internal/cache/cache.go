// Package cache models the private cache hierarchy of each tile: a
// write-through L1 and a write-back L2 (Table 2 of the paper: 32KB/4-way/32B
// L1 with 2-cycle round trip; 512KB/8-way/32B L2 with 8-cycle round trip).
//
// Because the machine executes chunks, writes are speculative until the
// chunk commits: written lines carry a speculative bit, are discarded on
// squash, and become ordinary dirty lines on commit (the commit itself never
// writes data back to memory — §2 of the paper).
package cache

import (
	"slices"

	"scalablebulk/internal/mem"
	"scalablebulk/internal/sig"
)

// Config sizes a cache.
type Config struct {
	SizeBytes int
	Assoc     int
}

// Way state bits.
const (
	stValid uint8 = 1 << iota
	stDirty
	stSpec
)

// Cache is a set-associative, LRU, single-line-size cache model. Its ways
// live in three parallel arrays indexed set*assoc + i, so a lookup scans
// one packed run of tags and loads no per-set header (DESIGN.md §19).
type Cache struct {
	tag    []sig.Line
	state  []uint8 // stValid|stDirty|stSpec
	lru    []uint64
	assoc  int
	mask   uint64
	clock  uint64
	lines  int
	misses uint64
	hits   uint64
}

// New builds a cache. SizeBytes/Assoc must yield a power-of-two set count.
func New(cfg Config) *Cache {
	lines := cfg.SizeBytes / mem.LineBytes
	nsets := lines / cfg.Assoc
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	n := nsets * cfg.Assoc
	return &Cache{tag: make([]sig.Line, n), state: make([]uint8, n), lru: make([]uint64, n),
		assoc: cfg.Assoc, mask: uint64(nsets - 1)}
}

// Clone returns an independent copy: every way with its LRU stamp, the
// LRU clock and the counters.
func (c *Cache) Clone() *Cache {
	d := *c
	d.tag, d.state, d.lru = slices.Clone(c.tag), slices.Clone(c.state), slices.Clone(c.lru)
	return &d
}

// base returns the index of way 0 of l's set.
func (c *Cache) base(l sig.Line) int { return int(uint64(l)&c.mask) * c.assoc }

// find returns the index of the valid way holding l, or -1.
func (c *Cache) find(l sig.Line) int {
	b := c.base(l)
	tags := c.tag[b : b+c.assoc]
	st := c.state[b : b+len(tags)]
	for i, t := range tags {
		if t == l && st[i]&stValid != 0 {
			return b + i
		}
	}
	return -1
}

// Lookup reports whether the line is present, updating LRU state and hit
// counters. If write is true and the line is present, it is marked dirty
// and speculative (chunk writes are speculative until commit).
func (c *Cache) Lookup(l sig.Line, write bool) bool {
	c.clock++
	if w := c.find(l); w >= 0 {
		c.lru[w] = c.clock
		if write {
			c.state[w] |= stDirty | stSpec
		}
		c.hits++
		return true
	}
	c.misses++
	return false
}

// Contains reports presence without perturbing LRU or counters.
func (c *Cache) Contains(l sig.Line) bool { return c.find(l) >= 0 }

// Fill inserts a line, evicting the LRU way if needed. It returns the
// victim line and whether the victim was dirty (needing writeback).
func (c *Cache) Fill(l sig.Line, dirty, spec bool) (victim sig.Line, victimDirty, evicted bool) {
	c.clock++
	bits := stValid
	if dirty {
		bits |= stDirty
	}
	if spec {
		bits |= stSpec
	}
	if w := c.find(l); w >= 0 {
		c.lru[w] = c.clock
		c.state[w] |= bits
		return 0, false, false
	}
	b := c.base(l)
	st := c.state[b : b+c.assoc]
	lru := c.lru[b : b+len(st)]
	vi := 0
	for i := range st {
		if st[i]&stValid == 0 {
			vi = i
			break
		}
		if lru[i] < lru[vi] {
			vi = i
		}
	}
	w := b + vi
	victim, evicted = c.tag[w], c.state[w]&stValid != 0
	victimDirty = evicted && c.state[w]&stDirty != 0
	if !evicted {
		c.lines++
	}
	c.tag[w], c.state[w], c.lru[w] = l, bits, c.clock
	return victim, victimDirty, evicted
}

// Invalidate drops a line; it reports whether the line was present.
func (c *Cache) Invalidate(l sig.Line) bool {
	if w := c.find(l); w >= 0 {
		c.state[w] = 0
		c.lines--
		return true
	}
	return false
}

// CommitSpec turns the speculative bit of a written line into an ordinary
// dirty bit (chunk commit). Missing lines (already evicted) are fine.
func (c *Cache) CommitSpec(l sig.Line) {
	if w := c.find(l); w >= 0 && c.state[w]&stSpec != 0 {
		c.state[w] = c.state[w]&^stSpec | stDirty
	}
}

// SquashSpec invalidates a speculatively written line (chunk squash), so a
// restarted chunk refetches clean data. Reports whether it was present.
func (c *Cache) SquashSpec(l sig.Line) bool {
	if w := c.find(l); w >= 0 && c.state[w]&stSpec != 0 {
		c.state[w] = 0
		c.lines--
		return true
	}
	return false
}

// IsDirty reports whether the line is present and dirty.
func (c *Cache) IsDirty(l sig.Line) bool {
	w := c.find(l)
	return w >= 0 && c.state[w]&stDirty != 0
}

// Len returns the number of valid lines.
func (c *Cache) Len() int { return c.lines }

// HitRate returns hits/(hits+misses) since construction.
func (c *Cache) HitRate() float64 {
	tot := c.hits + c.misses
	if tot == 0 {
		return 0
	}
	return float64(c.hits) / float64(tot)
}

// Level identifies where an access was satisfied.
type Level int

const (
	// L1Hit: satisfied by the L1 (2-cycle round trip, hidden by the core).
	L1Hit Level = iota
	// L2Hit: satisfied by the private L2 (8-cycle round trip).
	L2Hit
	// Miss: must go to the home directory over the network.
	Miss
)

// Hierarchy couples a tile's write-through L1 with its write-back L2.
type Hierarchy struct {
	L1 *Cache
	L2 *Cache
	// Writebacks counts dirty L2 evictions (would be memory traffic).
	Writebacks uint64
}

// NewHierarchy builds the Table 2 hierarchy.
func NewHierarchy(l1, l2 Config) *Hierarchy {
	return &Hierarchy{L1: New(l1), L2: New(l2)}
}

// Clone returns an independent copy of both levels and the counters.
func (h *Hierarchy) Clone() *Hierarchy {
	return &Hierarchy{L1: h.L1.Clone(), L2: h.L2.Clone(), Writebacks: h.Writebacks}
}

// Access performs a load or store lookup. On L2 hit the line is refilled
// into L1. On Miss the caller must fetch the line (through the directory)
// and then call Fill.
func (h *Hierarchy) Access(l sig.Line, write bool) Level {
	if h.L1.Lookup(l, write) {
		if write {
			// Write-through: the L2 copy is updated too.
			h.fillL2(l, true)
		}
		return L1Hit
	}
	if h.L2.Lookup(l, write) {
		h.fillL1(l, write)
		return L2Hit
	}
	return Miss
}

// Fill installs a line fetched from the network into both levels.
func (h *Hierarchy) Fill(l sig.Line, write bool) {
	h.fillL2(l, write)
	h.fillL1(l, write)
}

// fillL2 fills the write-back L2. The L2 is not inclusive of the L1, so
// any fill, a write-through one included, can evict a dirty line: each
// such victim counts as a writeback.
func (h *Hierarchy) fillL2(l sig.Line, write bool) {
	if _, wb, _ := h.L2.Fill(l, write, write); wb {
		h.Writebacks++
	}
}

// fillL1 fills the write-through L1, whose victims need no writeback.
func (h *Hierarchy) fillL1(l sig.Line, write bool) { h.L1.Fill(l, write, write) }

// Invalidate drops a line from both levels (bulk invalidation hit).
// It reports whether any level held the line.
func (h *Hierarchy) Invalidate(l sig.Line) bool {
	a := h.L1.Invalidate(l)
	b := h.L2.Invalidate(l)
	return a || b
}

// Commit finalizes a committed chunk's written lines.
func (h *Hierarchy) Commit(lines []sig.Line) {
	for _, l := range lines {
		h.L1.CommitSpec(l)
		h.L2.CommitSpec(l)
	}
}

// Squash discards a squashed chunk's speculatively written lines.
func (h *Hierarchy) Squash(lines []sig.Line) {
	for _, l := range lines {
		h.L1.SquashSpec(l)
		h.L2.SquashSpec(l)
	}
}
