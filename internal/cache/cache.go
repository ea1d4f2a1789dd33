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

// Line states.
type way struct {
	line  sig.Line
	valid bool
	dirty bool
	spec  bool
	lru   uint64
}

// Cache is a set-associative, LRU, single-line-size cache model.
type Cache struct {
	ways   []way   // backing array of every set
	sets   [][]way // ways carved into sets
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
	ways := make([]way, nsets*cfg.Assoc)
	return &Cache{ways: ways, sets: carve(ways, nsets), mask: uint64(nsets - 1)}
}

// carve splits ways into nsets equal sets.
func carve(ways []way, nsets int) [][]way {
	assoc := len(ways) / nsets
	sets := make([][]way, nsets)
	for i := range sets {
		sets[i] = ways[i*assoc : (i+1)*assoc : (i+1)*assoc]
	}
	return sets
}

// Clone returns an independent copy: every way with its LRU stamp, the
// LRU clock and the counters.
func (c *Cache) Clone() *Cache {
	d := *c
	d.ways = slices.Clone(c.ways)
	d.sets = carve(d.ways, len(c.sets))
	return &d
}

func (c *Cache) set(l sig.Line) []way { return c.sets[uint64(l)&c.mask] }

func (c *Cache) find(l sig.Line) *way {
	s := c.set(l)
	for i := range s {
		if s[i].valid && s[i].line == l {
			return &s[i]
		}
	}
	return nil
}

// Lookup reports whether the line is present, updating LRU state and hit
// counters. If write is true and the line is present, it is marked dirty
// and speculative (chunk writes are speculative until commit).
func (c *Cache) Lookup(l sig.Line, write bool) bool {
	c.clock++
	if w := c.find(l); w != nil {
		w.lru = c.clock
		if write {
			w.dirty = true
			w.spec = true
		}
		c.hits++
		return true
	}
	c.misses++
	return false
}

// Contains reports presence without perturbing LRU or counters.
func (c *Cache) Contains(l sig.Line) bool { return c.find(l) != nil }

// Fill inserts a line, evicting the LRU way if needed. It returns the
// victim line and whether the victim was dirty (needing writeback).
func (c *Cache) Fill(l sig.Line, dirty, spec bool) (victim sig.Line, victimDirty, evicted bool) {
	c.clock++
	if w := c.find(l); w != nil {
		w.lru = c.clock
		w.dirty = w.dirty || dirty
		w.spec = w.spec || spec
		return 0, false, false
	}
	s := c.set(l)
	vi := 0
	for i := range s {
		if !s[i].valid {
			vi = i
			break
		}
		if s[i].lru < s[vi].lru {
			vi = i
		}
	}
	v := &s[vi]
	victim, victimDirty, evicted = v.line, v.dirty && v.valid, v.valid
	if !v.valid {
		c.lines++
	}
	*v = way{line: l, valid: true, dirty: dirty, spec: spec, lru: c.clock}
	return victim, victimDirty, evicted
}

// Invalidate drops a line; it reports whether the line was present.
func (c *Cache) Invalidate(l sig.Line) bool {
	if w := c.find(l); w != nil {
		w.valid = false
		c.lines--
		return true
	}
	return false
}

// CommitSpec turns the speculative bit of a written line into an ordinary
// dirty bit (chunk commit). Missing lines (already evicted) are fine.
func (c *Cache) CommitSpec(l sig.Line) {
	if w := c.find(l); w != nil && w.spec {
		w.spec = false
		w.dirty = true
	}
}

// SquashSpec invalidates a speculatively written line (chunk squash), so a
// restarted chunk refetches clean data. Reports whether it was present.
func (c *Cache) SquashSpec(l sig.Line) bool {
	if w := c.find(l); w != nil && w.spec {
		w.valid = false
		c.lines--
		return true
	}
	return false
}

// IsDirty reports whether the line is present and dirty.
func (c *Cache) IsDirty(l sig.Line) bool {
	w := c.find(l)
	return w != nil && w.dirty
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
			h.L2.Fill(l, true, true)
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
	if _, wb, ev := h.L2.Fill(l, write, write); ev && wb {
		h.Writebacks++
	}
	h.fillL1(l, write)
}

func (h *Hierarchy) fillL1(l sig.Line, write bool) {
	if v, _, ev := h.L1.Fill(l, write, write); ev {
		_ = v // write-through L1: no writeback on eviction
	}
}

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
