package cache

import (
	"slices"

	"scalablebulk/internal/mem"
	"scalablebulk/internal/sig"
)

// refCache is the array-of-structs cache model the flat Cache replaced:
// one struct per way, carved into per-set slices. It is the reference the
// differential tests and the layout micro-benchmarks compare Cache against.
type refCache struct {
	ways   []refWay   // backing array of every set
	sets   [][]refWay // ways carved into sets
	mask   uint64
	clock  uint64
	lines  int
	misses uint64
	hits   uint64
}

type refWay struct {
	line  sig.Line
	valid bool
	dirty bool
	spec  bool
	lru   uint64
}

func newRef(cfg Config) *refCache {
	lines := cfg.SizeBytes / mem.LineBytes
	nsets := lines / cfg.Assoc
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	ways := make([]refWay, nsets*cfg.Assoc)
	return &refCache{ways: ways, sets: carve(ways, nsets), mask: uint64(nsets - 1)}
}

// carve splits ways into nsets equal sets.
func carve(ways []refWay, nsets int) [][]refWay {
	assoc := len(ways) / nsets
	sets := make([][]refWay, nsets)
	for i := range sets {
		sets[i] = ways[i*assoc : (i+1)*assoc : (i+1)*assoc]
	}
	return sets
}

func (c *refCache) Clone() *refCache {
	d := *c
	d.ways = slices.Clone(c.ways)
	d.sets = carve(d.ways, len(c.sets))
	return &d
}

func (c *refCache) set(l sig.Line) []refWay { return c.sets[uint64(l)&c.mask] }

func (c *refCache) find(l sig.Line) *refWay {
	s := c.set(l)
	for i := range s {
		if s[i].valid && s[i].line == l {
			return &s[i]
		}
	}
	return nil
}

func (c *refCache) Lookup(l sig.Line, write bool) bool {
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

func (c *refCache) Contains(l sig.Line) bool { return c.find(l) != nil }

func (c *refCache) Fill(l sig.Line, dirty, spec bool) (victim sig.Line, victimDirty, evicted bool) {
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
	*v = refWay{line: l, valid: true, dirty: dirty, spec: spec, lru: c.clock}
	return victim, victimDirty, evicted
}

func (c *refCache) Invalidate(l sig.Line) bool {
	if w := c.find(l); w != nil {
		w.valid = false
		c.lines--
		return true
	}
	return false
}

func (c *refCache) CommitSpec(l sig.Line) {
	if w := c.find(l); w != nil && w.spec {
		w.spec = false
		w.dirty = true
	}
}

func (c *refCache) SquashSpec(l sig.Line) bool {
	if w := c.find(l); w != nil && w.spec {
		w.valid = false
		c.lines--
		return true
	}
	return false
}

func (c *refCache) IsDirty(l sig.Line) bool {
	w := c.find(l)
	return w != nil && w.dirty
}

func (c *refCache) Len() int { return c.lines }

func (c *refCache) HitRate() float64 {
	tot := c.hits + c.misses
	if tot == 0 {
		return 0
	}
	return float64(c.hits) / float64(tot)
}

// refHierarchy is Hierarchy's fill and invalidate paths over refCache, for
// the layout micro-benchmarks.
type refHierarchy struct{ L1, L2 *refCache }

func (h *refHierarchy) Fill(l sig.Line, write bool) {
	h.L2.Fill(l, write, write)
	h.L1.Fill(l, write, write)
}

func (h *refHierarchy) Invalidate(l sig.Line) bool {
	a := h.L1.Invalidate(l)
	b := h.L2.Invalidate(l)
	return a || b
}
