// Package mem models the physical address space of the simulated machine:
// 32-byte cache lines, 4 KB pages, and the simple first-touch policy that
// maps virtual pages to physical pages in the directory modules ("A simple
// first-touch policy is used to map virtual pages to physical pages in the
// directory modules", §5 of the paper).
package mem

import (
	"maps"
	"sync"
	"sync/atomic"

	"scalablebulk/internal/sig"
)

const (
	// LineBytes is the cache-line size (Table 2: 32 B lines).
	LineBytes = 32
	// PageBytes is the virtual/physical page size.
	PageBytes = 4096
	// LinesPerPage is the number of cache lines in a page.
	LinesPerPage = PageBytes / LineBytes
	// pageShift converts a line address to a page number.
	pageShift = 7 // log2(LinesPerPage)
)

// Page is a page number (line address >> pageShift).
type Page uint64

// PageOf returns the page containing a line.
func PageOf(l sig.Line) Page { return Page(l >> pageShift) }

// LineOfAddr converts a byte address to its line address.
func LineOfAddr(addr uint64) sig.Line { return sig.Line(addr / LineBytes) }

// Mapper assigns pages to home directory modules with a first-touch policy:
// the first node to touch a page becomes its home. The assignment is sticky
// for the lifetime of a run, as in a real OS page table.
type Mapper struct {
	dirs  int
	pages map[Page]int
	next  int // round-robin fallback for touches from out-of-range nodes

	// Locked-mode support for sharded runs (EnableLocking): the page table
	// is consulted concurrently by the shard workers during parallel
	// read-path rounds, so accesses take mu. First touches remain legal in
	// parallel rounds — a single toucher mapping a fresh page is
	// order-independent — but if a *second* tile whose first-touch home
	// would differ reaches a page mapped earlier in the same round, the
	// mapping has become schedule-dependent and the hazard flag trips; the
	// run aborts rather than risk a fingerprint that depends on S.
	mu       sync.RWMutex
	locked   bool
	inRound  bool
	roundNew map[Page]int // pages first-touched in the current parallel round
	hazard   atomic.Bool
	hazardPg atomic.Uint64
}

// NewMapper creates a mapper for a machine with the given number of
// directory modules (one per tile).
func NewMapper(dirs int) *Mapper {
	if dirs <= 0 {
		panic("mem: need at least one directory module")
	}
	return &Mapper{dirs: dirs, pages: make(map[Page]int)}
}

// Clone returns an independent copy of an unlocked mapper's page table.
// Locked-mode state is not carried over: a clone starts unlocked.
func (m *Mapper) Clone() *Mapper {
	return &Mapper{dirs: m.dirs, pages: maps.Clone(m.pages), next: m.next}
}

// Dirs returns the number of directory modules.
func (m *Mapper) Dirs() int { return m.dirs }

// Home returns the home directory module of a line, assigning the page to
// the toucher's tile on first touch.
func (m *Mapper) Home(l sig.Line, toucher int) int {
	p := PageOf(l)
	if !m.locked {
		if d, ok := m.pages[p]; ok {
			return d
		}
		d := toucher % m.dirs
		m.pages[p] = d
		return d
	}
	m.mu.RLock()
	d, ok := m.pages[p]
	var newHome int
	fresh := false
	if ok && m.inRound {
		newHome, fresh = m.roundNew[p]
	}
	m.mu.RUnlock()
	if ok {
		if fresh && toucher%m.dirs != newHome {
			m.flagHazard(p)
		}
		return d
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if d, ok := m.pages[p]; ok {
		// Another worker mapped the page between our read and write locks.
		if m.inRound {
			if h, fr := m.roundNew[p]; fr && toucher%m.dirs != h {
				m.flagHazard(p)
			}
		}
		return d
	}
	d = toucher % m.dirs
	m.pages[p] = d
	if m.inRound {
		m.roundNew[p] = d
	}
	return d
}

func (m *Mapper) flagHazard(p Page) {
	m.hazardPg.Store(uint64(p))
	m.hazard.Store(true)
}

// EnableLocking switches the mapper into the thread-safe mode sharded runs
// need. Serial runs never call it and keep the zero-overhead path.
func (m *Mapper) EnableLocking() {
	m.locked = true
	m.roundNew = make(map[Page]int)
}

// BeginParallelRound arms first-touch hazard detection for one parallel
// round (locked mode only; called by the system layer from the sharded
// engine's round hooks).
func (m *Mapper) BeginParallelRound() {
	clear(m.roundNew)
	m.inRound = true
}

// EndParallelRound disarms first-touch hazard detection.
func (m *Mapper) EndParallelRound() { m.inRound = false }

// Hazard reports whether a schedule-dependent first-touch collision was
// detected, and the page it happened on.
func (m *Mapper) Hazard() (Page, bool) {
	if !m.hazard.Load() {
		return 0, false
	}
	return Page(m.hazardPg.Load()), true
}

// HomeIfMapped returns the home of a line if its page has been touched.
func (m *Mapper) HomeIfMapped(l sig.Line) (int, bool) {
	if m.locked {
		m.mu.RLock()
		defer m.mu.RUnlock()
	}
	d, ok := m.pages[PageOf(l)]
	return d, ok
}

// MappedPages returns the number of pages that have been assigned a home.
func (m *Mapper) MappedPages() int {
	if m.locked {
		m.mu.RLock()
		defer m.mu.RUnlock()
	}
	return len(m.pages)
}
