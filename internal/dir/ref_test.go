package dir

import (
	"slices"
	"testing"

	"scalablebulk/internal/bitset"
	"scalablebulk/internal/mem"
	"scalablebulk/internal/sig"
)

// refState is the original map-of-pointers directory State, kept as the
// reference the slab-backed State is checked against.
type refState struct {
	lines  map[sig.Line]*LineInfo
	parts  []map[sig.Line]*LineInfo
	partOf func(sig.Line) int
}

func newRefState() *refState { return &refState{lines: make(map[sig.Line]*LineInfo)} }

func (s *refState) Clone() *refState {
	c := &refState{lines: make(map[sig.Line]*LineInfo, len(s.lines))}
	for l, li := range s.lines {
		c.lines[l] = &LineInfo{Sharers: li.Sharers.Clone(), Owner: li.Owner, Dirty: li.Dirty}
	}
	return c
}

func (s *refState) Partition(parts int, partOf func(sig.Line) int) {
	s.parts = make([]map[sig.Line]*LineInfo, parts)
	for i := range s.parts {
		s.parts[i] = make(map[sig.Line]*LineInfo)
	}
	for l, li := range s.lines {
		s.parts[partOf(l)][l] = li
	}
	s.lines = nil
	s.partOf = partOf
}

func (s *refState) tab(l sig.Line) map[sig.Line]*LineInfo {
	if s.partOf == nil {
		return s.lines
	}
	return s.parts[s.partOf(l)]
}

func (s *refState) Get(l sig.Line) *LineInfo { return s.tab(l)[l] }

func (s *refState) Touch(l sig.Line) *LineInfo {
	t := s.tab(l)
	if li, ok := t[l]; ok {
		return li
	}
	li := &LineInfo{Owner: -1}
	t[l] = li
	return li
}

func (s *refState) AddSharer(l sig.Line, p int) { s.Touch(l).Sharers.Add(p) }

func (s *refState) ApplyCommitWrite(l sig.Line, writer int) {
	li := s.Touch(l)
	li.Sharers.Clear()
	li.Sharers.Add(writer)
	li.Owner = writer
	li.Dirty = true
}

func (s *refState) SharersOf(lines []sig.Line, home int, mapper *mem.Mapper, exclude int, dst *bitset.Set) {
	for _, l := range lines {
		if h, ok := mapper.HomeIfMapped(l); !ok || h != home {
			continue
		}
		li := s.tab(l)[l]
		if li == nil {
			continue
		}
		li.Sharers.ForEach(func(p int) {
			if p != exclude {
				dst.Add(p)
			}
		})
	}
}

func (s *refState) SharersOfAll(lines []sig.Line, exclude int, dst *bitset.Set) {
	for _, l := range lines {
		li := s.tab(l)[l]
		if li == nil {
			continue
		}
		li.Sharers.ForEach(func(p int) {
			if p != exclude {
				dst.Add(p)
			}
		})
	}
}

// Fuzz geometry: 32 lines, two per page on 16 pages over four homes, with
// every fifth page left unmapped; processors up to 130 so sharer sets
// outgrow an entry's in-slab first word.
const (
	fuzzLines = 32
	fuzzHomes = 4
	fuzzProcs = 131
)

func fuzzLine(b byte) sig.Line { return sig.Line(uint64(b%fuzzLines) * (mem.LinesPerPage / 2)) }

func fuzzMapper() *mem.Mapper {
	mp := mem.NewMapper(fuzzHomes)
	for b := range fuzzLines {
		if page := b / 2; page%5 != 0 {
			mp.Home(fuzzLine(byte(b)), page%fuzzHomes)
		}
	}
	return mp
}

// sameEntry fails unless got and want describe the same directory entry
// (both absent, or equal owner, dirty bit and sharers).
func sameEntry(t *testing.T, what string, got, want *LineInfo) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: entry presence %v, reference %v", what, got != nil, want != nil)
	}
	if got == nil {
		return
	}
	if got.Owner != want.Owner || got.Dirty != want.Dirty ||
		!slices.Equal(got.Sharers.Members(), want.Sharers.Members()) {
		t.Fatalf("%s: entry {%s owner %d dirty %v}, reference {%s owner %d dirty %v}", what,
			got.Sharers.String(), got.Owner, got.Dirty, want.Sharers.String(), want.Owner, want.Dirty)
	}
}

func sameState(t *testing.T, s *State, ref *refState) {
	t.Helper()
	for b := range fuzzLines {
		l := fuzzLine(byte(b))
		sameEntry(t, "Get", s.Get(l), ref.Get(l))
	}
}

// statePair is a State and its reference, mutated in lockstep.
type statePair struct {
	s   *State
	ref *refState
}

// runStateOps decodes ops three bytes at a time (operation, line, processor
// or parameter) and applies each to a State and to its reference, comparing
// every result and the full contents after each step. Clone adds a new pair
// to the pool, so later operations also prove clones independent.
func runStateOps(t *testing.T, ops []byte) {
	ops = ops[:min(len(ops), 3*100)] // long inputs only repeat the checks
	mp := fuzzMapper()
	pool := []statePair{{NewState(), newRefState()}}
	for k := 0; k+2 < len(ops); k += 3 {
		op, l, arg := ops[k], fuzzLine(ops[k+1]), int(ops[k+2])
		pr := &pool[int(op>>3)%len(pool)]
		s, ref := pr.s, pr.ref
		switch op % 8 {
		case 0:
			sameEntry(t, "Touch", s.Touch(l), ref.Touch(l))
		case 1:
			s.AddSharer(l, arg%fuzzProcs)
			ref.AddSharer(l, arg%fuzzProcs)
		case 2:
			s.ApplyCommitWrite(l, arg%fuzzProcs)
			ref.ApplyCommitWrite(l, arg%fuzzProcs)
		case 3:
			sameEntry(t, "Get", s.Get(l), ref.Get(l))
		case 4, 5:
			lines := []sig.Line{l, fuzzLine(ops[k+1] + 1), fuzzLine(ops[k+1] + 7)}
			exclude := arg%fuzzProcs - 1
			var got, want bitset.Set
			if op%8 == 4 {
				home := arg % fuzzHomes
				s.SharersOf(lines, home, mp, exclude, &got)
				ref.SharersOf(lines, home, mp, exclude, &want)
			} else {
				s.SharersOfAll(lines, exclude, &got)
				ref.SharersOfAll(lines, exclude, &want)
			}
			if !slices.Equal(got.Members(), want.Members()) {
				t.Fatalf("SharersOf(All) = %s, reference %s", got.String(), want.String())
			}
		case 6:
			if s.partOf == nil {
				pool = append(pool, statePair{s.Clone(), ref.Clone()})
			}
		case 7:
			if s.partOf == nil {
				parts := arg%4 + 1
				partOf := func(l sig.Line) int { return int(uint64(l)/mem.LinesPerPage) % parts }
				s.Partition(parts, partOf)
				ref.Partition(parts, partOf)
			}
		}
		for _, p := range pool {
			sameState(t, p.s, p.ref)
		}
	}
}

func FuzzStateMatchesRef(f *testing.F) {
	f.Add([]byte{1, 3, 5, 1, 3, 100, 0, 3, 0, 6, 0, 0, 9, 3, 7, 2, 3, 2, 3, 3, 0})
	f.Add([]byte{1, 1, 129, 1, 2, 64, 7, 0, 1, 4, 1, 0, 5, 2, 3, 2, 1, 1, 3, 1, 0})
	f.Add([]byte{1, 4, 1, 6, 0, 0, 14, 4, 0, 9, 4, 70, 10, 4, 4, 11, 4, 0})
	f.Fuzz(runStateOps)
}

func TestStateCloneIndependent(t *testing.T) {
	s := NewState()
	for l := sig.Line(0); l < 3*slabSize; l++ {
		s.AddSharer(l, int(l)%70)
	}
	s.AddSharer(1, 129) // grown past the in-slab word
	s.ApplyCommitWrite(2, 4)
	c := s.Clone()
	c.AddSharer(0, 9)
	c.AddSharer(1, 100)
	c.ApplyCommitWrite(3, 5)
	c.AddSharer(3*slabSize, 1) // a new entry in the clone only

	if got := s.Get(0).Sharers.Members(); !slices.Equal(got, []int{0}) {
		t.Fatalf("clone's AddSharer leaked into the original: %v", got)
	}
	if got := s.Get(1).Sharers.Members(); !slices.Equal(got, []int{1, 129}) {
		t.Fatalf("clone's wide AddSharer leaked into the original: %v", got)
	}
	if li := s.Get(3); li.Dirty || li.Owner != -1 {
		t.Fatal("clone's commit write leaked into the original")
	}
	if s.Get(3*slabSize) != nil {
		t.Fatal("clone's new entry appeared in the original")
	}

	s.AddSharer(5, 60)
	s.Get(1).Sharers.Clear()
	if got := c.Get(5).Sharers.Members(); !slices.Equal(got, []int{5}) {
		t.Fatalf("original's AddSharer leaked into the clone: %v", got)
	}
	if got := c.Get(1).Sharers.Members(); !slices.Equal(got, []int{1, 100, 129}) {
		t.Fatalf("clone's wide entry = %v, want [1 100 129]", got)
	}
	if li := c.Get(2); !li.Dirty || li.Owner != 4 {
		t.Fatal("clone lost the original's committed write")
	}
}

func TestLineInfoPointerStable(t *testing.T) {
	s := NewState()
	li := s.Touch(7)
	li.Sharers.Add(3)
	for l := sig.Line(1000); l < 11000; l++ {
		s.Touch(l)
	}
	if s.Get(7) != li {
		t.Fatal("Touch of other lines moved an existing entry")
	}
	li.Owner, li.Dirty = 2, true
	s.AddSharer(7, 90)
	if got := s.Get(7); got.Owner != 2 || !got.Dirty || !slices.Equal(li.Sharers.Members(), []int{3, 90}) {
		t.Fatal("the held pointer no longer aliases its entry")
	}
}

// TestTouchAllocs pins the slab's promise: on a machine of at most 64
// processors a new entry allocates nothing beyond its share of a slab chunk
// and of the index.
func TestTouchAllocs(t *testing.T) {
	s := NewState()
	l := sig.Line(0)
	n := testing.AllocsPerRun(2*slabSize, func() {
		s.AddSharer(l, int(l)%64)
		l++
	})
	if n >= 1 {
		t.Fatalf("AddSharer of a new line allocates %.2f times, want < 1", n)
	}
}
