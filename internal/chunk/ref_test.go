package chunk

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"scalablebulk/internal/sig"
)

// refFinalize is the original map-based Finalize, kept as the reference the
// sorted-run implementation is checked against.
func refFinalize(c *Chunk, home func(sig.Line) int) {
	c.RSig.Clear()
	c.WSig.Clear()
	c.ReadLines = c.ReadLines[:0]
	c.WriteLines = c.WriteLines[:0]

	written := make(map[sig.Line]bool, len(c.Accesses))
	read := make(map[sig.Line]bool, len(c.Accesses))
	for _, a := range c.Accesses {
		if a.Write {
			written[a.Line] = true
		} else {
			read[a.Line] = true
		}
	}

	dirSet := make(map[int]bool, 8)
	wDirSet := make(map[int]bool, 8)
	for l := range written {
		c.WSig.Insert(l)
		c.WriteLines = append(c.WriteLines, l)
		d := home(l)
		dirSet[d] = true
		wDirSet[d] = true
	}
	for l := range read {
		if written[l] {
			continue // write set subsumes
		}
		c.RSig.Insert(l)
		c.ReadLines = append(c.ReadLines, l)
		dirSet[home(l)] = true
	}
	sort.Slice(c.ReadLines, func(i, j int) bool { return c.ReadLines[i] < c.ReadLines[j] })
	sort.Slice(c.WriteLines, func(i, j int) bool { return c.WriteLines[i] < c.WriteLines[j] })

	c.Dirs = c.Dirs[:0]
	for d := range dirSet {
		c.Dirs = append(c.Dirs, d)
	}
	sort.Ints(c.Dirs)
	c.WriteDirs = c.WriteDirs[:0]
	for d := range wDirSet {
		c.WriteDirs = append(c.WriteDirs, d)
	}
	sort.Ints(c.WriteDirs)
}

// refTrulyConflictsWith is the original map-based TrulyConflictsWith.
func refTrulyConflictsWith(c *Chunk, ws []sig.Line) bool {
	mine := make(map[sig.Line]bool, len(c.ReadLines)+len(c.WriteLines))
	for _, l := range c.ReadLines {
		mine[l] = true
	}
	for _, l := range c.WriteLines {
		mine[l] = true
	}
	for _, l := range ws {
		if mine[l] {
			return true
		}
	}
	return false
}

// finalizeBoth finalizes two copies of accs, one per implementation, and
// fails on any difference in signatures, line sets, directory sets or the
// set of lines passed to home. It returns the finalized chunk.
func finalizeBoth(t *testing.T, accs []Access, dirs int) *Chunk {
	t.Helper()
	homeOf := func(l sig.Line) int { return int(uint64(l)*0x9e3779b97f4a7c15>>40) % dirs }
	var gotAsked, wantAsked []sig.Line
	got := &Chunk{Accesses: accs}
	got.Finalize(func(l sig.Line) int { gotAsked = append(gotAsked, l); return homeOf(l) })
	want := &Chunk{Accesses: accs}
	refFinalize(want, func(l sig.Line) int { wantAsked = append(wantAsked, l); return homeOf(l) })
	compareFinalized(t, got, want)
	slices.Sort(gotAsked)
	slices.Sort(wantAsked)
	if !slices.Equal(gotAsked, wantAsked) || len(slices.Compact(slices.Clone(gotAsked))) != len(gotAsked) {
		t.Fatalf("home asked for %v, reference for %v (each distinct line once)", gotAsked, wantAsked)
	}
	return got
}

func compareFinalized(t *testing.T, got, want *Chunk) {
	t.Helper()
	if got.RSig != want.RSig || got.WSig != want.WSig {
		t.Fatal("signatures differ from the reference")
	}
	for _, f := range []struct {
		name      string
		got, want []sig.Line
	}{{"ReadLines", got.ReadLines, want.ReadLines}, {"WriteLines", got.WriteLines, want.WriteLines}} {
		if !slices.Equal(f.got, f.want) {
			t.Fatalf("%s = %v, reference %v", f.name, f.got, f.want)
		}
	}
	if !slices.Equal(got.Dirs, want.Dirs) || !slices.Equal(got.WriteDirs, want.WriteDirs) {
		t.Fatalf("Dirs/WriteDirs = %v/%v, reference %v/%v", got.Dirs, got.WriteDirs, want.Dirs, want.WriteDirs)
	}
}

// decodeAccesses turns fuzz bytes into accesses over a small line space, so
// duplicates, read-then-write and write-then-read runs are common.
func decodeAccesses(data []byte) []Access {
	accs := make([]Access, 0, len(data))
	for _, b := range data {
		accs = append(accs, Access{Line: sig.Line(b >> 1), Write: b&1 == 1})
	}
	return accs
}

// checkConflicts compares TrulyConflictsWith with the reference on probes
// drawn from data, against a finalized chunk and a never-finalized one.
func checkConflicts(t *testing.T, c *Chunk, data []byte) {
	t.Helper()
	fresh := &Chunk{Accesses: c.Accesses}
	for k := 0; k < len(data); k += 3 {
		ws := make([]sig.Line, 0, 3)
		for _, b := range data[k:min(k+3, len(data))] {
			ws = append(ws, sig.Line(b>>1))
		}
		for _, ck := range []*Chunk{c, fresh} {
			if got, want := ck.TrulyConflictsWith(ws), refTrulyConflictsWith(ck, ws); got != want {
				t.Fatalf("TrulyConflictsWith(%v) = %v, reference %v (R=%v W=%v)", ws, got, want, ck.ReadLines, ck.WriteLines)
			}
		}
	}
}

// refinalize re-finalizes c in place with both implementations, as a
// squashed chunk is re-finalized after re-execution, and compares them.
func refinalize(t *testing.T, c *Chunk, dirs int) {
	t.Helper()
	home := func(l sig.Line) int { return int(l) % dirs }
	twin := &Chunk{Accesses: c.Accesses, ReadLines: slices.Clone(c.ReadLines),
		WriteLines: slices.Clone(c.WriteLines), Dirs: slices.Clone(c.Dirs), WriteDirs: slices.Clone(c.WriteDirs)}
	c.Finalize(home)
	refFinalize(twin, home)
	compareFinalized(t, c, twin)
}

func TestFinalizeMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for range 500 {
		n := rng.Intn(200)
		accs := make([]Access, n)
		span := 1 + rng.Intn(128) // within checkConflicts' probe range
		for i := range accs {
			accs[i] = Access{Line: sig.Line(rng.Intn(span)), Write: rng.Intn(3) == 0}
		}
		c := finalizeBoth(t, accs, 1+rng.Intn(64))
		probe := make([]byte, 24)
		rng.Read(probe)
		checkConflicts(t, c, probe)
		refinalize(t, c, 1+rng.Intn(8))
	}
}

func FuzzFinalizeMatchesRef(f *testing.F) {
	f.Add([]byte{}, uint8(4), []byte{1, 2})
	f.Add([]byte{10, 11, 10, 20, 21, 20, 255}, uint8(3), []byte{10, 20, 30})
	f.Add([]byte{7, 7, 7, 6, 6, 9}, uint8(1), []byte{6, 7, 9})
	f.Fuzz(func(t *testing.T, data []byte, dirs uint8, probe []byte) {
		c := finalizeBoth(t, decodeAccesses(data), int(dirs)+1)
		checkConflicts(t, c, probe)
		refinalize(t, c, int(dirs%7)+1)
		checkConflicts(t, c, probe)
	})
}

func TestTrulyConflictsWithAllocs(t *testing.T) {
	c := mkChunk([]Access{{Line: 3}, {Line: 9, Write: true}, {Line: 40}})
	ws := []sig.Line{1, 2, 40}
	if n := testing.AllocsPerRun(100, func() { c.TrulyConflictsWith(ws) }); n != 0 {
		t.Fatalf("TrulyConflictsWith allocates %.1f times, want 0", n)
	}
}
