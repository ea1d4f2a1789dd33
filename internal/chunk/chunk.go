// Package chunk represents the atomic instruction blocks the machine
// continuously executes: ~2000 dynamic instructions (Table 2), with read and
// write sets captured in hardware address signatures and, as the chunk
// executes, a list of the home directory modules of its accesses (the g_vec
// of Table 1, "formed by the processor as it executes a chunk").
package chunk

import (
	"cmp"
	"slices"

	"scalablebulk/internal/msg"
	"scalablebulk/internal/sig"
)

// Access is one memory reference at cache-line granularity.
type Access struct {
	Line  sig.Line
	Write bool
}

// Chunk is one atomic block, as produced by the workload generator and
// executed by a processor.
type Chunk struct {
	Tag msg.CTag
	// Instr is the dynamic instruction count of the block (2000 unless the
	// chunk was cut short by a cache overflow or system call).
	Instr int
	// Accesses are the distinct-line memory references in program order.
	Accesses []Access

	// Derived at the end of execution:

	// RSig and WSig are the chunk's read and write signatures. WSig covers
	// written lines; RSig covers lines that were only read (a line both
	// read and written appears in WSig — conflicts are detected against
	// either set, and this mirrors how Bulk inserts).
	RSig, WSig sig.Sig
	// ReadLines and WriteLines are the distinct lines per set.
	ReadLines, WriteLines []sig.Line
	// Dirs is the g_vec: ascending IDs of every home directory of the
	// chunk's accesses. WriteDirs are those homing at least one write.
	Dirs      []int
	WriteDirs []int

	// Retries counts failed commit attempts (for starvation handling and
	// statistics). Squashes counts how many times the chunk was squashed.
	Retries  int
	Squashes int

	// ExecUseful and ExecMiss are filled by the processor model: cycles of
	// useful execution and of cache-miss stall spent on the (latest)
	// execution of this chunk. They move to the Squash bucket if the chunk
	// is squashed, or to Useful/CacheMiss when it commits (Figures 7/8).
	ExecUseful uint64
	ExecMiss   uint64
}

// Finalize computes signatures, distinct line sets and the g_vec once the
// chunk has executed. home maps a line to its home directory module; it is
// called once per distinct line.
func (c *Chunk) Finalize(home func(sig.Line) int) {
	c.RSig.Clear()
	c.WSig.Clear()
	c.ReadLines = c.ReadLines[:0]
	c.WriteLines = c.WriteLines[:0]
	c.Dirs = c.Dirs[:0]
	c.WriteDirs = c.WriteDirs[:0]

	// Sorting a copy by line puts every line's accesses in one run, so the
	// line sets come out sorted and deduplicated without a map.
	accs := slices.Clone(c.Accesses)
	slices.SortFunc(accs, func(a, b Access) int { return cmp.Compare(a.Line, b.Line) })
	for i := 0; i < len(accs); {
		l, write := accs[i].Line, false
		for ; i < len(accs) && accs[i].Line == l; i++ {
			write = write || accs[i].Write // a written line leaves the read set
		}
		d := home(l)
		c.Dirs = insertSorted(c.Dirs, d)
		if write {
			c.WSig.Insert(l)
			c.WriteLines = append(c.WriteLines, l)
			c.WriteDirs = insertSorted(c.WriteDirs, d)
		} else {
			c.RSig.Insert(l)
			c.ReadLines = append(c.ReadLines, l)
		}
	}
}

// insertSorted adds d to the ascending set ds unless it is already there.
func insertSorted(ds []int, d int) []int {
	i, found := slices.BinarySearch(ds, d)
	if found {
		return ds
	}
	return slices.Insert(ds, i, d)
}

// ReadOnlyDirs returns how many participating directories record only reads
// (the "Read Group" bars of Figures 9 and 10).
func (c *Chunk) ReadOnlyDirs() int { return len(c.Dirs) - len(c.WriteDirs) }

// ConflictsWith reports whether committing `other` would squash this chunk:
// other's write signature overlaps this chunk's read or write signature
// (bulk disambiguation, §3.1). Signature-based, so aliasing can report a
// conflict that is not real — exactly as in hardware.
func (c *Chunk) ConflictsWith(otherW *sig.Sig) bool {
	return otherW.Overlaps(&c.RSig) || otherW.Overlaps(&c.WSig)
}

// TrulyConflictsWith reports whether an exact line of ws is really in the
// chunk's read or write set; used only to classify squashes into "data
// conflict" vs "signature aliasing" for the §6.1 statistics. Both line
// sets are empty or Finalize's sorted output: each probe is a binary search.
func (c *Chunk) TrulyConflictsWith(ws []sig.Line) bool {
	for _, l := range ws {
		if _, ok := slices.BinarySearch(c.WriteLines, l); ok {
			return true
		}
		if _, ok := slices.BinarySearch(c.ReadLines, l); ok {
			return true
		}
	}
	return false
}
