package cache

import (
	"testing"

	"scalablebulk/internal/mem"
	"scalablebulk/internal/sig"
)

// The layout micro-benchmarks model one 64-tile machine of Table 2
// hierarchies (32 KB 4-way L1, 512 KB 8-way L2). Its cache arrays are
// 19 MB in the flat layout and 27 MB in the reference layout, far beyond a
// host core's private caches, so a probe pays for the memory it touches.
const (
	benchTiles     = 64
	benchWriteSet  = 32      // lines per committed write set
	benchFootprint = 1 << 16 // lines the machine touches
)

var (
	tableL1 = Config{SizeBytes: 32 << 10, Assoc: 4}
	tableL2 = Config{SizeBytes: 512 << 10, Assoc: 8}
)

// benchHierarchy is what the benchmarks call on a Hierarchy or on a
// refHierarchy.
type benchHierarchy interface {
	Fill(l sig.Line, write bool)
	Invalidate(l sig.Line) bool
}

// benchRand is a xorshift64 step: cheap enough not to show next to a probe.
func benchRand(x *uint64) sig.Line {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return sig.Line(*x % benchFootprint)
}

// warmMachine builds the 64 hierarchies in the given layout and fills each
// with twice its L2's capacity of random lines, one write in four.
func warmMachine(ref bool) []benchHierarchy {
	hs := make([]benchHierarchy, benchTiles)
	x := uint64(88172645463325252)
	for i := range hs {
		if ref {
			hs[i] = &refHierarchy{L1: newRef(tableL1), L2: newRef(tableL2)}
		} else {
			hs[i] = NewHierarchy(tableL1, tableL2)
		}
		for j := 0; j < 2*tableL2.SizeBytes/mem.LineBytes; j++ {
			hs[i].Fill(benchRand(&x), j%4 == 0)
		}
	}
	return hs
}

var benchLayouts = []struct {
	name string
	ref  bool
}{{"flat", false}, {"ref", true}}

// BenchmarkBulkInvalidate64: each op invalidates one 32-line write set in
// every hierarchy, the way a bulk invalidation fans out to its sharers.
func BenchmarkBulkInvalidate64(b *testing.B) {
	for _, lay := range benchLayouts {
		b.Run(lay.name, func(b *testing.B) {
			hs := warmMachine(lay.ref)
			var ws [benchWriteSet]sig.Line
			x := uint64(2463534242)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				for k := range ws {
					ws[k] = benchRand(&x)
				}
				for _, h := range hs {
					for _, l := range ws {
						h.Invalidate(l)
					}
				}
			}
		})
	}
}

// BenchmarkHierarchyFill: each op fills one 32-line set of accesses, one
// write in four, into every hierarchy of the warm machine.
func BenchmarkHierarchyFill(b *testing.B) {
	for _, lay := range benchLayouts {
		b.Run(lay.name, func(b *testing.B) {
			hs := warmMachine(lay.ref)
			x := uint64(2463534242)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				for _, h := range hs {
					for k := 0; k < benchWriteSet; k++ {
						h.Fill(benchRand(&x), k%4 == 0)
					}
				}
			}
		})
	}
}
