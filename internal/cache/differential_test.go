package cache

import (
	"math/rand"
	"testing"

	"scalablebulk/internal/mem"
	"scalablebulk/internal/sig"
)

// diffGeoms are the geometries the differential tests run: small 1-, 2-,
// 4- and 8-way caches, where a short stream evicts often, and the Table 2
// L1 and L2.
var diffGeoms = []Config{
	{SizeBytes: 32 * mem.LineBytes, Assoc: 1},
	{SizeBytes: 32 * mem.LineBytes, Assoc: 2},
	{SizeBytes: 64 * mem.LineBytes, Assoc: 4},
	{SizeBytes: 64 * mem.LineBytes, Assoc: 8},
	{SizeBytes: 32 << 10, Assoc: 4},
	{SizeBytes: 512 << 10, Assoc: 8},
}

// diffLine maps two stream bytes to a line in one of 8 sets, with 2*assoc+1
// distinct tags per set so that fills keep evicting.
func diffLine(cfg Config, a, b byte) sig.Line {
	nsets := uint64(cfg.SizeBytes / mem.LineBytes / cfg.Assoc)
	set := uint64(a%8) * 0x9E3779B97F4A7C15 >> 40 & (nsets - 1)
	k := uint64(b) % uint64(2*cfg.Assoc+1)
	return sig.Line(set + k*nsets)
}

// runDiff drives a Cache and a refCache of geometry cfg with the same
// operation stream, three bytes per operation (op, a, b), and fails on the
// first return value, Len or HitRate on which they disagree. At the end
// every line the stream can name must agree on Contains and IsDirty.
func runDiff(t *testing.T, cfg Config, ops []byte) {
	t.Helper()
	c, r := New(cfg), newRef(cfg)
	for i := 0; i+3 <= len(ops); i += 3 {
		op, l := ops[i], diffLine(cfg, ops[i+1], ops[i+2])
		var got, want any
		switch op % 16 {
		case 0, 1:
			got, want = c.Lookup(l, op%2 == 1), r.Lookup(l, op%2 == 1)
		case 2:
			got, want = c.Invalidate(l), r.Invalidate(l)
		case 3:
			c.CommitSpec(l)
			r.CommitSpec(l)
		case 4:
			got, want = c.SquashSpec(l), r.SquashSpec(l)
		case 5:
			got, want = c.IsDirty(l), r.IsDirty(l)
		case 6:
			got, want = c.Contains(l), r.Contains(l)
		case 7:
			c, r = c.Clone(), r.Clone()
		default:
			dirty, spec := op&0x10 != 0, op&0x20 != 0
			cv, cd, ce := c.Fill(l, dirty, spec)
			rv, rd, re := r.Fill(l, dirty, spec)
			if !ce {
				cv = 0
			}
			if !re {
				rv = 0
			}
			got, want = [3]any{cv, cd, ce}, [3]any{rv, rd, re}
		}
		if got != want {
			t.Fatalf("%+v op %d (%d on line %d): got %v, reference %v", cfg, i/3, op%16, l, got, want)
		}
		if c.Len() != r.Len() || c.HitRate() != r.HitRate() {
			t.Fatalf("%+v op %d (%d on line %d): Len/HitRate %d/%v, reference %d/%v",
				cfg, i/3, op%16, l, c.Len(), c.HitRate(), r.Len(), r.HitRate())
		}
	}
	for a := 0; a < 8; a++ {
		for b := 0; b < 2*cfg.Assoc+1; b++ {
			l := diffLine(cfg, byte(a), byte(b))
			if c.Contains(l) != r.Contains(l) || c.IsDirty(l) != r.IsDirty(l) {
				t.Fatalf("%+v: line %d contents differ from the reference", cfg, l)
			}
		}
	}
}

// FuzzCacheMatchesRef checks the flat Cache against the array-of-structs
// reference on a fuzzer-chosen geometry and operation stream.
func FuzzCacheMatchesRef(f *testing.F) {
	f.Add(byte(0), []byte{8, 0, 0, 0x38, 0, 1, 9, 0, 2, 4, 0, 2, 0, 0, 1})
	f.Add(byte(5), []byte{0x38, 3, 0, 1, 3, 0, 3, 3, 0, 7, 0, 0, 4, 3, 0})
	f.Add(byte(1), []byte{0x18, 1, 0, 8, 1, 1, 8, 1, 2, 2, 1, 1, 5, 1, 2})
	f.Fuzz(func(t *testing.T, geom byte, ops []byte) {
		runDiff(t, diffGeoms[int(geom)%len(diffGeoms)], ops)
	})
}

// TestCacheMatchesRef runs seeded random streams on every geometry.
func TestCacheMatchesRef(t *testing.T) {
	for _, cfg := range diffGeoms {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]byte, 3*4000)
			rng.Read(ops)
			runDiff(t, cfg, ops)
		}
	}
}

// TestVictimTieBreak pins the victim among equal LRU stamps to the lowest
// way, as in the reference. The API cannot produce equal stamps (every fill
// and hit takes a fresh clock value), so the test writes them directly.
func TestVictimTieBreak(t *testing.T) {
	cfg := Config{SizeBytes: 4 * mem.LineBytes, Assoc: 4} // one set
	c, r := New(cfg), newRef(cfg)
	for l := sig.Line(0); l < 4; l++ {
		c.Fill(l, false, false)
		r.Fill(l, false, false)
	}
	for i := range c.lru {
		c.lru[i], r.ways[i].lru = 7, 7
	}
	cv, _, _ := c.Fill(4, false, false)
	rv, _, _ := r.Fill(4, false, false)
	if cv != rv || cv != 0 {
		t.Fatalf("victim among equal stamps = %d, reference %d, want 0", cv, rv)
	}
}
