package workload

import (
	"math/rand"
	"sync"

	"scalablebulk/internal/chunk"
)

// lazySource is a rand.Source64 whose stream is bit-identical to
// rand.NewSource's, but whose Seed is O(1): each lag entry is computed on
// its first read from x₀ = the folded seed (DESIGN.md §20),
//
//	vec[i] = x₀A^(21+3i)<<40 ^ x₀A^(22+3i)<<20 ^ x₀A^(23+3i) ^ rngCooked[i]
//
// with A = 48271 mod 2³¹−1. Feed and tap walk down from where Seed leaves
// them, so a first read is the feed entry of each of the first 334 draws,
// or the tap entry while it lies above 333.
type lazySource struct {
	x0        uint64
	tap, feed int
	fresh     int // draws left whose feed entry is unread
	vec       [lagLen]int64
}

const (
	lagLen = 607       // math/rand's rngLen
	lagTap = 273       // math/rand's rngTap
	lcgMod = 1<<31 - 1 // the seeding LCG's Mersenne-prime modulus
	lcgMul = 48271     // the seeding LCG's multiplier
	seed0  = 89482311  // math/rand's substitute for a zero seed
)

var (
	// lagPowers[i] = 48271^(21+3i) mod (2³¹−1): entry i's first LCG power.
	lagPowers [lagLen]uint64
	// rngCooked is math/rand's private seeding table, recovered at init.
	rngCooked [lagLen]int64
)

// mulMod returns a·b mod 2³¹−1 for a, b < 2³¹ by Mersenne reduction.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&lcgMod + p>>31
	p = p&lcgMod + p>>31
	if p >= lcgMod {
		p -= lcgMod
	}
	return p
}

func init() {
	a := uint64(1)
	for k := range 21 + 3*lagLen {
		if k >= 21 && (k-21)%3 == 0 {
			lagPowers[(k-21)/3] = a
		}
		a = mulMod(a, lcgMul)
	}
	// Recover rngCooked: 607 draws of math/rand's source overwrite each lag
	// entry once with the value returned, undoing them newest first gives
	// the seeded register, and XORing off the seed-1 LCG terms the table.
	src := rand.NewSource(1).(rand.Source64)
	var vec [lagLen]int64
	tap, feed := 0, lagLen-lagTap
	for range lagLen {
		tap, feed = (tap+lagLen-1)%lagLen, (feed+lagLen-1)%lagLen
		vec[feed] = int64(src.Uint64())
	}
	for range lagLen {
		vec[feed] -= vec[tap]
		tap, feed = (tap+1)%lagLen, (feed+1)%lagLen
	}
	var s lazySource
	s.Seed(1)
	for i := range vec {
		s.materialize(i) // rngCooked[i] is still 0: this is the LCG part
		rngCooked[i] = vec[i] ^ s.vec[i]
	}
}

// Seed folds seed exactly as math/rand's rngSource.Seed does and forgets
// every materialized entry.
func (s *lazySource) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = seed0
	}
	s.x0 = uint64(seed)
	s.tap, s.feed = 0, lagLen-lagTap
	s.fresh = lagLen - lagTap
}

// materialize sets lag entry i to its seeded value.
func (s *lazySource) materialize(i int) {
	x := mulMod(s.x0, lagPowers[i])
	y := mulMod(x, lcgMul)
	z := mulMod(y, lcgMul)
	s.vec[i] = int64(x<<40^y<<20^z) ^ rngCooked[i]
}

// Uint64 is rngSource.Uint64: an additive lagged Fibonacci step.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += lagLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lagLen
	}
	if s.fresh > 0 {
		s.fresh--
		s.materialize(s.feed)
		if s.tap >= lagLen-lagTap {
			s.materialize(s.tap)
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is rngSource.Int63.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// genRand is one chunk generation's reusable state: a rand.Rand over a
// lazySource, a scratch access buffer, and the last Zipf built over the Rand
// (it holds only constants and the Rand, so it is reused while they match).
type genRand struct {
	src  lazySource
	r    *rand.Rand
	acc  []chunk.Access
	zipf *rand.Zipf
	zs   float64 // zipf's s
	zmax uint64  // zipf's imax
}

// rngPool gives each concurrent chunk generation a genRand of its own.
var rngPool = sync.Pool{New: func() any {
	g := new(genRand)
	g.r = rand.New(&g.src)
	return g
}}

// seededRand returns a pooled generator seeded with seed; build the chunk's
// accesses in its acc buffer and hand the chunk to release when done.
func seededRand(seed int64) *genRand {
	g := rngPool.Get().(*genRand)
	g.r.Seed(seed)
	return g
}

// release gives ck a copy of the accesses built in g's buffer (nil when
// there are none, as a chunk built without the buffer has), keeps the
// buffer, and returns g to the pool.
func (g *genRand) release(ck *chunk.Chunk) {
	g.acc = ck.Accesses[:0]
	ck.Accesses = append([]chunk.Access(nil), ck.Accesses...)
	rngPool.Put(g)
}

// zipfOver returns a Zipf(s, 1, imax) over g's Rand, built once per
// parameter pair; it is equivalent to rand.NewZipf(g.r, s, 1, imax).
func (g *genRand) zipfOver(s float64, imax uint64) *rand.Zipf {
	if g.zipf == nil || g.zs != s || g.zmax != imax {
		g.zipf, g.zs, g.zmax = rand.NewZipf(g.r, s, 1, imax), s, imax
	}
	return g.zipf
}
