package workload

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"scalablebulk/internal/chunk"
)

// drawsPerSeed covers more than two wraps of the 607-entry lag table, so
// both the lazily materialized first pass and the recycled entries run.
const drawsPerSeed = 1500

func lazyRand(seed int64) *rand.Rand {
	s := new(lazySource)
	s.Seed(seed)
	return rand.New(s)
}

func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, lcgMod, -lcgMod, 1 << 31, -(1 << 31),
		math.MinInt64, math.MaxInt64, seed0, -seed0, 2 * lcgMod,
	}
	pick := rand.New(rand.NewSource(42))
	for range 2000 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	var lazy lazySource // one source reseeded throughout, as the pool uses it
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		lazy.Seed(seed)
		for k := range drawsPerSeed {
			want := ref.Uint64()
			if got := lazy.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: lazy %#x, math/rand %#x", seed, k, got, want)
			}
		}
	}
}

// FuzzLazySourceMatchesMathRand drives both generators through rand.Rand
// with a fuzzer-chosen seed and call mix; every op byte selects a method
// (and, for Intn, a bound), so rejection loops and 32-bit paths run too.
func FuzzLazySourceMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3})
	f.Add(int64(0), []byte{3, 3, 3, 3, 3, 3, 3, 3})
	f.Add(int64(math.MinInt64), []byte{2, 0, 255, 17})
	f.Add(int64(lcgMod), []byte{1})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		ref, lazy := rand.New(rand.NewSource(seed)), lazyRand(seed)
		// Repeat the mix so short inputs still walk past a table wrap.
		for round := 0; round*max(len(ops), 1) < drawsPerSeed; round++ {
			for k, op := range ops {
				var got, want any
				switch op % 4 {
				case 0:
					got, want = lazy.Uint64(), ref.Uint64()
				case 1:
					got, want = lazy.Int63(), ref.Int63()
				case 2:
					got, want = lazy.Float64(), ref.Float64()
				case 3:
					n := int(op)<<(k%24) + 1
					got, want = lazy.Intn(n), ref.Intn(n)
				}
				if got != want {
					t.Fatalf("seed %d round %d op %d (%d): lazy %v, math/rand %v", seed, round, k, op, got, want)
				}
			}
			if len(ops) == 0 {
				break
			}
		}
	})
}

// raceBuild is set in -race builds (race_test.go).
var raceBuild bool

// TestChunkGenAllocs holds chunk generation to the Chunk and its Accesses:
// the pooled Rand, scratch buffer and Zipf and the stack-held shared-page
// pool make everything else allocation-free.
func TestChunkGenAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	const threads = 8
	check := func(name string, src Source) {
		for _, phase := range []struct {
			name string
			gen  func(seq int)
		}{
			{"NextChunk", func(seq int) { src.NextChunk(seq%threads, uint64(seq)) }},
			{"WarmupChunk", func(seq int) { src.WarmupChunk(seq%threads, seq) }},
		} {
			seq := 0
			phase.gen(seq) // fill the pool outside the measurement
			allocs := testing.AllocsPerRun(200, func() {
				seq++
				phase.gen(seq)
			})
			if allocs > 2 {
				t.Errorf("%s %s: %.1f allocs per chunk, want <= 2", name, phase.name, allocs)
			}
		}
	}
	for _, prof := range All() {
		check(prof.Name, New(prof, threads, 1))
	}
	for _, d := range Descriptors() {
		if !d.Adversarial {
			continue
		}
		src, err := d.New(Profile{}, threads, 1)
		if err != nil {
			t.Fatal(err)
		}
		check(d.Name, src)
	}
}

// TestChunkGenConcurrent generates one stream from several goroutines at
// once, as sweep workers and shards do, and checks it against a serial pass.
func TestChunkGenConcurrent(t *testing.T) {
	d, _ := Lookup("zipf")
	zipf, err := d.New(Profile{}, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []Source{New(All()[0], 8, 3), zipf} {
		const n = 200
		want := make([][]chunk.Access, n)
		for i := range want {
			want[i] = src.NextChunk(i%8, uint64(i)).Accesses
		}
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range n {
					if got := src.NextChunk(i%8, uint64(i)).Accesses; !slices.Equal(got, want[i]) {
						t.Errorf("chunk %d differs when generated concurrently", i)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestReleaseKeepsEmptyNil pins that a chunk with no accesses gets nil
// Accesses, as the generators gave before the pooled buffer, whatever
// buffer the pool hands out.
func TestReleaseKeepsEmptyNil(t *testing.T) {
	g := seededRand(1)
	g.acc = make([]chunk.Access, 0, 8)
	ck := &chunk.Chunk{Accesses: g.acc[:0]}
	g.release(ck)
	if ck.Accesses != nil {
		t.Fatalf("empty chunk has Accesses %#v, want nil", ck.Accesses)
	}
}
