package event

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// trace drives a scheduler through a scripted random workload and records
// the exact firing order. Both engines must produce bit-identical traces.
type scheduler interface {
	Now() Time
	Pending() int
	Fired() uint64
	Step() bool
	RunUntil(limit Time) uint64
}

// harness is one engine under test: the scheduler, its At (returning a
// cancel function), and an optional white-box check run after every event.
type harness struct {
	eng   scheduler
	at    func(Time, Handler) func()
	check func()
}

// denseDelays mimic the machine model: mostly short (+2, +7, +300), with rare
// +200k watchdogs that exercise the calendar overflow heap.
var denseDelays = []Time{1, 2, 2, 7, 7, 7, 13, 48, 300, 1600, 5000, 200_000}

// sparseDelays leave long runs of empty cycles, so the scan jumps across
// occupancy-bitmap word boundaries (63/64/65) and whole ring laps
// (4095/4096/4097), as a 1-core run does.
var sparseDelays = []Time{63, 64, 65, 300, 4095, 4096, 4097, 200_000}

// calendarHarness runs the calendar Engine with the occupancy invariant
// checked after every event.
func calendarHarness(t *testing.T) harness {
	e := New()
	return harness{
		eng:   e,
		at:    func(at Time, fn Handler) func() { tk := e.At(at, fn); return tk.Cancel },
		check: func() { checkOccupancy(t, e) },
	}
}

func heapHarness() harness {
	e := NewHeap()
	return harness{
		eng: e,
		at:  func(at Time, fn Handler) func() { tk := e.At(at, fn); return tk.Cancel },
	}
}

// checkOccupancy asserts the calendar's bitmap invariant: every bucket that
// holds an item has its occupancy bit set.
func checkOccupancy(t *testing.T, e *Engine) {
	t.Helper()
	for s := range e.buckets {
		b := &e.buckets[s]
		if b.head < len(b.items) && e.occ[s>>6]&(1<<(s&63)) == 0 {
			t.Fatalf("at %d: bucket %d holds %d items but its occupancy bit is clear",
				e.now, s, len(b.items)-b.head)
		}
	}
}

// script is a deterministic schedule: initial events, handler-spawned
// events, and cancellations, all derived from one seed and drawn from the
// given delay table, plus same-cycle collisions scheduled both inside and
// outside the window to exercise the seq-order bucket merge.
func runScript(t *testing.T, seed int64, delays []Time, h harness) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eng, at := h.eng, h.at
	check := func() {
		if h.check != nil {
			h.check()
		}
	}

	var trace []string
	var cancels []func()
	id := 0

	var spawn func(depth int) Handler
	spawn = func(depth int) Handler {
		myID := id
		id++
		return func() {
			check()
			trace = append(trace, fmt.Sprintf("%d@%d", myID, eng.Now()))
			if depth < 3 {
				n := rng.Intn(3)
				for i := 0; i < n; i++ {
					d := delays[rng.Intn(len(delays))]
					c := at(eng.Now()+d, spawn(depth+1))
					if rng.Intn(8) == 0 {
						cancels = append(cancels, c)
					}
				}
			}
		}
	}

	for i := 0; i < 60; i++ {
		d := delays[rng.Intn(len(delays))]
		c := at(d, spawn(0))
		if rng.Intn(6) == 0 {
			cancels = append(cancels, c)
		}
	}
	// A burst of same-cycle events far out: some land in the overflow heap
	// now, the rest are scheduled into the ring after time advances, so FIFO
	// across the two paths is on trial.
	for i := 0; i < 10; i++ {
		at(199_000, spawn(0))
	}
	// A cancelled sole occupant of its cycle, far from everything else.
	cancels = append(cancels, at(150_001, spawn(0)))
	for _, c := range cancels {
		c()
	}
	cancels = nil

	// Mix RunUntil idling (which must not disturb later schedules) with
	// stepping and late scheduling.
	eng.RunUntil(100)
	check()
	at(eng.Now()+3, spawn(0))
	for eng.Step() {
		check()
		if eng.Fired() == 40 {
			at(eng.Now(), spawn(0)) // same-cycle from a non-handler context
		}
	}
	eng.RunUntil(eng.Now() + 10_000) // idle clock advance on empty queue
	check()
	at(eng.Now()+299_999, spawn(1)) // far event after an idle jump
	at(eng.Now()+4097, spawn(2))    // a ring lap and one cycle after the idle jump
	eng.RunUntil(eng.Now() + 1_000_000)
	check()
	if eng.Pending() != 0 {
		t.Fatalf("events left pending: %d", eng.Pending())
	}
	trace = append(trace, fmt.Sprintf("end@%d fired=%d", eng.Now(), eng.Fired()))
	return trace
}

// compareEngines runs one script on the calendar Engine and on the heap
// reference and requires identical firing traces.
func compareEngines(t *testing.T, seed int64, delays []Time) {
	t.Helper()
	cal := runScript(t, seed, delays, calendarHarness(t))
	ref := runScript(t, seed, delays, heapHarness())
	if len(cal) != len(ref) {
		t.Fatalf("seed %d: trace lengths differ: calendar %d vs heap %d", seed, len(cal), len(ref))
	}
	for i := range cal {
		if cal[i] != ref[i] {
			t.Fatalf("seed %d: traces diverge at %d: calendar %q vs heap %q", seed, i, cal[i], ref[i])
		}
	}
}

// TestCalendarMatchesHeapReference drives the calendar Engine and the heap
// reference through identical schedules, dense and sparse, and requires
// identical firing order.
func TestCalendarMatchesHeapReference(t *testing.T) {
	for _, mix := range []struct {
		name   string
		delays []Time
	}{{"dense", denseDelays}, {"sparse", sparseDelays}} {
		t.Run(mix.name, func(t *testing.T) {
			for seed := int64(0); seed < 50; seed++ {
				compareEngines(t, seed, mix.delays)
			}
		})
	}
}

// FuzzCalendarHeapAgree lets the fuzzer choose the seed and the delay table:
// every three bytes of table encode one delay below 250k cycles.
func FuzzCalendarHeapAgree(f *testing.F) {
	f.Add(int64(1), []byte{7, 0, 0, 44, 1, 0, 64, 0, 0})
	f.Add(int64(2), []byte{63, 0, 0, 65, 0, 0, 255, 15, 0, 1, 16, 0, 64, 13, 3})
	f.Fuzz(func(t *testing.T, seed int64, table []byte) {
		var delays []Time
		for i := 0; i+3 <= len(table) && len(delays) < 32; i += 3 {
			v := uint32(table[i]) | uint32(table[i+1])<<8 | uint32(table[i+2])<<16
			delays = append(delays, Time(v%250_000))
		}
		if len(delays) == 0 {
			delays = sparseDelays
		}
		compareEngines(t, seed, delays)
	})
}

// TestCancelledSoleOccupant cancels the only event of an early cycle: the
// scan must drop it, clear the slot's bit and find the live event a lap on.
func TestCancelledSoleOccupant(t *testing.T) {
	e := New()
	e.At(70, func() { t.Error("cancelled event fired") }).Cancel()
	fired := false
	e.At(70+window, func() { fired = true })
	if at, ok := e.NextAt(); !ok || at != 70+window {
		t.Fatalf("NextAt = %d,%v, want %d", at, ok, 70+window)
	}
	checkOccupancy(t, e)
	if e.occ[1]&(1<<(70-64)) != 0 {
		t.Fatal("drained slot keeps its occupancy bit after NextAt")
	}
	e.Run()
	if !fired || e.Now() != 70+window || e.Pending() != 0 {
		t.Fatalf("fired=%v now=%d pending=%d", fired, e.Now(), e.Pending())
	}
}

// Property: under random (delay, cancel) vectors the two engines fire the
// same number of events at the same final clock.
func TestPropertyCalendarHeapAgree(t *testing.T) {
	f := func(delays []uint32, cancelMask []bool, seed int64) bool {
		if len(delays) > 300 {
			delays = delays[:300]
		}
		cal := New()
		ref := NewHeap()
		var calOrder, refOrder []int
		calCancel := make([]func(), len(delays))
		refCancel := make([]func(), len(delays))
		for i, d := range delays {
			i := i
			at := Time(d % 500_000)
			tk := cal.At(at, func() { calOrder = append(calOrder, i) })
			calCancel[i] = tk.Cancel
			hk := ref.At(at, func() { refOrder = append(refOrder, i) })
			refCancel[i] = hk.Cancel
		}
		for i := range delays {
			if i < len(cancelMask) && cancelMask[i] {
				calCancel[i]()
				refCancel[i]()
			}
		}
		cal.Run()
		ref.Run()
		if len(calOrder) != len(refOrder) || cal.Now() != ref.Now() || cal.Fired() != ref.Fired() {
			return false
		}
		for i := range calOrder {
			if calOrder[i] != refOrder[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// simLoad approximates the simulator's event mix: a chain of events whose
// gaps gap(left) chooses, and +200k watchdogs that are cancelled before
// firing.
func simLoad(n int, gap func(left int) Time, at func(Time, Handler) func(), now func() Time, step func() bool) {
	var watchdogs []func()
	var chain Handler
	left := n
	chain = func() {
		if left == 0 {
			return
		}
		left--
		at(now()+gap(left), chain)
		if left%97 == 0 {
			watchdogs = append(watchdogs, at(now()+200_000, func() {}))
		}
		if len(watchdogs) > 4 {
			watchdogs[0]()
			watchdogs = watchdogs[1:]
		}
	}
	at(1, chain)
	for step() {
	}
}

// denseGap is a many-core mix: link hops at +7, directory lookups at +2 and
// an occasional +300 memory trip, about 17 cycles per event.
func denseGap(left int) Time {
	switch left % 29 {
	case 0:
		return 300
	case 1:
		return 2
	}
	return 7
}

// sparseGap is a 1-core mix: one core's misses at +20..+40 between
// directory lookups at +2 and memory trips at +300, about 30 cycles per
// event.
func sparseGap(left int) Time {
	switch {
	case left%29 == 0:
		return 300
	case left%3 == 0:
		return 2
	}
	return 20 + Time(left%21)
}

func benchCalendar(b *testing.B, gap func(int) Time) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		e := New()
		simLoad(10_000, gap,
			func(t Time, fn Handler) func() { tk := e.At(t, fn); return tk.Cancel },
			e.Now, e.Step)
		events += e.Fired()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

func BenchmarkEngineCalendar(b *testing.B)       { benchCalendar(b, denseGap) }
func BenchmarkEngineCalendarSparse(b *testing.B) { benchCalendar(b, sparseGap) }

func BenchmarkEngineHeap(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewHeap()
		simLoad(10_000, denseGap,
			func(t Time, fn Handler) func() { tk := e.At(t, fn); return tk.Cancel },
			e.Now, e.Step)
	}
}
