package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	sb "scalablebulk"
)

// Tiny workloads: the same code paths as the real ones at a size that runs in
// well under a second.
var (
	tinySingle = Workload{Name: "tiny-single", ChunksPerCore: 2,
		Points: []sb.Point{{App: "Radix", Protocol: sb.ProtoScalableBulk, Cores: 4}},
		Setup:  sb.Point{App: "Radix", Protocol: sb.ProtoScalableBulk, Cores: 4}}
	tinySweep = Workload{Name: "tiny-sweep", Sweep: true, ChunksPerCore: 1,
		Points: []sb.Point{
			{App: "Barnes", Protocol: sb.ProtoScalableBulk, Cores: 1},
			{App: "Barnes", Protocol: sb.ProtoTCC, Cores: 32},
		},
		Setup: sb.Point{App: "Barnes", Protocol: sb.ProtoTCC, Cores: 32}}
)

const tinySeed = 7

// lastJSON decodes the last line of a run's standard output.
func lastJSON(t *testing.T, out string) report {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return rep
}

// withWorkload makes w selectable by name for the duration of the test.
func withWorkload(t *testing.T, w Workload) {
	saved := Workloads
	Workloads = append(append([]Workload(nil), Workloads...), w)
	t.Cleanup(func() { Workloads = saved })
}

// pinsOf runs w untraced once and pins every simulation's fingerprint.
func pinsOf(t *testing.T, w Workload, seed int64) map[string]string {
	t.Helper()
	var out bytes.Buffer
	rep, err := bench(w, seed, time.Nanosecond, false, nil, &out, io.Discard)
	if err != nil || !rep.Correct {
		t.Fatalf("pinning run: err=%v report=%+v", err, rep)
	}
	var lines []string
	for _, l := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(l, "fp "); ok {
			lines = append(lines, rest)
		}
	}
	all, err := loadPins(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(all[w.Name]) != len(w.Points) {
		t.Fatalf("pinned %d points, want %d", len(all[w.Name]), len(w.Points))
	}
	return all[w.Name]
}

// TestEveryMetricPrintsWithUnit runs the command on a tiny workload in both
// modes and checks the result line names exactly the metrics BENCHMARK.json
// declares, each with its declared unit.
func TestEveryMetricPrintsWithUnit(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, sw := range spec.Workloads {
		if _, ok := workloadByName(sw.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", sw.Name)
		}
	}
	withWorkload(t, tinySingle)
	for mode, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var out, errb bytes.Buffer
		code := realMain([]string{"--workload", tinySingle.Name, "--seed", "7", "--seconds", "0.01", "--trace", mode}, &out, &errb)
		if code != 0 {
			t.Fatalf("--trace %s: exit %d\n%s", mode, code, errb.String())
		}
		if !strings.Contains(out.String(), "host nproc=") {
			t.Errorf("--trace %s: output does not record the host", mode)
		}
		rep := lastJSON(t, out.String())
		if len(rep.Metrics) != len(want) {
			t.Errorf("--trace %s: %d metrics, BENCHMARK.json declares %d", mode, len(rep.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := rep.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("--trace %s: metric %s = %+v, want unit %q", mode, m.Name, got, m.Unit)
			}
		}
		if rep.Attempted < 1 || rep.Failed != 0 || !rep.Correct {
			t.Errorf("--trace %s: attempted=%d failed=%d correct=%t", mode, rep.Attempted, rep.Failed, rep.Correct)
		}
	}
}

// TestTamperedPinCountsAsFailure: a fingerprint that differs from its pin is
// a failed operation, the run is not correct and the command exits non-zero.
func TestTamperedPinCountsAsFailure(t *testing.T) {
	for _, w := range []Workload{tinySingle, tinySweep} {
		pins := pinsOf(t, w, tinySeed)
		rep, err := bench(w, tinySeed, time.Nanosecond, false, pins, io.Discard, io.Discard)
		if err != nil || rep.Failed != 0 || !rep.Correct {
			t.Fatalf("%s with true pins: err=%v report=%+v", w.Name, err, rep)
		}
		victim := label(w.Points[len(w.Points)-1])
		pins[victim] = strings.Repeat("0", 64)
		var log bytes.Buffer
		rep, err = bench(w, tinySeed, time.Nanosecond, false, pins, io.Discard, &log)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 1 || rep.Correct {
			t.Errorf("%s with a tampered pin: failed=%d correct=%t, want 1 failure", w.Name, rep.Failed, rep.Correct)
		}
		if !strings.Contains(log.String(), "FAIL "+victim) {
			t.Errorf("%s: failure log does not name %s:\n%s", w.Name, victim, log.String())
		}
	}

	// The command's exit status reflects it: at the default seed every point
	// must have a pin, and the tiny workload has none.
	withWorkload(t, tinySingle)
	var out bytes.Buffer
	code := realMain([]string{"--workload", tinySingle.Name, "--seed", "1", "--seconds", "0.01"}, &out, io.Discard)
	if rep := lastJSON(t, out.String()); code == 0 || rep.Correct || rep.Failed == 0 {
		t.Errorf("unpinned default-seed run: exit %d, report %+v; want a failure", code, rep)
	}
}

// TestTracedMatchesUntraced: the traced pass drives the machine API with a
// timing pass-through workload source and must compute exactly what the
// public entry points compute.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range []Workload{tinySingle, tinySweep} {
		_, plain := runUntraced(context.Background(), w, tinySeed)
		var lay layers
		_, traced := runTraced(context.Background(), w, tinySeed, newTracer(), &lay)
		for i := range plain {
			if plain[i].err != nil || traced[i].err != nil {
				t.Fatalf("%s: untraced err %v, traced err %v", plain[i].label, plain[i].err, traced[i].err)
			}
			if plain[i].label != traced[i].label || plain[i].fp != traced[i].fp {
				t.Errorf("%s: untraced %s, traced %s %s", plain[i].label, plain[i].fp, traced[i].label, traced[i].fp)
			}
		}
		if lay.events == 0 || lay.chunks == 0 || lay.commits == 0 {
			t.Errorf("%s: traced pass counted nothing: %+v", w.Name, lay)
		}
	}
}

// TestPinsCoverWorkloads: every point a default-seed run makes has a pin.
func TestPinsCoverWorkloads(t *testing.T) {
	all, err := loadPins(strings.NewReader(pinsText))
	if err != nil {
		t.Fatal(err)
	}
	n, pinned := 0, 0
	for _, w := range Workloads {
		for _, p := range w.Points {
			if _, ok := all[w.Name][label(p)]; !ok {
				t.Errorf("%s: no pin for %s", w.Name, label(p))
			}
			n++
		}
	}
	for _, m := range all {
		pinned += len(m)
	}
	if pinned != n {
		t.Errorf("pins.txt holds %d pins for %d points", pinned, n)
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess2", "scalablebulk/internal/dir.(*State).AddSharer", "scalablebulk/internal/system.Build"}, "dir"},
		{[]string{"runtime.mallocgc", "scalablebulk/internal/cache.New.func1"}, "cache"},
		{[]string{"scalablebulk.RunContext", "main.bench"}, "root"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"scalablebulk/internal/farm.(*Server).lease"}, "other"},
		{[]string{"scalablebulk/perfbench.bench", "runtime.main"}, "other"},
		{[]string{"runtime.futex"}, "other"},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestCPUSharesSumToOne decodes a real CPU profile of a traced pass.
func TestCPUSharesSumToOne(t *testing.T) {
	withWorkload(t, tinySweep)
	var out bytes.Buffer
	if code := realMain([]string{"--workload", tinySweep.Name, "--seed", "7", "--seconds", "0.01", "--trace", "1"}, &out, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	rep := lastJSON(t, out.String())
	sum := 0.0
	for _, m := range cpuModules {
		sum += rep.Metrics["cpu."+m].Value
	}
	// A pass this short may draw no profile sample at all.
	if sum != 0 && math.Abs(sum-1) > 1e-9 {
		t.Errorf("cpu shares sum to %v", sum)
	}
	if !strings.Contains(out.String(), "system.Build") || !strings.Contains(out.String(), "point Barnes/TCC/32") {
		t.Errorf("spans missing from output:\n%s", out.String())
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
