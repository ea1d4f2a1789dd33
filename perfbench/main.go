// Command perfbench is the repository's benchmark. It runs one named
// workload through the entry points users call (Session.SweepContext for
// the figure sweep, RunContext for single runs), repeats it for a fixed
// time, checks every point's result fingerprint, and prints one JSON object
// as its last line. With --trace 1 it adds a traced pass that drives each
// point through the machine API and reports per-module layer metrics. See
// README.md for the workloads, metrics and attribution rules.
//
//	bash perfbench/run.sh --workload fig-sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"scalablebulk/internal/system"
)

const (
	// setup_s is the median of at least setupBuilds builds of the largest
	// machine, and of as many as fit in setupTime: a single Build is noisy,
	// and a 1-core one takes only milliseconds.
	setupBuilds = 5
	setupTime   = time.Second
	// runBudget bounds a whole run; work still going on at the deadline is
	// aborted and counts as failed.
	runBudget = 165 * time.Second
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, all host-side.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a --trace 1 run reports.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"system.build_s", "s"}, {"system.build_self_s", "s"},
		{"system.loop_s", "s"}, {"system.loop_self_s", "s"},
		{"system.finish_s", "s"},
		{"workload.warmup_s", "s"}, {"workload.next_s", "s"}, {"workload.chunks", "count"},
		{"event.events", "count"}, {"event.ns_per_event", "ns"},
		{"mesh.msgs", "count"}, {"mesh.flit_hops", "count"},
		{"core.commits", "count"}, {"core.commit_failures", "count"}, {"core.commit_yield", "frac"},
		{"proc.squashes", "count"}, {"dir.read_nacks", "count"},
		{"gc.alloc_mb", "MB"}, {"gc.mallocs", "count"}, {"gc.cpu_s", "s"}, {"gc.cycles", "count"},
	}
	for _, m := range cpuModules {
		defs = append(defs, metricDef{"cpu." + m, "frac"})
	}
	return append(defs, metricDef{"trace.wall_s", "s"}, metricDef{"trace.overhead_s", "s"})
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", DefaultSeed, "simulation seed; fingerprints are pinned for the default")
	seconds := fs.Float64("seconds", 10, "how long to repeat the untraced workload")
	traced := fs.Int("trace", 0, "1 adds the traced pass and reports per-layer metrics instead")
	aa := fs.Int("aa", 0, "A/A mode: run this many interleaved rounds of two identical legs, each leg a child process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --trace 0|1 and --seconds > 0\n", workloadNames())
		return 2
	}
	// One process, no more threads than CPUs.
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	probeHost().write(stdout)
	if *aa > 0 {
		return runAA(w, *seed, *seconds, *aa, stdout, stderr)
	}
	var pins map[string]string
	if *seed == DefaultSeed {
		all, err := loadPins(strings.NewReader(pinsText))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		pins = all[w.Name]
		if pins == nil {
			pins = map[string]string{} // every point then fails as unpinned
		}
	}
	rep, err := bench(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, pins, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// bench runs one workload: setup_s builds (untraced runs only), untraced
// passes for the given time, then with traced the traced pass. pins is nil
// off the default seed.
func bench(w Workload, seed int64, seconds time.Duration, traced bool, pins map[string]string, stdout, stderr io.Writer) (*report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	chk := newChecker(pins, stderr)
	rep := &report{}
	values := map[string]float64{}

	if !traced {
		prof, cfg, err := w.config(w.Setup, seed)
		if err != nil {
			return nil, err
		}
		var builds []float64
		for t0 := time.Now(); len(builds) < setupBuilds || time.Since(t0) < setupTime; {
			runtime.GC()
			b0 := time.Now()
			if _, err := system.Build(prof, cfg); err != nil {
				return nil, fmt.Errorf("setup build %s: %w", label(w.Setup), err)
			}
			builds = append(builds, time.Since(b0).Seconds())
		}
		values["setup_s"] = median(builds)
		summarize(stdout, "setup_s", builds)
	}

	// Passes repeat while the next one is expected to end within seconds.
	var walls []float64
	for t0 := time.Now(); ctx.Err() == nil; {
		runtime.GC()
		wall, runs := runUntraced(ctx, w, seed)
		failed := chk.check(runs)
		rep.Attempted += len(runs)
		rep.Failed += failed
		walls = append(walls, wall.Seconds())
		fmt.Fprintf(stdout, "pass %d wall_s=%.6f points=%d failed=%d\n", len(walls), wall.Seconds(), len(runs), failed)
		elapsed := time.Since(t0)
		if elapsed+elapsed/time.Duration(len(walls)) > seconds {
			break
		}
	}
	values["wall_s"] = median(walls)
	summarize(stdout, "wall_s", walls)

	if traced {
		runtime.GC()
		var cpu bytes.Buffer
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		tr := newTracer()
		var lay layers
		twall, runs := runTraced(ctx, w, seed, tr, &lay)
		pprof.StopCPUProfile()
		failed := chk.check(runs)
		rep.Attempted += len(runs)
		rep.Failed += failed
		shares, err := cpuShares(cpu.Bytes())
		if err != nil {
			return nil, err
		}
		tr.write(stdout)
		layerValues(values, &lay, shares)
		values["trace.wall_s"] = twall.Seconds()
		values["trace.overhead_s"] = twall.Seconds() - values["wall_s"]
		fmt.Fprintf(stdout, "trace wall_s=%.6f untraced_median_s=%.6f overhead_s=%.6f points=%d failed=%d\n",
			twall.Seconds(), values["wall_s"], values["trace.overhead_s"], len(runs), failed)
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		values["peak_rss_mb"] = rss
	}
	chk.printFingerprints(stdout, w.Name)
	fmt.Fprintf(stdout, "fail_frac=%.6f (%d of %d operations failed)\n",
		float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	rep.Metrics = map[string]metric{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		rep.Metrics[d.name] = metric{v, d.unit}
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// layerValues fills the per-layer metrics from the traced pass.
func layerValues(v map[string]float64, l *layers, shares map[string]float64) {
	v["system.build_s"] = l.build.Seconds()
	v["system.build_self_s"] = l.buildSelf.Seconds()
	v["system.loop_s"] = l.loop.Seconds()
	v["system.loop_self_s"] = l.loopSelf.Seconds()
	v["system.finish_s"] = l.finish.Seconds()
	v["workload.warmup_s"] = l.warmup.Seconds()
	v["workload.next_s"] = l.next.Seconds()
	v["workload.chunks"] = float64(l.chunks)
	v["event.events"] = float64(l.events)
	v["event.ns_per_event"] = ratio(float64(l.loop.Nanoseconds()), float64(l.events))
	v["mesh.msgs"] = float64(l.msgs)
	v["mesh.flit_hops"] = float64(l.flitHops)
	v["core.commits"] = float64(l.commits)
	v["core.commit_failures"] = float64(l.commitFailures)
	v["core.commit_yield"] = ratio(float64(l.commits), float64(l.commits+l.commitFailures))
	v["proc.squashes"] = float64(l.squashes)
	v["dir.read_nacks"] = float64(l.readNacks)
	v["gc.alloc_mb"] = l.gc[0] / (1 << 20)
	v["gc.mallocs"] = l.gc[1]
	v["gc.cpu_s"] = l.gc[2]
	v["gc.cycles"] = l.gc[3]
	for m, s := range shares {
		v["cpu."+m] = s
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := median(s)
		return v, v
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// summarize prints a timing's median, quartiles and sample count.
func summarize(out io.Writer, name string, xs []float64) {
	q1, q3 := quartiles(xs)
	fmt.Fprintf(out, "summary %s median=%.6f q1=%.6f q3=%.6f n=%d\n", name, median(xs), q1, q3, len(xs))
}

// runAA is the A/A sanity mode: rounds of two legs of the same build, each
// leg a child process running the untraced benchmark, the leg order
// alternating per round. For every end-to-end metric it prints the ratio of
// the legs' medians (B/A, ≈1.0 on a quiet host) next to each leg's quartile
// spread as a share of its median.
func runAA(w Workload, seed int64, seconds float64, rounds int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	legs := [2]map[string][]float64{{}, {}}
	failed := false
	for r := 0; r < rounds; r++ {
		order := []int{0, 1}
		if r%2 == 1 {
			order = []int{1, 0}
		}
		for _, leg := range order {
			rep, err := runChild(exe, w.Name, seed, seconds, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: round %d leg %c: %v\n", r+1, 'A'+leg, err)
				failed = true
				continue
			}
			fmt.Fprintf(stdout, "aa round=%d leg=%c correct=%t", r+1, 'A'+leg, rep.Correct)
			for _, d := range endToEnd {
				v := rep.Metrics[d.name].Value
				legs[leg][d.name] = append(legs[leg][d.name], v)
				fmt.Fprintf(stdout, " %s=%.6f", d.name, v)
			}
			fmt.Fprintln(stdout)
			failed = failed || !rep.Correct
		}
	}
	type cell struct {
		Unit     string  `json:"unit"`
		AMedian  float64 `json:"a_median"`
		BMedian  float64 `json:"b_median"`
		Ratio    float64 `json:"ratio"`
		AIQRFrac float64 `json:"a_iqr_frac"`
		BIQRFrac float64 `json:"b_iqr_frac"`
	}
	cells := map[string]cell{}
	spread := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		return ratio(q3-q1, median(xs))
	}
	for _, d := range endToEnd {
		a, b := legs[0][d.name], legs[1][d.name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		c := cell{Unit: d.unit, AMedian: median(a), BMedian: median(b),
			Ratio: ratio(median(b), median(a)), AIQRFrac: spread(a), BIQRFrac: spread(b)}
		cells[d.name] = c
		fmt.Fprintf(stdout, "aa %s ratio_b/a=%.4f a_median=%.6f b_median=%.6f a_iqr=%.2f%% b_iqr=%.2f%% rounds=%d\n",
			d.name, c.Ratio, c.AMedian, c.BMedian, 100*c.AIQRFrac, 100*c.BIQRFrac, len(a))
	}
	line, err := json.Marshal(map[string]any{"workload": w.Name, "seed": seed, "rounds": rounds, "aa": cells})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if failed {
		return 1
	}
	return 0
}

// runChild runs one untraced leg and returns its result line.
func runChild(exe, workload string, seed int64, seconds float64, stderr io.Writer) (*report, error) {
	var out bytes.Buffer
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	var last string
	for sc := bufio.NewScanner(&out); sc.Scan(); {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return nil, errors.Join(runErr, fmt.Errorf("result line: %w", err))
	}
	return &rep, nil
}
