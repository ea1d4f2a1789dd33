package main

import (
	"bufio"
	"context"
	_ "embed"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	sb "scalablebulk"
)

// Workload is one benchmark input: a fixed list of simulation points run
// through the entry point a user of that scale calls.
type Workload struct {
	Name string
	// Sweep runs Points through Session.SweepContext at parallelism 1, the
	// figure-regeneration path; otherwise each point goes through RunContext.
	Sweep bool
	// ChunksPerCore is the Session sizing (chunks per core at 64 cores) for a
	// sweep, and the point's own chunks per core for a single run.
	ChunksPerCore int
	Points        []sb.Point
	// Setup is the workload's largest machine, the one setup_s builds.
	Setup sb.Point
}

// DefaultSeed is the seed whose fingerprints are pinned in pins.txt.
const DefaultSeed = 1

// apps are the applications of every workload but kvstore-64: two SPLASH-2
// kernels with opposite sharing (Barnes, Radix), a stencil (Ocean) and the
// PARSEC application with the largest footprint (Canneal).
var apps = []string{"Barnes", "Radix", "Ocean", "Canneal"}

var (
	barnes1   = sb.Point{App: "Barnes", Protocol: sb.ProtoScalableBulk, Cores: 1}
	barnes64  = sb.Point{App: "Barnes", Protocol: sb.ProtoScalableBulk, Cores: 64}
	barnes256 = sb.Point{App: "Barnes", Protocol: sb.ProtoScalableBulk, Cores: 256}
	kvstore64 = sb.Point{App: "kvstore", Protocol: sb.ProtoScalableBulk, Cores: 64}
)

// Workloads are the benchmark's named inputs. README.md records why each was
// chosen, and why paper-64, barnes-256 and kvstore-64 are for manual runs
// only: on some seeds their ScalableBulk runs never finish.
var Workloads = []Workload{
	{Name: "fig-sweep", Sweep: true, ChunksPerCore: 4, Points: figSweepPoints(), Setup: barnes64},
	{Name: "baseline-1c", Sweep: true, ChunksPerCore: 64, Points: appPoints(1), Setup: barnes1},
	{Name: "paper-64", ChunksPerCore: 64, Points: appPoints(64), Setup: barnes64},
	{Name: "barnes-256", ChunksPerCore: 8, Points: []sb.Point{barnes256}, Setup: barnes256},
	{Name: "kvstore-64", ChunksPerCore: 16, Points: []sb.Point{kvstore64}, Setup: kvstore64},
}

// figSweepPoints is the fixed slice of Session.SweepPoints for apps, in sweep
// order: each app's 1-core baseline, then every evaluated protocol at 32 and
// 64 cores.
func figSweepPoints() []sb.Point {
	var pts []sb.Point
	for _, p := range sb.NewSession(4, DefaultSeed, nil).SweepPoints() {
		if slices.Contains(apps, p.App) {
			pts = append(pts, p)
		}
	}
	return pts
}

// appPoints are apps under ScalableBulk on a machine of the given size.
func appPoints(cores int) []sb.Point {
	var pts []sb.Point
	for _, app := range apps {
		pts = append(pts, sb.Point{App: app, Protocol: sb.ProtoScalableBulk, Cores: cores})
	}
	return pts
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range Workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

func label(p sb.Point) string { return fmt.Sprintf("%s/%s/%d", p.App, p.Protocol, p.Cores) }

// config materializes the Config and Profile a point runs under: for a sweep
// exactly what Session gives it, for a single run the Table 2 machine with
// the workload's chunks per core.
func (w Workload) config(p sb.Point, seed int64) (sb.Profile, sb.Config, error) {
	var cfg sb.Config
	if w.Sweep {
		cfg = sb.SweepPointConfig(p, w.ChunksPerCore, seed)
	} else {
		cfg = sb.DefaultConfig(p.Cores, p.Protocol)
		cfg.ChunksPerCore = w.ChunksPerCore
		cfg.Seed = seed
	}
	prof, err := sb.ResolvePointProfile(p.App, &cfg)
	return prof, cfg, err
}

// pointRun is one simulated point's outcome.
type pointRun struct {
	label string
	res   *sb.Result
	fp    string // FingerprintSHA, empty when err != nil
	err   error
}

// runUntraced runs every point once through the workload's public entry point
// and returns the host time of that call alone; fingerprinting comes after.
func runUntraced(ctx context.Context, w Workload, seed int64) (time.Duration, []pointRun) {
	runs := make([]pointRun, len(w.Points))
	var wall time.Duration
	if w.Sweep {
		t0 := time.Now()
		s := sb.NewSession(w.ChunksPerCore, seed, nil)
		out := s.SweepContext(ctx, w.Points, 1)
		wall = time.Since(t0)
		for i, p := range w.Points {
			runs[i].label = label(p)
			if out.Aborted {
				// Aborted points left the cache; Result would re-run them.
				runs[i].err = sb.ErrAborted
				continue
			}
			runs[i].res, runs[i].err = s.Result(p.App, p.Protocol, p.Cores)
		}
	} else {
		for i, p := range w.Points {
			runs[i].label = label(p)
			prof, cfg, err := w.config(p, seed)
			if err != nil {
				runs[i].err = err
				continue
			}
			t0 := time.Now()
			runs[i].res, runs[i].err = sb.RunContext(ctx, prof, cfg)
			wall += time.Since(t0)
		}
	}
	for i := range runs {
		if runs[i].err == nil {
			runs[i].fp = sb.FingerprintSHA(runs[i].res)
		}
	}
	return wall, runs
}

//go:embed pins.txt
var pinsText string

// loadPins parses pin lines "<workload> <App/Protocol/cores> <sha256>", the
// same form the benchmark prints after "fp ", into workload → label → sha.
func loadPins(r io.Reader) (map[string]map[string]string, error) {
	pins := map[string]map[string]string{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 || len(f[2]) != 64 {
			return nil, fmt.Errorf("pins line %d: want <workload> <point> <sha256>, got %q", n, line)
		}
		if pins[f[0]] == nil {
			pins[f[0]] = map[string]string{}
		}
		pins[f[0]][f[1]] = f[2]
	}
	return pins, sc.Err()
}

// checker decides which point runs count as failed operations.
type checker struct {
	// pins maps label → pinned fingerprint; nil off the default seed.
	pins map[string]string
	// ref holds the first fingerprint seen per label: every later pass and
	// the traced pass must reproduce it on any seed.
	ref map[string]string
	log io.Writer
}

func newChecker(pins map[string]string, log io.Writer) *checker {
	return &checker{pins: pins, ref: map[string]string{}, log: log}
}

// check returns how many runs failed: an error (including a timeout), a
// failed accounting cross-check, or a fingerprint that differs from its pin
// or from the run's first result for the point.
func (c *checker) check(runs []pointRun) int {
	failed := 0
	for _, r := range runs {
		if why := c.verdict(r); why != "" {
			failed++
			fmt.Fprintf(c.log, "FAIL %s: %s\n", r.label, why)
		}
	}
	return failed
}

func (c *checker) verdict(r pointRun) string {
	if r.err != nil {
		return r.err.Error()
	}
	if err := r.res.Validate(); err != nil {
		return "accounting: " + err.Error()
	}
	if ref, ok := c.ref[r.label]; !ok {
		c.ref[r.label] = r.fp
	} else if ref != r.fp {
		return fmt.Sprintf("fingerprint %s, earlier in this run %s", r.fp, ref)
	}
	if c.pins != nil {
		switch pin, ok := c.pins[r.label]; {
		case !ok:
			return "no pinned fingerprint"
		case pin != r.fp:
			return fmt.Sprintf("fingerprint %s, pinned %s", r.fp, pin)
		}
	}
	return ""
}

// printFingerprints writes one "fp <workload> <point> <sha>" line per point
// in sorted order, so two commits' outputs diff line by line and the default
// seed's lines (without "fp ") are pins.txt.
func (c *checker) printFingerprints(out io.Writer, workload string) {
	labels := make([]string, 0, len(c.ref))
	for l := range c.ref {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(out, "fp %s %s %s\n", workload, l, c.ref[l])
	}
}
