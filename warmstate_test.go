package scalablebulk

// Warm-state snapshot suite: a machine started from a clone of a shared
// warm-up snapshot must be indistinguishable from one that warmed up itself
// (byte-identical ResultFingerprints for every protocol, workload source and
// observer hook), the snapshot must survive the runs of its clones
// unchanged, and a Session must never keep a snapshot past the sweep that
// leased it.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"scalablebulk/internal/fault"
	"scalablebulk/internal/system"
	"scalablebulk/internal/tracefmt"
)

// checkCloneMatchesFresh runs cfg once warming up fresh and once from a
// clone of snap, and requires byte-identical fingerprints.
func checkCloneMatchesFresh(t *testing.T, prof Profile, cfg Config, snap *system.Warm) {
	t.Helper()
	fresh, err := RunContext(context.Background(), prof, cfg)
	if err != nil {
		t.Fatalf("%s/%d fresh: %v", cfg.Protocol, cfg.Cores, err)
	}
	cloned, err := system.RunWarmContext(context.Background(), prof, cfg, snap.Clone())
	if err != nil {
		t.Fatalf("%s/%d cloned: %v", cfg.Protocol, cfg.Cores, err)
	}
	if got, want := ResultFingerprint(cloned), ResultFingerprint(fresh); got != want {
		t.Errorf("%s/%s/%d: cloned warm state diverges from a fresh build:\n--- fresh\n%s--- cloned\n%s",
			prof.Name, cfg.Protocol, cfg.Cores, want, got)
	}
}

func mustNewWarm(t *testing.T, prof Profile, cfg Config) *system.Warm {
	t.Helper()
	snap, err := system.NewWarm(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestWarmCloneMatchesFresh: every registered protocol (variants included)
// on the fig-sweep applications at 32 and 64 cores, each machine size warmed
// up once and cloned per protocol, as SweepContext does.
func TestWarmCloneMatchesFresh(t *testing.T) {
	for _, app := range []string{"Barnes", "Radix", "Ocean", "Canneal"} {
		for _, cores := range []int{32, 64} {
			t.Run(fmt.Sprintf("%s-%d", app, cores), func(t *testing.T) {
				t.Parallel()
				prof, _ := AppByName(app)
				cfg := DefaultConfig(cores, "")
				cfg.ChunksPerCore = 1
				snap := mustNewWarm(t, prof, cfg)
				for _, p := range RegisteredProtocols() {
					cfg.Protocol = p.Name
					checkCloneMatchesFresh(t, prof, cfg, snap)
				}
			})
		}
	}
}

// TestWarmCloneMatchesFreshSources covers the other workload sources and the
// run options that hook into the machine around its warm state: an
// adversarial generator, a replayed trace file, the invariant checker, a
// fault profile, and the sharded engine (whose directory partitioning
// migrates the installed warm entries).
func TestWarmCloneMatchesFreshSources(t *testing.T) {
	tr, _ := recordRun(t, "Radix", ProtoScalableBulk, 8, 4, 13)
	trace := filepath.Join(t.TempDir(), "radix-8.sbwt")
	if err := os.WriteFile(trace, tracefmt.Encode(tr), 0o644); err != nil {
		t.Fatal(err)
	}
	jitter, err := fault.ByName("jitter")
	if err != nil {
		t.Fatal(err)
	}
	radix, _ := AppByName("Radix")
	zipf, _ := WorkloadProfile("zipf")
	cases := []struct {
		name string
		prof Profile
		edit func(*Config)
	}{
		{"zipf", zipf, func(c *Config) { c.Workload = "zipf" }},
		{"replay", Profile{Name: tr.Header.App, Suite: "TRACE"}, func(c *Config) {
			c.Cores, c.ChunksPerCore, c.WarmupChunks = tr.Header.Threads, tr.Header.ChunksPerCore, tr.Header.WarmupPerCore
			c.Seed = tr.Header.Seed
			c.Workload = "replay:" + trace
		}},
		{"check", radix, func(c *Config) { c.Check = true }},
		{"faults", radix, func(c *Config) { c.Faults, c.FaultSeed = jitter, 5 }},
		{"sharded", radix, func(c *Config) { c.Shards = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(16, "")
			cfg.ChunksPerCore = 2
			tc.edit(&cfg)
			snap := mustNewWarm(t, tc.prof, cfg)
			for _, p := range []string{ProtoScalableBulk, ProtoTCC, ProtoNoOCI} {
				cfg.Protocol = p
				checkCloneMatchesFresh(t, tc.prof, cfg, snap)
			}
		})
	}
}

// TestWarmSnapshotImmutable: two clones of one snapshot run back to back
// produce equal fingerprints, and the snapshot afterwards still deep-equals
// both a copy taken before the runs and a fresh warm-up.
func TestWarmSnapshotImmutable(t *testing.T) {
	prof, _ := AppByName("Radix")
	cfg := DefaultConfig(16, ProtoScalableBulk)
	cfg.ChunksPerCore = 2
	snap := mustNewWarm(t, prof, cfg)
	pristine := snap.Clone()
	if !reflect.DeepEqual(snap, pristine) {
		t.Fatal("a clone differs from its snapshot")
	}
	var fps []string
	for i := 0; i < 2; i++ {
		r, err := system.RunWarmContext(context.Background(), prof, cfg, snap.Clone())
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, ResultFingerprint(r))
	}
	if fps[0] != fps[1] {
		t.Errorf("clones of one snapshot diverge:\n--- first\n%s--- second\n%s", fps[0], fps[1])
	}
	if !reflect.DeepEqual(snap, pristine) {
		t.Error("running clones mutated their snapshot")
	}
	if !reflect.DeepEqual(snap, mustNewWarm(t, prof, cfg)) {
		t.Error("snapshot differs from a fresh warm-up")
	}
}

// TestWarmLeaseHandOff pins the lease protocol: the first redeemed lease of
// a key builds the snapshot and gets a clone, the last gets the snapshot
// itself, and the table then forgets the key. A single-point key never
// builds a snapshot at all.
func TestWarmLeaseHandOff(t *testing.T) {
	s := NewSession(detChunks, 5, nil)
	pts := []Point{
		{"Radix", ProtoScalableBulk, 16}, {"Radix", ProtoTCC, 16}, {"Radix", ProtoSEQ, 16},
		{"Radix", ProtoScalableBulk, 1},
	}
	leases := s.leaseWarm(pts)
	if len(leases) != len(pts) || len(s.warm) != 2 {
		t.Fatalf("leased %d points over %d keys, want %d over 2", len(leases), len(s.warm), len(pts))
	}
	take := func(p Point) *system.Warm {
		cfg := s.pointConfig(runKey{p.App, p.Protocol, p.Cores})
		prof, err := ResolvePointProfile(p.App, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.takeWarm(leases[p], prof, cfg)
	}
	sn := leases[pts[0]].snap
	if w := take(pts[0]); w == nil || w == sn.warm {
		t.Fatal("first lease of a shared key must get a clone of a built snapshot")
	}
	if w := take(pts[1]); w == nil || w == sn.warm {
		t.Fatal("second lease must get a clone")
	}
	last := sn.warm
	if w := take(pts[2]); w != last {
		t.Fatal("last lease must get the snapshot itself")
	}
	if w := take(pts[3]); w != nil {
		t.Fatal("a single-point key must warm up in place (nil warm state)")
	}
	if w := take(pts[0]); w != nil {
		t.Fatal("a redeemed lease must not yield a second warm state")
	}
	if len(s.warm) != 0 {
		t.Errorf("snapshot table holds %d keys after every lease was redeemed", len(s.warm))
	}
}

// TestWarmSnapshotLifetime: a Session's snapshot table is empty once
// SweepContext returns — after a normal parallel sweep whose points share
// one key, a canceled sweep, and a sweep with a panicking point — and every
// point that ran matches a fresh, unshared run.
func TestWarmSnapshotLifetime(t *testing.T) {
	const seed = 5
	var pts []Point
	for _, p := range Protocols {
		pts = append(pts, Point{"Radix", p, 16})
	}
	pts = append(pts, Point{"Radix", ProtoScalableBulk, 1}, pts[0])
	checkRan := func(t *testing.T, s *Session, skip Point) {
		t.Helper()
		if n := len(s.warm); n != 0 {
			t.Errorf("snapshot table holds %d keys after SweepContext returned", n)
		}
		for _, p := range pts {
			if p == skip {
				continue
			}
			r, err := s.Result(p.App, p.Protocol, p.Cores)
			if err != nil {
				t.Fatalf("%v: %v", p, err)
			}
			if got, want := ResultFingerprint(r), serialFingerprint(t, p.App, p.Protocol, p.Cores, seed); got != want {
				t.Errorf("%v: swept result differs from a fresh run", p)
			}
		}
	}

	t.Run("complete", func(t *testing.T) {
		s := NewSession(detChunks, seed, nil)
		if out := s.SweepContext(context.Background(), pts, 4); out.Err() != nil {
			t.Fatal(out.Err())
		}
		checkRan(t, s, Point{})
	})

	t.Run("canceled", func(t *testing.T) {
		s := NewSession(detChunks, seed, nil)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var started atomic.Int64
		s.testPointHook = func(Point) {
			if started.Add(1) == 2 {
				cancel()
			}
		}
		if out := s.SweepContext(ctx, pts, 2); !out.Aborted {
			t.Fatal("canceled sweep not reported as aborted")
		}
		if n := len(s.warm); n != 0 {
			t.Errorf("snapshot table holds %d keys after a canceled sweep", n)
		}
	})

	t.Run("panic", func(t *testing.T) {
		victim := pts[1]
		s := NewSession(detChunks, seed, nil)
		s.testPointHook = func(p Point) {
			if p == victim {
				panic("injected sweep panic")
			}
		}
		out := s.SweepContext(context.Background(), pts, 2)
		if len(out.Failures) != 1 || out.Failures[0].Point != victim {
			t.Fatalf("failures = %+v, want exactly %v", out.Failures, victim)
		}
		checkRan(t, s, victim)
	})

	t.Run("warm-up panic", func(t *testing.T) {
		// A cache geometry the cache model rejects panics inside the
		// snapshot's warm-up for the first point and inside the fresh
		// build of the last one; both must fail as crashes.
		s := NewSession(detChunks, seed, nil)
		s.Configure = func(c *Config) { c.L1.SizeBytes = 3 << 10 }
		out := s.SweepContext(context.Background(), pts[:4], 2)
		if len(out.Failures) != 4 {
			t.Fatalf("failures = %+v, want all 4 points", out.Failures)
		}
		for _, f := range out.Failures {
			var ce *CrashError
			if !errors.As(f.Err, &ce) {
				t.Errorf("%v failed with %T, want *CrashError", f.Point, f.Err)
			}
		}
		if n := len(s.warm); n != 0 {
			t.Errorf("snapshot table holds %d keys after a warm-up panic", n)
		}
	})
}
