package scalablebulk

import (
	"sync"

	"scalablebulk/internal/cache"
	"scalablebulk/internal/system"
)

// warmKey is everything a point's warm-up reads (see system.Warm), taken
// from its config after Configure. Points with equal keys — in a figure
// sweep, the protocols of one (application, machine size) — start from
// identical warm states.
type warmKey struct {
	prof         Profile
	cores        int
	seed         int64
	warmupChunks int
	l1, l2       cache.Config
	workload     string
}

// warmKeyOf derives the warm key of a point's config; false when the key
// cannot describe its warm-up (an injected WorkloadFactory).
func warmKeyOf(prof Profile, cfg Config) (warmKey, bool) {
	if cfg.WorkloadFactory != nil {
		return warmKey{}, false
	}
	return warmKey{prof, cfg.Cores, cfg.Seed, cfg.WarmupChunks, cfg.L1, cfg.L2, cfg.Workload}, true
}

// warmSnapshot is one key's warm state, shared by the points of the running
// sweeps that lease it: the first point to run builds it and takes a clone,
// later points take clones, and the last one takes the snapshot itself. It
// leaves the Session's table when its last lease is taken or released, so a
// snapshot never outlives the sweeps that use it, and a key with a single
// point warms up in place without a copy.
type warmSnapshot struct {
	mu      sync.Mutex // guards everything below; held while building and cloning
	refs    int        // leases not yet taken or released
	dropped bool       // refs reached zero; the table no longer holds it
	warm    *system.Warm
}

// warmLease is one sweep point's claim on its key's snapshot.
type warmLease struct {
	key  warmKey
	snap *warmSnapshot
	done bool // taken or released; guarded by snap.mu
}

// leaseWarm leases a snapshot for every distinct point of a sweep that is
// not cached yet and whose warm-up the key describes.
func (s *Session) leaseWarm(points []Point) map[Point]*warmLease {
	leases := map[Point]*warmLease{}
	for _, p := range points {
		if _, dup := leases[p]; dup {
			continue
		}
		s.mu.Lock()
		_, cached := s.cache[runKey{p.App, p.Protocol, p.Cores}]
		s.mu.Unlock()
		if cached {
			continue
		}
		cfg := s.pointConfig(runKey{p.App, p.Protocol, p.Cores})
		prof, err := ResolvePointProfile(p.App, &cfg)
		if err != nil {
			continue
		}
		key, ok := warmKeyOf(prof, cfg)
		if !ok {
			continue
		}
		for {
			s.mu.Lock()
			if s.warm == nil {
				s.warm = map[warmKey]*warmSnapshot{}
			}
			sn := s.warm[key]
			if sn == nil {
				sn = &warmSnapshot{}
				s.warm[key] = sn
			}
			s.mu.Unlock()
			sn.mu.Lock()
			if !sn.dropped {
				sn.refs++
				leases[p] = &warmLease{key: key, snap: sn}
			}
			sn.mu.Unlock()
			if leases[p] != nil {
				break
			}
		}
	}
	return leases
}

// takeWarm redeems a lease for the warm state of the point about to run
// under prof and cfg: a clone of the key's snapshot (built on first use),
// the snapshot itself for its last lease, or nil — warm up fresh — when
// there is no lease, the config no longer matches the leased key, or the
// snapshot cannot be built.
func (s *Session) takeWarm(l *warmLease, prof Profile, cfg Config) *system.Warm {
	if l == nil {
		return nil
	}
	sn := l.snap
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if l.done {
		return nil
	}
	defer s.releaseLocked(l)
	if key, ok := warmKeyOf(prof, cfg); !ok || key != l.key {
		return nil
	}
	if sn.refs == 1 {
		return sn.warm
	}
	if sn.warm == nil {
		// On error the point warms up fresh, and its own Build reports the
		// same error with the run's context.
		if sn.warm, _ = system.NewWarm(prof, cfg); sn.warm == nil {
			return nil
		}
	}
	return sn.warm.Clone()
}

// releaseWarm returns a lease that was not taken (the point was cached,
// restored, failed before running, or never claimed). Idempotent.
func (s *Session) releaseWarm(l *warmLease) {
	if l == nil {
		return
	}
	l.snap.mu.Lock()
	defer l.snap.mu.Unlock()
	if !l.done {
		s.releaseLocked(l)
	}
}

// releaseLocked retires l (with l.snap.mu held), dropping the snapshot from
// the table once no lease remains.
func (s *Session) releaseLocked(l *warmLease) {
	sn := l.snap
	l.done = true
	if sn.refs--; sn.refs > 0 {
		return
	}
	sn.dropped, sn.warm = true, nil
	s.mu.Lock()
	delete(s.warm, l.key)
	s.mu.Unlock()
}
