package system

import (
	"fmt"

	"scalablebulk/internal/cache"
	"scalablebulk/internal/dir"
	"scalablebulk/internal/mem"
	"scalablebulk/internal/workload"
)

// Warm is the state a machine's warm-up leaves behind: every core's L1/L2
// contents with their LRU clocks, the first-touch page homes, and the
// directory sharers registered by the tail of warm-up. Warm-up reads only
// the profile, core count, seed, WarmupChunks, L1/L2 geometry and workload
// source — never the protocol — so machines that differ in nothing else
// start from identical Warm states, and one Warm can seed them all through
// Clone. A Warm is consumed by the machine it is installed into.
type Warm struct {
	caches []*cache.Hierarchy
	pages  *mem.Mapper
	dir    *dir.State
}

// NewWarm runs the warm-up of the machine cfg describes for prof, standalone.
func NewWarm(prof workload.Profile, cfg Config) (*Warm, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("system: need at least one core")
	}
	gen, err := newSource(prof, cfg)
	if err != nil {
		return nil, err
	}
	return warmUp(gen, cfg), nil
}

// Clone returns an independent deep copy; w is left untouched.
func (w *Warm) Clone() *Warm {
	c := &Warm{caches: make([]*cache.Hierarchy, len(w.caches)), pages: w.pages.Clone(), dir: w.dir.Clone()}
	for i, h := range w.caches {
		c.caches[i] = h.Clone()
	}
	return c
}

// newSource resolves and shape-checks the workload source of cfg's machine.
func newSource(prof workload.Profile, cfg Config) (workload.Source, error) {
	factory := cfg.WorkloadFactory
	if factory == nil {
		var err error
		if factory, err = workload.Resolve(cfg.Workload); err != nil {
			return nil, fmt.Errorf("system: %w", err)
		}
	}
	gen, err := factory(prof, cfg.Cores, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("system: %w", err)
	}
	if v, ok := gen.(workload.Validator); ok {
		if err := v.Validate(cfg.Cores, cfg.ChunksPerCore, cfg.WarmupChunks); err != nil {
			return nil, fmt.Errorf("system: %w", err)
		}
	}
	return gen, nil
}

// warmUp pre-touches each thread's working set into fresh caches, page
// table and directory. Round-robin across cores so shared pages get their
// first-touch homes the same way the application's initialization phase
// would assign them.
func warmUp(gen workload.Source, cfg Config) *Warm {
	w := &Warm{
		caches: make([]*cache.Hierarchy, cfg.Cores),
		pages:  mem.NewMapper(cfg.Cores),
		dir:    dir.NewState(),
	}
	for i := range w.caches {
		w.caches[i] = cache.NewHierarchy(cfg.L1, cfg.L2)
	}
	for c := 0; c < cfg.WarmupChunks; c++ {
		for i := 0; i < cfg.Cores; i++ {
			ck := gen.WarmupChunk(i, c)
			for _, a := range ck.Accesses {
				w.pages.Home(a.Line, i)
				w.caches[i].Fill(a.Line, false)
				// Register directory sharers only for the recent working
				// set (the tail of warmup): real directories track live
				// cached copies, and unbounded registration would make
				// every commit's invalidation fan out machine-wide.
				if c >= cfg.WarmupChunks-8 {
					w.dir.AddSharer(a.Line, i)
				}
			}
		}
	}
	return w
}
