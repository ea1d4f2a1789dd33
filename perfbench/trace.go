package main

import (
	"context"
	"fmt"
	"io"
	"runtime/metrics"
	"time"

	sb "scalablebulk"
	"scalablebulk/internal/chunk"
	"scalablebulk/internal/system"
	"scalablebulk/internal/workload"
)

// span is one traced interval. Spans nest sample → point → build/loop/finish;
// a point span's name carries the point label shared by its children.
type span struct {
	id, parent int
	name       string
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, start: time.Since(t.epoch)})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.end = time.Since(t.epoch)
	return s.end - s.start
}

// write prints every span with its duration and self time: the duration
// minus the part its child spans cover.
func (t *tracer) write(out io.Writer) {
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.parent] += s.end - s.start
	}
	for _, s := range t.spans {
		d := s.end - s.start
		fmt.Fprintf(out, "span %d parent=%d start_s=%.6f dur_s=%.6f self_s=%.6f %s\n",
			s.id, s.parent, s.start.Seconds(), d.Seconds(), (d - child[s.id]).Seconds(), s.name)
	}
}

// timedSource is a pass-through workload.Source that times chunk generation
// in aggregate; per-call spans would cost more than the calls.
type timedSource struct {
	workload.Source
	warmup, next time.Duration
	chunks       uint64
}

func (t *timedSource) WarmupChunk(proc, i int) *chunk.Chunk {
	t0 := time.Now()
	c := t.Source.WarmupChunk(proc, i)
	t.warmup += time.Since(t0)
	t.chunks++
	return c
}

func (t *timedSource) NextChunk(proc int, seq uint64) *chunk.Chunk {
	t0 := time.Now()
	c := t.Source.NextChunk(proc, seq)
	t.next += time.Since(t0)
	t.chunks++
	return c
}

// gcCounters are the runtime/metrics the gc.* layer metrics difference.
var gcCounters = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

type gcSample [4]float64

func readGC() gcSample {
	samples := make([]metrics.Sample, len(gcCounters))
	for i, n := range gcCounters {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var g gcSample
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			g[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			g[i] = s.Value.Float64()
		}
	}
	return g
}

// layers accumulates the traced run's per-layer numbers over its points.
type layers struct {
	build, buildSelf, loop, loopSelf, finish time.Duration
	warmup, next                             time.Duration
	chunks, events                           uint64
	msgs, flitHops                           uint64
	commits, commitFailures, readNacks       uint64
	squashes                                 int
	gc                                       gcSample
}

func (l *layers) addGC(from, to gcSample) {
	for i := range l.gc {
		l.gc[i] += to[i] - from[i]
	}
}

// tracePoint drives one point through the public machine API — Build,
// Start, the Step loop, Finish — the way RunContext does on the serial
// engine, with spans around each phase and a timing pass-through around the
// workload source. It changes nothing the simulation sees, so the result
// must fingerprint exactly like the untraced run's.
func tracePoint(ctx context.Context, w Workload, p sb.Point, seed int64, tr *tracer, parent int, lay *layers) pointRun {
	run := pointRun{label: label(p)}
	prof, cfg, err := w.config(p, seed)
	if err != nil {
		run.err = err
		return run
	}
	base, err := workload.Resolve(cfg.Workload)
	if err != nil {
		run.err = err
		return run
	}
	ts := &timedSource{}
	cfg.WorkloadFactory = func(prof workload.Profile, threads int, seed int64) (workload.Source, error) {
		src, err := base(prof, threads, seed)
		ts.Source = src
		return ts, err
	}

	g0 := readGC()
	id := tr.begin("system.Build", parent)
	m, err := system.Build(prof, cfg)
	build := tr.end(id)
	g1 := readGC()
	lay.addGC(g0, g1)
	lay.build += build
	lay.buildSelf += build - ts.warmup - ts.next
	if err != nil {
		run.err = err
		return run
	}
	warmup0, next0 := ts.warmup, ts.next

	id = tr.begin("system.loop", parent)
	fired := m.Eng.Fired()
	m.Start()
	for steps := 1; !m.AllDone() && err == nil; steps++ {
		switch {
		case !m.Eng.Step():
			err = m.Deadlock("event queue empty", false)
		case m.Now() > cfg.MaxCycles:
			err = m.Deadlock(fmt.Sprintf("exceeded MaxCycles=%d", cfg.MaxCycles), true)
		case steps%4096 == 0 && ctx.Err() != nil:
			err = m.Abort(ctx.Err())
		}
	}
	loop := tr.end(id)
	g2 := readGC()
	lay.addGC(g1, g2)
	lay.loop += loop
	lay.loopSelf += loop - (ts.warmup - warmup0) - (ts.next - next0)
	lay.events += m.Eng.Fired() - fired
	lay.warmup += ts.warmup
	lay.next += ts.next
	lay.chunks += ts.chunks
	if err != nil {
		run.err = err
		return run
	}

	id = tr.begin("system.Finish", parent)
	res, err := m.Finish()
	lay.finish += tr.end(id)
	lay.addGC(g2, readGC())
	if err != nil {
		run.err = err
		return run
	}
	run.res, run.fp = res, sb.FingerprintSHA(res)
	lay.msgs += res.Traffic.Messages
	lay.flitHops += res.Traffic.FlitHops
	lay.commits += res.ChunksCommitted
	lay.commitFailures += res.Coll.CommitFailures
	lay.readNacks += res.Coll.ReadNacks
	lay.squashes += res.Squashes
	return run
}

// runTraced runs every point of the workload once under tracePoint inside
// one sample span and returns that span's duration.
func runTraced(ctx context.Context, w Workload, seed int64, tr *tracer, lay *layers) (time.Duration, []pointRun) {
	sample := tr.begin("sample "+w.Name, 0)
	runs := make([]pointRun, len(w.Points))
	for i, p := range w.Points {
		id := tr.begin("point "+label(p), sample)
		runs[i] = tracePoint(ctx, w, p, seed, tr, id, lay)
		tr.end(id)
	}
	return tr.end(sample), runs
}
