package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/blockmodel"
	"repro/internal/graph"
	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// tracing is the telemetry a traced operation runs with: spans go to an
// in-memory collector (written out once the run ends), metrics to a
// private registry.
type tracing struct {
	sink *obs.CollectorSink
	o    obs.Obs
}

func newTracing() *tracing {
	sink := &obs.CollectorSink{}
	return &tracing{sink: sink, o: obs.Obs{Tracer: obs.NewTracer(sink), Metrics: obs.NewRegistry()}}
}

// counter reads a registry counter by name.
func (t *tracing) counter(name string) int64 { return t.o.Metrics.Counter(name, "").Value() }

// span is one closed span of a collected trace, with its children in
// begin order and the point events emitted inside it.
type span struct {
	name       string
	begin, end []obs.Field
	dur        float64 // seconds
	children   []*span
	events     []obs.Event
}

// spans rebuilds the span forest of collected events and returns the
// spans by id.
func spans(evs []obs.Event) map[int64]*span {
	byID := map[int64]*span{}
	for _, e := range evs {
		switch e.Kind {
		case "begin":
			s := &span{name: e.Name, begin: e.Fields}
			byID[e.Span] = s
			if p := byID[e.Parent]; p != nil {
				p.children = append(p.children, s)
			}
		case "end":
			if s := byID[e.Span]; s != nil {
				s.end, s.dur = e.Fields, float64(e.DurNS)/1e9
			}
		case "event":
			if p := byID[e.Parent]; p != nil {
				p.events = append(p.events, e)
			}
		}
	}
	return byID
}

// find returns the first span named name, searching depth first.
func (s *span) find(name string) *span {
	if s.name == name {
		return s
	}
	for _, c := range s.children {
		if f := c.find(name); f != nil {
			return f
		}
	}
	return nil
}

// kids returns the direct children named name.
func (s *span) kids(name string) []*span {
	var out []*span
	for _, c := range s.children {
		if c.name == name {
			out = append(out, c)
		}
	}
	return out
}

// self is the span's duration not covered by its children.
func (s *span) self() float64 {
	d := s.dur
	for _, c := range s.children {
		d -= c.dur
	}
	return d
}

func (s *span) get(key string) any {
	for _, fs := range [][]obs.Field{s.begin, s.end} {
		if v, ok := fieldValue(fs, key); ok {
			return v
		}
	}
	return nil
}

func fieldValue(fs []obs.Field, key string) (any, bool) {
	for _, f := range fs {
		if f.Key == key {
			return f.Value, true
		}
	}
	return nil, false
}

// num converts a numeric field value as the program emits it.
func num(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int32:
		return float64(x)
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

// rootSpan returns the top-level span of the traced operation.
func rootSpan(t *tracing, name string) (*span, error) {
	for _, s := range spans(t.sink.Events()) {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("trace has no %s span", name)
}

// breakdown splits a traced operation's wall into the layers of
// layerRows; what no layer claims is the residual.
type breakdown struct {
	wall  float64 // seconds
	layer map[string]float64
}

func newBreakdown(wall float64) breakdown { return breakdown{wall: wall, layer: map[string]float64{}} }

func (b breakdown) add(layer string, s float64) { b.layer[layer] += s }

func (b breakdown) residual() float64 {
	r := b.wall
	for _, s := range b.layer {
		r -= s
	}
	return r
}

// recordBreakdown publishes the breakdown as per-layer metrics and prints
// it as a table whose rows, residual included, add up to the wall.
func (r *run) recordBreakdown(b breakdown) {
	res := b.residual()
	r.layers["trace.wall_s"] = b.wall
	r.layers["trace.residual_s"] = res
	r.layers["trace.residual_share"] = res / b.wall
	r.layers["mcmc.async_pass_s"] = b.layer["mcmc.async_pass"]
	r.layers["mcmc.rebuild_s"] = b.layer["mcmc.rebuild"]
	r.note("traced operation: wall %.4f s", b.wall)
	for _, l := range layerRows {
		r.layers[l+"_share"] = b.layer[l] / b.wall
		r.note("  %-18s %10.4f s  %6.2f%%", l, b.layer[l], 100*b.layer[l]/b.wall)
	}
	r.note("  %-18s %10.4f s  %6.2f%%", "residual", res, 100*res/b.wall)
	if res > 0.05*b.wall {
		r.note("warning: named layers cover %.1f%% of the traced wall (< 95%%)", 100*(1-res/b.wall))
	}
}

// chainTally accumulates per-sweep records: the pass times on the
// critical path, the capacity the parallel passes left idle, and the
// chain's counts.
type chainTally struct {
	serial, async, rebuild float64 // seconds on the critical path
	idle, capacity, busy   float64 // seconds of worker time
	sweeps                 int
	proposals, accepts     int64
}

// sweep adds one sweep. workerNS holds each parallel worker's (or rank's)
// busy time; the slowest one is the pass's critical path. For B-SBP the
// per-worker times are summed over the sweep's batches before the max,
// which slightly understates the critical path; the residual absorbs it.
func (t *chainTally) sweep(serialNS float64, workerNS []float64, rebuildNS float64) {
	var max, sum float64
	for _, w := range workerNS {
		sum += w
		if w > max {
			max = w
		}
	}
	t.serial += serialNS / 1e9
	t.async += max / 1e9
	t.rebuild += rebuildNS / 1e9
	t.capacity += max * float64(len(workerNS)) / 1e9
	t.idle += (max*float64(len(workerNS)) - sum) / 1e9
	t.busy += (serialNS + sum) / 1e9
	t.sweeps++
}

func (t chainTally) addTo(b breakdown) {
	b.add("mcmc.serial_pass", t.serial)
	b.add("mcmc.async_pass", t.async)
	b.add("mcmc.rebuild", t.rebuild)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (r *run) recordChain(t chainTally) {
	r.layers["mcmc.async_idle_ratio"] = ratio(t.idle, t.capacity)
	r.layers["mcmc.sweeps"] = float64(t.sweeps)
	r.layers["mcmc.proposals"] = float64(t.proposals)
	r.layers["mcmc.accept_rate"] = ratio(float64(t.accepts), float64(t.proposals))
	r.layers["blockmodel.proposal_eval_ns"] = ratio(t.busy*1e9, float64(t.proposals))
}

// recordAbsent sets the per-layer metrics of modules the workload never
// reaches.
func (r *run) recordAbsent(names ...string) {
	for _, n := range names {
		r.layers[n] = 0
	}
}

// recordOverhead reports the telemetry overhead from (untraced, traced)
// wall pairs of the same input.
func (r *run) recordOverhead(untraced, traced []float64) {
	var ratios []float64
	for i := range traced {
		ratios = append(ratios, traced[i]/untraced[i]-1)
	}
	r.layers["obs.trace_overhead"] = median(ratios)
	r.note("telemetry overhead: median %+.2f%% over %d traced/untraced pairs", 100*median(ratios), len(ratios))
}

// memDelta measures heap allocation and GC cycles across fn.
func memDelta(fn func()) (allocMB, gcCycles float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), float64(m1.NumGC - m0.NumGC)
}

// writeTrace writes the collected events as JSONL and checks the file
// with analyze.Check.
func (r *run) writeTrace(t *tracing) {
	path := r.tracePath()
	evs := t.sink.Events()
	err := func() error {
		if err := os.MkdirAll(r.out, 0o755); err != nil {
			return err
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		bw := bufio.NewWriter(f)
		sink := obs.NewJSONLSink(bw)
		for _, e := range evs {
			sink.Emit(e)
		}
		if err := sink.Err(); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return f.Close()
	}()
	if !r.op(err, "write trace") {
		return
	}
	f, err := os.Open(path)
	if !r.op(err, "read trace") {
		return
	}
	defer f.Close()
	tr, err := analyze.ParseJSONL(f)
	if !r.op(err, "parse trace") {
		return
	}
	probs := analyze.Check(tr)
	first := ""
	if len(probs) > 0 {
		first = probs[0].String()
	}
	r.check(len(probs) == 0, "trace %s: %d problems, first: %s", path, len(probs), first)
	r.note("trace: %s (%d events, analyze.Check: %d problems)", path, len(evs), len(probs))
}

// probes time single layers directly on the workload's own graph, in the
// many-blocks state of a search's first iteration (vertex pairs grouped,
// C = V/2), through public blockmodel and merge calls.
func (r *run) probes(t *tracing, g *graph.Graph) error {
	n := g.NumVertices()
	assign := make([]int32, n)
	for v := range assign {
		assign[v] = int32(v / 2)
	}
	base, err := blockmodel.FromAssignment(g, assign, (n+1)/2, 1)
	if err != nil {
		return err
	}

	// Point evaluation: propose, ΔMDL and Hastings without applying. One
	// untimed pass warms the scratch arenas to steady state.
	sp := t.o.StartSpan("bench.probe.point_eval")
	sc := blockmodel.NewScratch()
	batch := min(n, 512)
	var sink float64
	pass := func() (evals int) {
		rn := rng.New(11)
		for v := 0; v < batch; v++ {
			s := base.ProposeVertexMove(v, base.Assignment, rn)
			if s == base.Assignment[v] {
				continue
			}
			md := base.EvalMove(v, s, base.Assignment, sc)
			sink += md.DeltaS + base.HastingsCorrection(&md)
			evals++
		}
		return evals
	}
	pass()
	var evalNS []float64
	for i := 0; i < r.p.ProbeReps; i++ {
		t0 := time.Now()
		evals := pass()
		evalNS = append(evalNS, float64(time.Since(t0).Nanoseconds())/float64(max(evals, 1)))
	}
	sp.End(obs.F("evals_per_pass", batch), obs.F("sink", sink))
	r.layers["blockmodel.point_eval_ns"] = median(evalNS)

	// Full rebuild of the block matrix, allocations counted over the
	// timed call only. The count is process-wide, so a goroutine left over
	// from the operation can add to one rep; the fewest seen is the call's.
	sp = t.o.StartSpan("bench.probe.rebuild")
	bm := base.Clone()
	var rebuildMS, allocs []float64
	for i := 0; i < r.p.ProbeReps; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		bm.RebuildFrom(assign, pinnedWorkers)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		rebuildMS = append(rebuildMS, float64(d.Nanoseconds())/1e6)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
	}
	sp.End()
	r.layers["blockmodel.rebuild_ms"] = median(rebuildMS)
	r.layers["blockmodel.rebuild_allocs"] = slices.Min(allocs)

	// One merge phase halving the block count; the clone is untimed.
	sp = t.o.StartSpan("bench.probe.merge_scan")
	var scanMS []float64
	for i := 0; i < r.p.ProbeReps; i++ {
		work := base.Clone()
		t0 := time.Now()
		merge.Phase(work, work.C/2, merge.Config{Candidates: 10, Workers: pinnedWorkers}, rng.New(29))
		scanMS = append(scanMS, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	sp.End()
	r.layers["merge.scan_ms"] = median(scanMS)
	return nil
}

// checkpointProbe times durable checkpoint writes of the workload's
// result state through a snapshot.Policy in a scratch directory.
func (r *run) checkpointProbe(t *tracing, write func(snapshot.Policy) error) error {
	dir, err := r.scratch("ckpt")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	pol := snapshot.Policy{Dir: dir, Obs: obs.Obs{Metrics: reg}}
	sp := t.o.StartSpan("bench.probe.checkpoint")
	defer sp.End()
	var durMS []float64
	for i := 0; i < r.p.Checkpoints; i++ {
		t0 := time.Now()
		if err := write(pol); err != nil {
			return err
		}
		durMS = append(durMS, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	r.recordCheckpoints(durMS, float64(reg.Counter("snapshot_bytes", "").Value()))
	return nil
}

func (r *run) recordCheckpoints(durMS []float64, totalBytes float64) {
	sort.Float64s(durMS)
	r.layers["snapshot.checkpoint_ms"] = quantile(durMS, 0.5)
	r.layers["snapshot.bytes"] = totalBytes / float64(len(durMS))
}
