package main

import (
	"hash/fnv"
	"time"

	"repro/internal/blockmodel"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// chainSeed seeds every search, phase and stream the benchmark runs; the
// benchmark's own --seed varies only the inputs.
const chainSeed = 31

// inputSeed derives the generator seed of input i from a shape's base
// seed, so that --seed 1 and input 0 reproduce the base shape.
func inputSeed(base, seed uint64, i int) uint64 {
	return base + (seed-1)*1_000_003 + uint64(i)*7_919
}

// fingerprint is what must repeat bit for bit when one input runs twice.
type fingerprint struct {
	MDL       float64
	Blocks    int
	Sweeps    int
	Proposals int64
	Bytes     int64
	Hash      uint64 // FNV-1a of the membership
}

func hashMembership(a []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range a {
		b[0], b[1], b[2], b[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// floor is a workload's quality floor: results below it are wrong, not
// slow. The floors sit well below what the engines reach on every seed;
// they catch a broken chain, and BENCHMARK.json's bounds catch drift.
type floor struct {
	nmi     float64 // at least
	mdlNorm float64 // at most
}

// checkModel checks a result blockmodel's invariants and that the MDL the
// program reported is the one its membership gives.
func (r *run) checkModel(what string, bm *blockmodel.Blockmodel, reported float64) bool {
	if err := bm.Validate(); !r.check(err == nil, "%s: %v", what, err) {
		return false
	}
	fresh, err := blockmodel.FromAssignment(bm.G, bm.Assignment, bm.C, 1)
	if !r.op(err, what) {
		return false
	}
	got := fresh.MDL()
	return r.check(got == reported, "%s: reported MDL %v, membership gives %v", what, reported, got)
}

func (r *run) checkQuality(what string, nmi, mdlNorm float64, f floor) bool {
	return r.check(nmi >= f.nmi && mdlNorm <= f.mdlNorm,
		"%s: nmi %.4f (floor %.2f), mdl_norm %.4f (ceiling %.2f)", what, nmi, f.nmi, mdlNorm, f.mdlNorm)
}

// checkRepeat checks that a second run of one input reproduced the first.
func (r *run) checkRepeat(what string, first, again fingerprint) bool {
	return r.check(first == again, "%s not reproduced: %+v, then %+v", what, first, again)
}

// setupInputs times input generation SetupReps times and keeps the last
// result; every repetition generates the same inputs.
func setupInputs[T any](r *run, gen func() (T, error)) (T, error) {
	r.calibrate()
	var v T
	for i := 0; i < max(r.p.SetupReps, 1); i++ {
		t0 := time.Now()
		var err error
		if v, err = gen(); err != nil {
			return v, err
		}
		r.sample("setup_s", time.Since(t0).Seconds())
	}
	return v, nil
}

// opResult is what one operation of a search or dsbp workload returned.
type opResult struct {
	fp                fingerprint
	wall              time.Duration
	allocMB, gcCycles float64 // heap allocated and GC cycles during the operation
	nmi, mdlNorm      float64
	ok                bool // every check of the result passed
}

// opFunc runs input i once at the given worker (or rank) count, traced
// into t when t is non-nil, and checks the result.
type opFunc func(i, workers int, t *tracing) (opResult, error)

// timedOps runs op on inputs 0, 1, ..., n-1, 0, ... until the time budget
// is spent, and at least MinOps times. A repeated input must reproduce
// its first result.
func (r *run) timedOps(n int, op opFunc) {
	first := map[int]fingerprint{}
	var durs []float64
	for k := 0; ; k++ {
		if k >= r.p.MinOps && (len(durs) == 0 || !r.timeLeft(time.Duration(median(durs)))) {
			break
		}
		i := k % n
		r.calibrate()
		res, err := op(i, pinnedWorkers, nil)
		if !r.op(err, "operation") || !res.ok {
			continue
		}
		durs = append(durs, float64(res.wall))
		r.sample("result_ms", float64(res.wall.Nanoseconds())/1e6)
		r.sample("nmi", res.nmi)
		r.sample("mdl_norm", res.mdlNorm)
		if f, seen := first[i]; seen {
			r.checkRepeat("input", f, res.fp)
		} else {
			first[i] = res.fp
		}
	}
	r.calibrate()
	r.note("operations: %d on %d distinct inputs", len(durs), len(first))
	r.recordPeakRSS()
}

// traceOps is the --trace 1 sequence. A warm-up run of input 0 comes
// first, so that nothing measured pays for the fresh process's heap
// growth. Then input 0 runs untraced, traced (layers reads the trace and
// the captured result) and at one worker; the probes run on probeGraph
// and, when ckpt is set, the checkpoint probe writes through it. Further
// untraced/traced pairs run while time is left, for the telemetry
// overhead.
func (r *run) traceOps(n int, op opFunc, layers func(*tracing) error, probeGraph *graph.Graph, ckpt func(snapshot.Policy) error) error {
	for i := 0; i < 3; i++ {
		r.calibrate()
	}
	r.layers["host.ref_ms"] = median(r.refs) * 1e3
	warm, err := op(0, pinnedWorkers, nil)
	if err != nil {
		return err
	}
	t0 := time.Now()
	u, err := op(0, pinnedWorkers, nil)
	if err != nil {
		return err
	}
	pair := 2 * time.Since(t0)
	r.checkRepeat("input 0", warm.fp, u.fp)
	r.layers["runtime.alloc_mb"], r.layers["runtime.gc_cycles"] = u.allocMB, u.gcCycles
	t := newTracing()
	tr, err := op(0, pinnedWorkers, t)
	if err != nil {
		return err
	}
	r.checkRepeat("input 0 with telemetry on", u.fp, tr.fp)
	if err := layers(t); err != nil {
		return err
	}
	one, err := op(0, 1, nil)
	if err != nil {
		return err
	}
	r.layers["scale.speedup_2w"] = one.wall.Seconds() / u.wall.Seconds()
	r.note("1 worker %.4f s, 2 workers %.4f s", one.wall.Seconds(), u.wall.Seconds())
	if err := r.probes(t, probeGraph); err != nil {
		return err
	}
	if ckpt != nil {
		if err := r.checkpointProbe(t, ckpt); err != nil {
			return err
		}
	}
	untraced, traced := []float64{u.wall.Seconds()}, []float64{tr.wall.Seconds()}
	for i := 1; r.timeLeft(pair); i++ {
		t0 := time.Now()
		a, err := op(i%n, pinnedWorkers, nil)
		if err != nil {
			return err
		}
		b, err := op(i%n, pinnedWorkers, newTracing())
		if err != nil {
			return err
		}
		r.checkRepeat("input with telemetry on", a.fp, b.fp)
		untraced, traced = append(untraced, a.wall.Seconds()), append(traced, b.wall.Seconds())
		pair = time.Since(t0)
	}
	r.recordOverhead(untraced, traced)
	r.writeTrace(t)
	return nil
}

// repSpan opens the bench.rep span a traced operation runs under and
// returns the telemetry handle to pass down; both are inert when t is
// nil.
func repSpan(t *tracing, fields ...obs.Field) (*obs.Span, obs.Obs) {
	if t == nil {
		return nil, obs.Obs{}
	}
	rep := t.o.StartSpan("bench.rep", fields...)
	return rep, t.o.WithSpan(rep)
}
