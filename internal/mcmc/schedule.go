package mcmc

import (
	"fmt"
	"math"

	"repro/internal/blockmodel"
	"repro/internal/check"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// schedule is one engine expressed as the shape of its sweep: a live
// serial pass over serial, then one asynchronous pass per plan, each
// followed by a blockmodel rebuild.
//
//	SBP    every vertex serial, no async pass
//	A-SBP  one async pass over every vertex
//	H-SBP  V* serial, then one async pass over V⁻
//	B-SBP  Batches async passes over contiguous vertex groups
type schedule struct {
	alg     Algorithm
	serial  []int32
	plans   []PassPlan
	workers int // async pass width; 0 when the schedule has no async pass
}

// newSchedule builds alg's schedule once per phase.
func newSchedule(bm *blockmodel.Blockmodel, alg Algorithm, cfg Config) schedule {
	n := bm.G.NumVertices()
	s := schedule{alg: alg}
	if alg == SerialMH {
		s.serial = vertexRange(0, n)
		return s
	}
	s.workers = parallel.DefaultWorkers(cfg.Workers)
	var groups [][]int32
	switch alg {
	case AsyncGibbs:
		groups = [][]int32{nil}
	case Hybrid:
		var vMinus []int32
		s.serial, vMinus = SplitByDegree(bm, cfg.HybridFraction)
		groups = [][]int32{vMinus}
	case BatchedGibbs:
		// Static contiguous batches: every vertex is in one batch, so
		// each sweep still draws from each vertex's stream once.
		batches := cfg.Batches
		if batches < 1 {
			batches = DefaultBatches
		}
		batches = min(batches, n)
		for b := 0; b < batches; b++ {
			groups = append(groups, vertexRange(b*n/batches, (b+1)*n/batches))
		}
	default:
		panic(fmt.Sprintf("mcmc: unknown algorithm %d", int(alg)))
	}
	for _, g := range groups {
		s.plans = append(s.plans, NewPassPlan(bm, g, s.workers))
	}
	return s
}

// run is the one sweep loop every engine shares: guard, probe, the
// serial pass, then each async pass with its rebuild, then the MDL pass
// and the convergence test. initialS is bm's description length; a
// resumed phase takes Stats.InitialS from its record instead. The phase
// draws one key from the master stream, and every pass draws vertex v's
// randomness in sweep t from rng.At(key, t, v).
func (s schedule) run(bm *blockmodel.Blockmodel, cfg Config, rn *rng.RNG, po *phaseObs, initialS float64) Stats {
	st := Stats{Algorithm: s.alg, InitialS: initialS}
	scratches := newScratches(s.workers)
	sc := blockmodel.NewScratch()
	// Size the sweep record and the move buffers for the widest pass so
	// range ids index them.
	width := 0
	for _, p := range s.plans {
		width = max(width, len(p.ranges))
	}
	serialMoves, moves := make([][]int32, 1), make([][]int32, width)
	// A serial pass mutates bm live; a second async pass follows a
	// mid-sweep rebuild. Either way a cancelled sweep must roll back the
	// membership it already changed.
	hasSerial := len(s.serial) > 0
	gd := newGuard(&cfg, bm, rn, &st, hasSerial || len(s.plans) > 1)
	key := rn.Uint64()
	startSweep, prev := gd.start()
	done := gd.done()

	for sweep := startSweep; sweep < cfg.MaxSweeps; sweep++ {
		if gd.enter(sweep, prev) {
			return st
		}
		sp := po.sweep(sweep, width, &st)
		if hasSerial {
			res := SerialPass(bm, s.serial, serialMoves, cfg, key, sweep, sc, done)
			st.Proposals += res.Proposals
			st.Accepts += res.Accepts
			if res.Aborted {
				gd.abort(sweep)
				return st
			}
			sp.serial(res.BusyNS[0])
			st.Cost.AddSerial(parallel.SerialPass, res.Work, res.BusyNS[0])
			if cfg.Verify {
				check.MustInvariants(bm, s.alg.String()+" post-serial-pass invariants")
			}
		}
		for _, plan := range s.plans {
			res := AsyncPass(bm, plan, moves, cfg, key, sweep, scratches, done)
			st.Proposals += res.Proposals
			st.Accepts += res.Accepts
			if res.Aborted {
				gd.abort(sweep)
				return st
			}
			st.Cost.AddParallel(parallel.AsyncPass, res.Work, sp.pass(res.BusyNS))
			rebuild(bm, moves, sc, &st, sp)
			if cfg.Verify {
				// Per pass, not just per sweep: a corrupted mid-sweep
				// rebuild is caught before the next pass consumes it.
				check.MustInvariants(bm, s.alg.String()+" post-rebuild invariants")
			}
		}
		st.Sweeps++
		cur := score(bm, &st, sp)
		st.PerSweep = append(st.PerSweep, sp.finish(&st, cur))
		if converged(prev, cur, cfg.Threshold) {
			st.Converged = true
			st.FinalS = cur
			return st
		}
		prev = cur
	}
	st.FinalS = prev
	return st
}

// SplitByDegree partitions the vertex set into (V*, V⁻): the ceil(
// fraction·V) highest-total-degree vertices and the rest. H-SBP and
// D-H-SBP both take V* from it.
func SplitByDegree(bm *blockmodel.Blockmodel, fraction float64) (vStar, vMinus []int32) {
	order := bm.G.VerticesByDegreeDesc()
	k := int(math.Ceil(fraction * float64(len(order))))
	if fraction > 0 && k == 0 {
		k = 1
	}
	if k > len(order) {
		k = len(order)
	}
	return order[:k], order[k:]
}

// vertexRange returns the vertex list lo, lo+1, …, hi-1.
func vertexRange(lo, hi int) []int32 {
	out := make([]int32, 0, hi-lo)
	for v := lo; v < hi; v++ {
		out = append(out, int32(v))
	}
	return out
}
