package mcmc

import (
	"sync/atomic"
	"time"

	"repro/internal/blockmodel"
	"repro/internal/check"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// PassPlan is the precomputed work partition of one asynchronous vertex
// set: which vertices the pass visits (nil = all of [0, n)) and the
// contiguous index range each worker owns. Degrees do not change during
// a phase, so a plan is built once and reused every sweep.
type PassPlan struct {
	vertices []int32
	ranges   []parallel.Range
}

// NewPassPlan partitions the vertex set for the given number of
// workers into contiguous ranges of about equal weight, vertex v
// weighing Degree(v)+1: proposal evaluation walks v's adjacency, so
// total degree is the dominant cost, and the +1 models the fixed
// per-vertex overhead that keeps zero-degree vertices from being free.
// With one worker the plan is a single range in list order.
func NewPassPlan(bm *blockmodel.Blockmodel, vertices []int32, workers int) PassPlan {
	n := bm.G.NumVertices()
	if vertices != nil {
		n = len(vertices)
	}
	ranges := parallel.BalancedRanges(n, workers, func(i int) int64 {
		v := i
		if vertices != nil {
			v = int(vertices[i])
		}
		return int64(bm.G.Degree(v)) + 1
	})
	return PassPlan{vertices: vertices, ranges: ranges}
}

// PassResult is what one pass did. The passes do no bookkeeping of
// their own; each caller folds the result into its accounting (Stats
// and the sweep probe in-process, the rank counters in internal/dist).
type PassResult struct {
	Proposals int64     // proposals evaluated
	Accepts   int64     // proposals accepted
	BusyNS    []float64 // wall busy nanoseconds per range; one entry for a serial pass

	// Work counts the pass's units of work: what its visits and
	// applied moves counted on their Scratch (Scratch.Work).
	Work int64

	// Aborted reports that the pass saw cancellation and stopped early,
	// leaving bm or the move lists mid-sweep: the caller must discard
	// them and roll back to the sweep boundary.
	Aborted bool
}

// SerialPass is the live Metropolis-Hastings pass of Algorithms 2 and
// 4: it visits vertices in order, and every accepted move updates bm in
// place, so each proposal sees the exact current state. The pass also
// records its accepted moves in moves[0], emptied first, as flat
// (vertex, block) pairs in visit order: the list a rank sends to its
// peers. Vertex v draws from rng.At(key, sweep, v), as it would in an
// async pass.
//
// done, when non-nil, is the cancellation channel, polled every 256
// vertices.
func SerialPass(bm *blockmodel.Blockmodel, vertices []int32, moves [][]int32, cfg Config, key uint64, sweep int, sc *blockmodel.Scratch, done <-chan struct{}) PassResult {
	var res PassResult
	start := time.Now()
	moves[0] = moves[0][:0]
	sc.Work() // drop what earlier callers left uncounted
	for i, v := range vertices {
		if done != nil && i&255 == 0 && isClosed(done) {
			res.Aborted = true
			break
		}
		rn := rng.At(key, uint64(sweep), uint64(v))
		md, proposed, accepted := step(bm, int(v), &cfg, &rn, sc)
		if proposed {
			res.Proposals++
		}
		if accepted {
			bm.ApplyMove(md)
			moves[0] = append(moves[0], v, md.To)
			res.Accepts++
		}
	}
	res.Work = sc.Work()
	res.BusyNS = []float64{float64(time.Since(start).Nanoseconds())}
	return res
}

// AsyncPass runs one asynchronous Gibbs pass (Algorithm 3) over the
// plan's vertex set. It first empties every buffer in moves, which
// needs one per plan range; proposals then read bm (stale, frozen
// during the pass), and worker w appends its accepted moves to
// moves[w] as flat (vertex, block) pairs in visit order, the lists
// blockmodel.ApplyMoves applies. Each worker writes only its own
// buffer, so the pass is race-free. Vertex v draws from
// rng.At(key, sweep, v), so the moves come out the same however the
// plan splits the vertices.
//
// done, when non-nil, is the cancellation channel: workers poll it (and
// a shared abort flag) every 256 vertices and unwind early.
func AsyncPass(bm *blockmodel.Blockmodel, plan PassPlan, moves [][]int32, cfg Config, key uint64, sweep int, scratches []*blockmodel.Scratch, done <-chan struct{}) PassResult {
	for w := range moves {
		moves[w] = moves[w][:0]
	}
	var proposals, accepts, work atomic.Int64
	var aborted atomic.Bool
	busy := make([]float64, len(plan.ranges))
	parallel.ForRanges(plan.ranges, func(lo, hi, w int) {
		start := time.Now()
		sc := scratches[w]
		sc.Work() // drop what earlier callers left uncounted
		var localProp, localAcc int64
		for i := lo; i < hi; i++ {
			if done != nil && (i-lo)&255 == 0 && passCancelled(done, &aborted) {
				break
			}
			v := i
			if plan.vertices != nil {
				v = int(plan.vertices[i])
			}
			rn := rng.At(key, uint64(sweep), uint64(v))
			md, proposed, accepted := step(bm, v, &cfg, &rn, sc)
			if proposed {
				localProp++
			}
			if accepted {
				moves[w] = append(moves[w], int32(v), md.To)
				localAcc++
			}
		}
		proposals.Add(localProp)
		accepts.Add(localAcc)
		work.Add(sc.Work())
		busy[w] = float64(time.Since(start).Nanoseconds())
	})
	return PassResult{Proposals: proposals.Load(), Accepts: accepts.Load(), BusyNS: busy, Work: work.Load(), Aborted: aborted.Load()}
}

// step is one Metropolis-Hastings step for v against bm: draw a target
// block, evaluate the move and decide it with the exact-asynchronous-
// Gibbs rule exp(−β·ΔS)·H. Every draw comes from rn, v's own stream
// rng.At(key, sweep, v); each sweep visits v once, so no stream is
// drawn from twice. proposed reports that the target differed from v's
// block; accepted that the caller should apply md. The serial pass
// applies it to bm, the async pass records it in its move list.
func step(bm *blockmodel.Blockmodel, v int, cfg *Config, rn *rng.RNG, sc *blockmodel.Scratch) (md blockmodel.MoveDelta, proposed, accepted bool) {
	r := bm.Assignment[v]
	s := bm.ProposeVisit(v, rn, sc)
	if s == r {
		return md, false, false
	}
	if bm.Sizes[r] == 1 && !cfg.Verify {
		// SBP keeps the block count fixed during the MCMC phase, so a
		// move that empties r is rejected, and nothing below would draw
		// from rn: it needs no evaluation.
		return md, true, false
	}
	md = bm.EvalMove(v, s, bm.Assignment, sc)
	if cfg.Verify {
		// Proposals evaluate against bm's own membership, so the oracle
		// is built from the same state the counts derive from. The panic
		// on divergence propagates out of the worker pool to the caller.
		check.MustMoveDelta(bm, bm.Assignment, v, s, md.DeltaS)
	}
	if md.EmptiesSrc {
		return md, true, false
	}
	if cfg.Verify {
		check.MustHastings(bm, bm.Assignment, v, s, bm.HastingsCorrection(&md))
	}
	return md, true, accept(bm, &md, cfg.Beta, rn)
}

// isClosed polls a cancellation channel without blocking (false for a
// nil channel).
func isClosed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// passCancelled polls the cancellation channel and the shared abort
// flag from inside a worker loop, spreading the abort to every worker.
func passCancelled(done <-chan struct{}, aborted *atomic.Bool) bool {
	if aborted.Load() {
		return true
	}
	if isClosed(done) {
		aborted.Store(true)
		return true
	}
	return false
}

// rebuild applies the pass's moves to bm and charges the work as
// serial work: ApplyMoves runs on one goroutine on either of its paths.
func rebuild(bm *blockmodel.Blockmodel, moves [][]int32, sc *blockmodel.Scratch, st *Stats, sp *sweepProbe) {
	start := time.Now()
	bm.ApplyMoves(moves, sc)
	ns := float64(time.Since(start).Nanoseconds())
	sp.rebuild(ns)
	st.Cost.AddSerial(parallel.Rebuild, sc.Work(), ns)
}

// score returns bm's description length at the end of a sweep and
// charges the work as serial work: the MDL pass runs on one goroutine.
func score(bm *blockmodel.Blockmodel, st *Stats, sp *sweepProbe) float64 {
	start := time.Now()
	s := bm.MDL()
	ns := float64(time.Since(start).Nanoseconds())
	sp.score(ns)
	st.Cost.AddSerial(parallel.MDLPass, bm.MDLWork(), ns)
	return s
}

// newScratches allocates one evaluation Scratch per worker.
func newScratches(workers int) []*blockmodel.Scratch {
	out := make([]*blockmodel.Scratch, workers)
	for i := range out {
		out[i] = blockmodel.NewScratch()
	}
	return out
}
