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
// workers. PartitionDegree weights vertex v by Degree(v)+1 — proposal
// evaluation walks v's adjacency, so total degree is the dominant cost
// and the +1 models the fixed per-vertex overhead that keeps
// zero-degree vertices from being free — and PartitionStatic keeps the
// equal-count chunks of the original implementation. With one worker
// both give a single range in list order.
func NewPassPlan(bm *blockmodel.Blockmodel, vertices []int32, workers int, strategy Partition) PassPlan {
	n := bm.G.NumVertices()
	if vertices != nil {
		n = len(vertices)
	}
	var ranges []parallel.Range
	if strategy == PartitionStatic {
		ranges = parallel.StaticRanges(n, workers)
	} else {
		ranges = parallel.BalancedRanges(n, workers, func(i int) int64 {
			v := i
			if vertices != nil {
				v = int(vertices[i])
			}
			return int64(bm.G.Degree(v)) + 1
		})
	}
	return PassPlan{vertices: vertices, ranges: ranges}
}

// PassResult is what one pass did. The passes do no bookkeeping of
// their own; each caller folds the result into its accounting (Stats
// and the sweep probe in-process, the rank counters in internal/dist).
type PassResult struct {
	Proposals int64     // proposals evaluated
	Accepts   int64     // proposals accepted
	BusyNS    []float64 // wall busy nanoseconds per range; one entry for a serial pass

	// Aborted reports that the pass saw cancellation and stopped early,
	// leaving its state (bm or next, and the streams) mid-sweep: the
	// caller must discard it and roll back to the sweep boundary.
	Aborted bool
}

// SerialPass is the live Metropolis-Hastings pass of Algorithms 2 and
// 4: it visits vertices in order on stream rn, and every accepted move
// updates bm in place, so each proposal sees the exact current state.
//
// done, when non-nil, is the cancellation channel, polled every 256
// vertices.
func SerialPass(bm *blockmodel.Blockmodel, vertices []int32, cfg Config, rn *rng.RNG, sc *blockmodel.Scratch, done <-chan struct{}) PassResult {
	var res PassResult
	start := time.Now()
	for i, v := range vertices {
		if done != nil && i&255 == 0 && isClosed(done) {
			res.Aborted = true
			break
		}
		md, proposed, accepted := step(bm, int(v), &cfg, rn, sc)
		if proposed {
			res.Proposals++
		}
		if accepted {
			bm.ApplyMove(md)
			res.Accepts++
		}
	}
	res.BusyNS = []float64{float64(time.Since(start).Nanoseconds())}
	return res
}

// AsyncPass runs one asynchronous Gibbs pass (Algorithm 3) over the
// plan's vertex set. It first copies bm.Assignment into next; proposals
// then read bm (stale, frozen during the pass) and accepted moves write
// next[v]. Worker w owns plan range w and draws from workerRNGs[w], so
// all writes are disjoint and the pass is race-free.
//
// done, when non-nil, is the cancellation channel: workers poll it (and
// a shared abort flag) every 256 vertices and unwind early.
func AsyncPass(bm *blockmodel.Blockmodel, plan PassPlan, next []int32, cfg Config, workerRNGs []*rng.RNG, scratches []*blockmodel.Scratch, done <-chan struct{}) PassResult {
	copy(next, bm.Assignment)
	var proposals, accepts atomic.Int64
	var aborted atomic.Bool
	busy := make([]float64, len(plan.ranges))
	parallel.ForRanges(plan.ranges, func(lo, hi, w int) {
		start := time.Now()
		rw := workerRNGs[w]
		sc := scratches[w]
		var localProp, localAcc int64
		for i := lo; i < hi; i++ {
			if done != nil && (i-lo)&255 == 0 && passCancelled(done, &aborted) {
				break
			}
			v := i
			if plan.vertices != nil {
				v = int(plan.vertices[i])
			}
			md, proposed, accepted := step(bm, v, &cfg, rw, sc)
			if proposed {
				localProp++
			}
			if accepted {
				next[v] = md.To
				localAcc++
			}
		}
		proposals.Add(localProp)
		accepts.Add(localAcc)
		busy[w] = float64(time.Since(start).Nanoseconds())
	})
	return PassResult{Proposals: proposals.Load(), Accepts: accepts.Load(), BusyNS: busy, Aborted: aborted.Load()}
}

// step is one Metropolis-Hastings step for v against bm: draw a target
// block, evaluate the move and decide it with the exact-asynchronous-
// Gibbs rule exp(−β·ΔS)·H. proposed reports that the target differed
// from v's block (the move was evaluated); accepted that the caller
// should apply md. The serial pass applies it to bm, the async pass
// records it in its private membership.
func step(bm *blockmodel.Blockmodel, v int, cfg *Config, rn *rng.RNG, sc *blockmodel.Scratch) (md blockmodel.MoveDelta, proposed, accepted bool) {
	s := bm.ProposeVertexMove(v, bm.Assignment, rn)
	if s == bm.Assignment[v] {
		return md, false, false
	}
	md = bm.EvalMove(v, s, bm.Assignment, sc)
	if cfg.Verify {
		// Proposals evaluate against bm's own membership, so the oracle
		// is built from the same state the counts derive from. The panic
		// on divergence propagates out of the worker pool to the caller.
		check.MustMoveDelta(bm, bm.Assignment, v, s, md.DeltaS)
	}
	if md.EmptiesSrc && !cfg.AllowEmptyBlocks {
		return md, true, false
	}
	h := bm.HastingsCorrection(&md)
	if cfg.Verify {
		check.MustHastings(bm, bm.Assignment, v, s, h)
	}
	return md, true, accept(&md, h, cfg.Beta, rn)
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

// rebuild brings bm up to date with the pass's membership and charges
// the time by the path RebuildFrom took: its incremental update of the
// moved vertices runs on one goroutine, so it is serial work; a recount
// runs over the workers, so it is parallel work (the paper notes the
// rebuild overhead "can be reduced by performing the reconstruction of
// B in parallel").
func rebuild(bm *blockmodel.Blockmodel, next []int32, workers int, st *Stats, sp *sweepProbe) {
	start := time.Now()
	recounted := bm.RebuildFrom(next, workers)
	ns := float64(time.Since(start).Nanoseconds())
	sp.rebuild(ns)
	if recounted {
		st.Cost.AddParallel(ns)
	} else {
		st.Cost.AddSerial(ns)
	}
}

// splitRNGs derives one independent stream per worker from the master.
func splitRNGs(rn *rng.RNG, workers int) []*rng.RNG {
	out := make([]*rng.RNG, workers)
	for i := range out {
		out[i] = rn.Split()
	}
	return out
}

// newScratches allocates one evaluation Scratch per worker.
func newScratches(workers int) []*blockmodel.Scratch {
	out := make([]*blockmodel.Scratch, workers)
	for i := range out {
		out[i] = blockmodel.NewScratch()
	}
	return out
}
