// Package influence implements the total-influence quantity α from
// De Sa et al. that §2.3 of the paper uses to characterise when
// asynchronous Gibbs converges (Eq. 3):
//
//	α = max_i Σ_j max_{(X,Y) ∈ B_j} || π_i(·|X_{\i}) − π_i(·|Y_{\i}) ||_TV
//
// where B_j is the set of state pairs differing only in variable j. In
// the community-detection instantiation the variables are vertices and
// the states are community assignments; the conditional π_i(c|X) is the
// Boltzmann distribution over candidate blocks induced by the move
// deltas, π_i(c) ∝ exp(−β·ΔS(i→c)).
//
// The paper's point is that the exact computation is O(V²C³) and hence
// intractable on real graphs; this package provides both that exact
// computation anchored at a given base state (practical only for tiny
// graphs — the benchmarks demonstrate the blow-up) and the cheap sampled
// estimator the paper proposes studying as future work.
package influence

import (
	"fmt"
	"math"

	"repro/internal/blockmodel"
	"repro/internal/rng"
)

// beta is the inverse temperature of the conditional distributions;
// it matches the MCMC acceptance temperature.
const beta = 3

// conditional returns π_v(·|X) as a dense distribution over blocks,
// computed from the move deltas of v under the blockmodel's current
// assignment.
func conditional(bm *blockmodel.Blockmodel, v int, sc *blockmodel.Scratch) []float64 {
	c := bm.C
	logp := make([]float64, c)
	maxLog := math.Inf(-1)
	for s := 0; s < c; s++ {
		if int32(s) == bm.Assignment[v] {
			logp[s] = 0
		} else {
			md := bm.EvalMove(v, int32(s), bm.Assignment, sc)
			logp[s] = -beta * md.DeltaS
		}
		if logp[s] > maxLog {
			maxLog = logp[s]
		}
	}
	var z float64
	p := make([]float64, c)
	for s := 0; s < c; s++ {
		p[s] = math.Exp(logp[s] - maxLog)
		z += p[s]
	}
	for s := range p {
		p[s] /= z
	}
	return p
}

// tv returns the total-variation distance between two distributions.
func tv(p, q []float64) float64 {
	var d float64
	for i := range p {
		d += math.Abs(p[i] - q[i])
	}
	return d / 2
}

// Exact computes α anchored at bm's current assignment: for every
// ordered pair of vertices (i, j) it evaluates π_i under all C possible
// assignments of j and takes the maximum pairwise TV distance, then
// maximises the row sums over i. The cost is Θ(V²·C³) conditional-
// distribution work — the intractability the paper reports. bm is
// mutated temporarily but restored before returning.
func Exact(bm *blockmodel.Blockmodel) (float64, error) {
	v := bm.G.NumVertices()
	c := bm.C
	if v > 2048 {
		return 0, fmt.Errorf("influence: exact computation refused for V=%d (> 2048); use Sampled", v)
	}
	work := bm.Clone()
	sc := blockmodel.NewScratch()
	alpha := 0.0
	dists := make([][]float64, c)
	for i := 0; i < v; i++ {
		var rowSum float64
		for j := 0; j < v; j++ {
			if i == j {
				continue
			}
			orig := work.Assignment[j]
			for a := 0; a < c; a++ {
				setAssignment(work, j, int32(a), sc)
				dists[a] = conditional(work, i, sc)
			}
			setAssignment(work, j, orig, sc)
			var maxTV float64
			for a := 0; a < c; a++ {
				for b := a + 1; b < c; b++ {
					if d := tv(dists[a], dists[b]); d > maxTV {
						maxTV = d
					}
				}
			}
			rowSum += maxTV
		}
		if rowSum > alpha {
			alpha = rowSum
		}
	}
	return alpha, nil
}

// Sampled estimates α by sampling: for `samples` random (i, j) pairs it
// evaluates π_i under `valueSamples` random assignments of j, takes the
// max pairwise TV per pair, accumulates per-i row estimates scaled up by
// V/pairsPerI, and returns the max row estimate. This is the
// easy-to-compute heuristic predictor of A-SBP convergence the paper
// proposes as future work; it is an under-estimate that preserves
// ordering between graphs.
func Sampled(bm *blockmodel.Blockmodel, vertexSamples, pairsPerVertex, valueSamples int, rn *rng.RNG) (float64, error) {
	v := bm.G.NumVertices()
	if v < 2 {
		return 0, fmt.Errorf("influence: need at least 2 vertices")
	}
	if vertexSamples < 1 || pairsPerVertex < 1 || valueSamples < 2 {
		return 0, fmt.Errorf("influence: sample counts must be >= 1 (>= 2 value samples)")
	}
	work := bm.Clone()
	sc := blockmodel.NewScratch()
	c := work.C
	alpha := 0.0
	dists := make([][]float64, valueSamples)
	for si := 0; si < vertexSamples; si++ {
		i := rn.Intn(v)
		var rowSum float64
		for sj := 0; sj < pairsPerVertex; sj++ {
			j := rn.Intn(v)
			if j == i {
				continue
			}
			orig := work.Assignment[j]
			for a := 0; a < valueSamples; a++ {
				setAssignment(work, j, int32(rn.Intn(c)), sc)
				dists[a] = conditional(work, i, sc)
			}
			setAssignment(work, j, orig, sc)
			var maxTV float64
			for a := 0; a < valueSamples; a++ {
				for b := a + 1; b < valueSamples; b++ {
					if d := tv(dists[a], dists[b]); d > maxTV {
						maxTV = d
					}
				}
			}
			rowSum += maxTV
		}
		// Scale the sampled row sum up to the full V−1 terms.
		rowEst := rowSum * float64(v-1) / float64(pairsPerVertex)
		if rowEst > alpha {
			alpha = rowEst
		}
	}
	return alpha, nil
}

// setAssignment moves vertex j to block a, keeping the blockmodel
// counts consistent, via the incremental move machinery.
func setAssignment(bm *blockmodel.Blockmodel, j int, a int32, sc *blockmodel.Scratch) {
	if bm.Assignment[j] == a {
		return
	}
	md := bm.EvalMove(j, a, bm.Assignment, sc)
	bm.ApplyMove(md)
}
