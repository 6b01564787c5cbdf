package blockmodel

import "repro/internal/rng"

// This file implements the move-proposal distribution and the
// Metropolis-Hastings correction used by all three SBP variants. The
// proposal is the one introduced by Peixoto (2014) and used by the Graph
// Challenge SBP baseline the paper builds on: a proposed block is drawn
// from the blocks adjacent to a random neighbour's block, which
// concentrates proposals on plausible moves while a C/(d_t+C) chance of a
// uniformly random block keeps the chain ergodic.

// ProposeVertexMove draws a candidate block for vertex v given the
// membership vector b (which may be a staler or fresher view than
// bm.Assignment in the asynchronous engines):
//
//  1. Pick a uniformly random edge incident on v; let t be the block of
//     the other endpoint under b.
//  2. With probability C/(d_t + C), propose a uniformly random block.
//  3. Otherwise, pick a uniformly random edge incident on block t in the
//     block matrix and propose the block at its other end.
//
// Isolated vertices and blocks with no mass in the (possibly stale)
// matrix fall back to a uniform proposal.
func (bm *Blockmodel) ProposeVertexMove(v int, b []int32, r *rng.RNG) int32 {
	k := bm.G.Degree(v)
	if k == 0 {
		return int32(r.Intn(bm.C))
	}
	u := bm.G.Neighbor(v, r.Intn(k))
	t := b[u]
	dt := bm.DTot[t]
	if dt == 0 || r.Float64() < float64(bm.C)/(float64(dt)+float64(bm.C)) {
		return int32(r.Intn(bm.C))
	}
	return bm.sampleBlockEdgeEndpoint(int(t), r)
}

// ProposeMerge draws a candidate block for block r to merge into, using
// the block-level analogue of the vertex proposal. The result is always
// a block different from r (falling back to uniform resampling when the
// neighbour-guided draw lands on r). Requires C >= 2.
func (bm *Blockmodel) ProposeMerge(rBlock int32, rn *rng.RNG) int32 {
	if bm.C < 2 {
		panic("blockmodel: ProposeMerge requires at least 2 blocks")
	}
	s := bm.proposeMergeOnce(rBlock, rn)
	for s == rBlock {
		s = bm.uniformOther(rBlock, rn)
	}
	return s
}

func (bm *Blockmodel) proposeMergeOnce(rBlock int32, rn *rng.RNG) int32 {
	dr := bm.DTot[rBlock]
	if dr == 0 {
		return bm.uniformOther(rBlock, rn)
	}
	t := bm.sampleBlockNeighbor(int(rBlock), rn)
	dt := bm.DTot[t]
	if dt == 0 || rn.Float64() < float64(bm.C)/(float64(dt)+float64(bm.C)) {
		return bm.uniformOther(rBlock, rn)
	}
	return bm.sampleBlockEdgeEndpoint(int(t), rn)
}

// uniformOther returns a uniformly random block different from r.
func (bm *Blockmodel) uniformOther(r int32, rn *rng.RNG) int32 {
	s := int32(rn.Intn(bm.C - 1))
	if s >= r {
		s++
	}
	return s
}

// sampleBlockNeighbor picks the block at the other end of a uniformly
// random edge incident on block t (an edge counted in row t or column t
// of M). Requires DTot[t] > 0.
func (bm *Blockmodel) sampleBlockNeighbor(t int, rn *rng.RNG) int32 {
	return bm.sampleBlockEdgeEndpoint(t, rn)
}

// sampleBlockEdgeEndpoint draws x uniform over the DTot[t] edge endpoints
// incident on block t and walks row t then column t of M, in ascending
// block order, to find the block owning the x-th endpoint. In dense
// storage the walk reads row t in place and column t at stride C; a
// zero cell never owns x, so neither skips it.
//
// The draw stays in int64 end to end: DTot is an int64 edge-endpoint
// mass, and squeezing it through int for Intn would overflow on 32-bit
// builds (and on any future multigraph with >2^31 endpoints at one
// block). Int63n consumes the RNG stream identically to Intn for all
// in-range values, so this is overflow-proofing, not a behaviour
// change. The remaining Intn draws on the proposal path (vertex degree,
// block count C) are bounded by the vertex count and slice lengths,
// which always fit in int.
func (bm *Blockmodel) sampleBlockEdgeEndpoint(t int, rn *rng.RNG) int32 {
	x := rn.Int63n(bm.DTot[t])
	c := bm.C
	data, dense := bm.M.DenseData()
	if x < bm.DOut[t] {
		if dense {
			for s, m := range data[t*c : (t+1)*c] {
				if x < m {
					return int32(s)
				}
				x -= m
			}
		} else {
			keys, vals, _ := bm.M.RowView(t)
			for i, m := range vals {
				if x < m {
					return keys[i]
				}
				x -= m
			}
		}
	} else {
		x -= bm.DOut[t]
		if dense {
			for r := 0; r < c; r++ {
				m := data[r*c+t]
				if x < m {
					return int32(r)
				}
				x -= m
			}
		} else {
			keys, vals, _ := bm.M.ColView(t)
			for i, m := range vals {
				if x < m {
					return keys[i]
				}
				x -= m
			}
		}
	}
	// Degrees and matrix disagree — possible only with a stale matrix in
	// the asynchronous engines. Fall back to uniform.
	return int32(rn.Intn(c))
}

// HastingsCorrection returns p(s→r | b′) / p(r→s | b) for an evaluated
// move, the factor that keeps the Metropolis-Hastings chain reversible
// under the neighbour-guided proposal. EvalMove computes it in the same
// walk over v's neighbour blocks as ΔS (see moveTerms), so this only
// reads it; a move with r == s gives 1.
//
// Following Peixoto (2014):
//
//	p(r→s) = Σ_t (w_t / k_v) · (M[t][s] + M[s][t] + 1) / (d_t + C)
//
// where t ranges over the blocks of v's neighbours, w_t is the number of
// edge endpoints joining v to block t (a self-loop gives v's own block
// two), and the backward probability uses the post-move matrix and
// degrees. Every entry read lies in row or column r or s, so it comes
// from the cells EvalMove loaded.
func (bm *Blockmodel) HastingsCorrection(md *MoveDelta) float64 {
	return md.hastings
}
