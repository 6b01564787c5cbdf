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
	s, _ := bm.proposeVertexMove(v, b, r)
	return s
}

// ProposeVisit draws v's candidate block exactly as
// ProposeVertexMove(v, bm.Assignment, rn) does, and counts the visit's
// work on sc (see Scratch.Work).
func (bm *Blockmodel) ProposeVisit(v int, rn *rng.RNG, sc *Scratch) int32 {
	s, scanned := bm.proposeVertexMove(v, bm.Assignment, rn)
	sc.work += visitUnits + int64(scanned)
	return s
}

// proposeVertexMove is ProposeVertexMove that also returns how many
// entries of M the draw scanned.
func (bm *Blockmodel) proposeVertexMove(v int, b []int32, r *rng.RNG) (int32, int) {
	k := bm.G.Degree(v)
	if k == 0 {
		return int32(r.Intn(bm.C)), 0
	}
	u := bm.G.Neighbor(v, r.Intn(k))
	t := b[u]
	dt := bm.DTot[t]
	if dt == 0 || r.Float64() < float64(bm.C)/(float64(dt)+float64(bm.C)) {
		return int32(r.Intn(bm.C)), 0
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
	s, _ := bm.sampleBlockEdgeEndpoint(int(t), rn)
	return s
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
	s, _ := bm.sampleBlockEdgeEndpoint(t, rn)
	return s
}

// sampleBlockEdgeEndpoint draws x uniform over the DTot[t] edge endpoints
// incident on block t and walks row t then column t of M, in ascending
// block order, to find the block owning the x-th endpoint, and returns
// it with the number of entries the walk scanned. In dense storage the
// walk reads row t in place and column t at stride C; a zero cell never
// owns x, so neither skips it.
//
// The draw stays in int64 end to end: DTot is an int64 edge-endpoint
// mass, and squeezing it through int for Intn would overflow on 32-bit
// builds (and on any future multigraph with >2^31 endpoints at one
// block). Int63n consumes the RNG stream identically to Intn for all
// in-range values, so this is overflow-proofing, not a behaviour
// change. The remaining Intn draws on the proposal path (vertex degree,
// block count C) are bounded by the vertex count and slice lengths,
// which always fit in int.
func (bm *Blockmodel) sampleBlockEdgeEndpoint(t int, rn *rng.RNG) (int32, int) {
	x := rn.Int63n(bm.DTot[t])
	c := bm.C
	data, dense := bm.M.DenseData()
	scanned := 0
	if x < bm.DOut[t] {
		if dense {
			for s, m := range data[t*c : (t+1)*c] {
				if x < m {
					return int32(s), s + 1
				}
				x -= m
			}
			scanned = c
		} else {
			keys, vals, _ := bm.M.RowView(t)
			for i, m := range vals {
				if x < m {
					return keys[i], i + 1
				}
				x -= m
			}
			scanned = len(vals)
		}
	} else {
		x -= bm.DOut[t]
		if dense {
			for r := 0; r < c; r++ {
				m := data[r*c+t]
				if x < m {
					return int32(r), r + 1
				}
				x -= m
			}
			scanned = c
		} else {
			keys, vals, _ := bm.M.ColView(t)
			for i, m := range vals {
				if x < m {
					return keys[i], i + 1
				}
				x -= m
			}
			scanned = len(vals)
		}
	}
	// Degrees and matrix disagree — possible only with a stale matrix in
	// the asynchronous engines. Fall back to uniform.
	return int32(rn.Intn(c)), scanned
}

// HastingsCorrection returns p(s→r | b′) / p(r→s | b) for an evaluated
// move, the factor that keeps the Metropolis-Hastings chain reversible
// under the neighbour-guided proposal. The first call walks v's
// neighbour blocks for it and keeps it in md; later calls read it. A
// move with r == s gives 1. md must be the latest evaluation on its
// Scratch, whose tallies and loaded cells the walk reads, and must not
// have been applied yet.
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
	if md.hastings == 0 {
		md.hastings = bm.hastings(md.counts, md.sc)
	}
	return md.hastings
}

// HastingsBound returns 2·(2E + C), an upper bound on the Hastings
// correction of every move, so an acceptance rule can reject most
// proposals from ΔS alone. It holds whenever M, the block degrees and
// the assignment agree, as they do for every evaluation:
//
//   - p(r→s) ≥ 1/(2E + C). The weights w_t/k_v sum to 1, and each
//     factor (M[t][s] + M[s][t] + 1)/(d_t + C) is at least 1/(2E + C),
//     because a block's degree d_t is at most the 2E edge endpoints.
//   - p(s→r | b′) ≤ 1. Each factor (M′[t][r] + M′[r][t] + 1)/(d′_t + C)
//     is at most 1, because both post-move cells are part of t's degree
//     d′_t (M′[t][r] of its row, M′[r][t] of its column; for t = r both
//     are M′[r][r], counted once in each) and 1 ≤ C.
//
// So the exact ratio is at most 2E + C. The factor 2 covers the
// rounding of both sums, whose relative errors grow with v's degree but
// stay far below 1/2; an isolated vertex's correction is 1.
func (bm *Blockmodel) HastingsBound() float64 {
	return 2 * float64(2*int64(bm.G.NumEdges())+int64(bm.C))
}
