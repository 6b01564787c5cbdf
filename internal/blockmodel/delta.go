package blockmodel

import "math"

// This file implements the incremental ΔMDL computations at the core of
// every SBP variant. With f(x) = x·ln x the log-likelihood splits into
// cell and block-degree terms,
//
//	−L = −Σ_rs f(M_rs) + Σ_r f(d_out,r) + Σ_s f(d_in,s),
//
// because row r of M sums to d_out,r and column s to d_in,s. Moving
// vertex v from block r to block s changes four block degrees and the
// cells joining r and s to v's neighbour blocks; merging block r into s
// changes four block degrees and the cells of its edit list. ΔS is a
// sum over the changed cells: O(distinct neighbour blocks of v) for a
// move, in the same walk that computes its Hastings correction, and
// O(nnz(row, col r)) for a merge, with no work per untouched entry.
//
// Proposal evaluation runs once per vertex per sweep and is the hot path
// of the whole system, so all intermediates live in a reusable Scratch
// owned by the calling worker, built on generation-stamped blockVec
// containers with O(1) reset and no hashing.

// Scratch holds the reusable intermediates of move and merge
// evaluation. Each worker goroutine owns one Scratch; a Scratch must
// not be shared concurrently. The MoveDelta returned by EvalMove
// aliases its vertex tallies, which ApplyMove reads, and is invalidated
// by the next EvalMove/EvalMerge call on the same Scratch.
type Scratch struct {
	out, in                blockVec // vertex→block edge tallies
	rowR, rowS, colR, colS blockVec // sparse-mode lookup tables of rows/cols r, s
	dense                  []int64  // M's backing array in dense mode, else nil
	c                      int      // block count of the loaded cells
	r, s                   int32    // the blocks whose cells are loaded
	edits                  []edit   // a merge's block-matrix adjustments
}

// NewScratch returns an empty Scratch ready for use.
func NewScratch() *Scratch { return &Scratch{} }

// resetViews prepares the lookup tables for block count c.
func (sc *Scratch) resetViews(c int) {
	sc.rowR.reset(c)
	sc.rowS.reset(c)
	sc.colR.reset(c)
	sc.colS.reset(c)
}

// VertexCounts tallies how vertex v's incident edges distribute over
// blocks under a given assignment. Self-loops are counted separately
// because a move transfers them from M[r][r] to M[s][s] in one step.
type VertexCounts struct {
	out       *blockVec // block → #out-edges of v into that block (v→u, u≠v)
	in        *blockVec // block → #in-edges of v from that block (u→v, u≠v)
	SelfLoops int64     // #edges v→v
	KOut      int64     // total out-degree of v (self-loops included)
	KIn       int64     // total in-degree of v (self-loops included)
}

// OutTo returns the number of v's out-edges whose head lies in block t
// (excluding self-loops). Exposed for tests.
func (vc VertexCounts) OutTo(t int32) int64 { return vc.out.get(t) }

// InFrom returns the number of v's in-edges whose tail lies in block t
// (excluding self-loops). Exposed for tests.
func (vc VertexCounts) InFrom(t int32) int64 { return vc.in.get(t) }

// CountVertex computes VertexCounts for v under the membership vector b,
// using sc's containers. b may differ from bm.Assignment (the
// asynchronous engines pass their private membership copies).
func (bm *Blockmodel) CountVertex(v int, b []int32, sc *Scratch) VertexCounts {
	sc.out.reset(bm.C)
	sc.in.reset(bm.C)
	vc := VertexCounts{out: &sc.out, in: &sc.in}
	for _, u := range bm.G.OutNeighbors(v) {
		vc.KOut++
		if int(u) == v {
			vc.SelfLoops++
			continue
		}
		sc.out.add(b[u], 1)
	}
	for _, u := range bm.G.InNeighbors(v) {
		vc.KIn++
		if int(u) == v {
			continue // the self-loop was counted from the out side
		}
		sc.in.add(b[u], 1)
	}
	return vc
}

// edit is a single (row, col, delta) adjustment to the block matrix.
type edit struct {
	i, j  int32
	delta int64
}

// mergeEdits fills sc.edits with the block-matrix adjustments for merging
// block r into block s: every edge endpoint in r is relabelled s.
func (bm *Blockmodel) mergeEdits(r, s int32, sc *Scratch) {
	sc.edits = sc.edits[:0]
	bm.M.RowNZ(int(r), func(t int32, c int64) {
		nt := t
		if t == r {
			nt = s
		}
		sc.edits = append(sc.edits, edit{r, t, -c}, edit{s, nt, c})
	})
	bm.M.ColNZ(int(r), func(t int32, c int64) {
		if t == r {
			return // the diagonal was handled from the row side
		}
		sc.edits = append(sc.edits, edit{t, r, -c}, edit{t, s, c})
	})
}

// loadCells prepares sc to read the cells of M that a move or merge
// between blocks r and s touches, each of which has its row or its
// column in {r, s}. Dense mode reads the backing array in place; sparse
// mode bulk-loads rows r, s and columns r, s into O(1) lookup tables.
// The tables are reset in dense mode too, so a Scratch that served an
// early iteration at C ≈ N does not keep its O(N) arrays.
func (bm *Blockmodel) loadCells(r, s int32, sc *Scratch) {
	sc.r, sc.s, sc.c = r, s, bm.C
	sc.resetViews(bm.C)
	var dense bool
	if sc.dense, dense = bm.M.DenseData(); dense {
		return
	}
	k, v, _ := bm.M.RowView(int(r))
	sc.rowR.bulkLoad(k, v)
	k, v, _ = bm.M.RowView(int(s))
	sc.rowS.bulkLoad(k, v)
	k, v, _ = bm.M.ColView(int(r))
	sc.colR.bulkLoad(k, v)
	k, v, _ = bm.M.ColView(int(s))
	sc.colS.bulkLoad(k, v)
}

// cell returns M[i][j] for a loaded cell: i or j must be r or s.
func (sc *Scratch) cell(i, j int32) int64 {
	if sc.dense != nil {
		return sc.dense[int(i)*sc.c+int(j)]
	}
	switch {
	case i == sc.r:
		return sc.rowR.get(j)
	case i == sc.s:
		return sc.rowS.get(j)
	case j == sc.r:
		return sc.colR.get(i)
	}
	return sc.colS.get(i)
}

// cross returns the four loaded cells M[r][t], M[s][t], M[t][r] and
// M[t][s] that a move between r and s reads for a neighbour block t,
// which may itself be r or s.
func (sc *Scratch) cross(t int32) (rt, st, tr, ts int64) {
	if d := sc.dense; d != nil {
		c, r, s, t := sc.c, int(sc.r), int(sc.s), int(t)
		return d[r*c+t], d[s*c+t], d[t*c+r], d[t*c+s]
	}
	return sc.rowR.get(t), sc.rowS.get(t), sc.colR.get(t), sc.colS.get(t)
}

// corner returns the slot of cell (i, j) in a corner-edit array — 0 for
// (r, r), 1 for (r, s), 2 for (s, r), 3 for (s, s) — or -1 when i or j
// lies outside {r, s}.
func (sc *Scratch) corner(i, j int32) int {
	if (i != sc.r && i != sc.s) || (j != sc.r && j != sc.s) {
		return -1
	}
	k := 0
	if i == sc.s {
		k = 2
	}
	if j == sc.s {
		k++
	}
	return k
}

// deltaS returns ΔS for applying sc.edits to the loaded cells while
// blocks r and s trade kOut out-degree and kIn in-degree (what leaves r
// arrives at s). With f(x) = x·ln x it is
//
//	Σ_{4 changed degrees} [f(d′) − f(d)] − Σ_{changed cells} [f(m′) − f(m)].
//
// A cell outside the 2×2 corner of {r, s} occurs at most once in the
// edit list. A corner cell can be hit by several edits, so its deltas
// are summed before f is taken.
func (bm *Blockmodel) deltaS(kOut, kIn int64, sc *Scratch) float64 {
	var cornerD [4]int64
	var cells float64
	for _, e := range sc.edits {
		if k := sc.corner(e.i, e.j); k >= 0 {
			cornerD[k] += e.delta
			continue
		}
		m := sc.cell(e.i, e.j)
		cells += xlogx(m+e.delta) - xlogx(m)
	}
	return bm.closeDelta(cells, &cornerD, kOut, kIn, sc)
}

// closeDelta finishes ΔS from the summed terms of the cells outside the
// corner: it adds the corner cells' terms, in the order (r, r), (r, s),
// (s, r), (s, s), and the four degree terms.
func (bm *Blockmodel) closeDelta(cells float64, cornerD *[4]int64, kOut, kIn int64, sc *Scratch) float64 {
	r, s := sc.r, sc.s
	for k, ij := range [4][2]int32{{r, r}, {r, s}, {s, r}, {s, s}} {
		if d := cornerD[k]; d != 0 {
			m := sc.cell(ij[0], ij[1])
			cells += xlogx(m+d) - xlogx(m)
		}
	}
	degrees := xlogx(bm.DOut[r]-kOut) - xlogx(bm.DOut[r]) +
		xlogx(bm.DOut[s]+kOut) - xlogx(bm.DOut[s]) +
		xlogx(bm.DIn[r]-kIn) - xlogx(bm.DIn[r]) +
		xlogx(bm.DIn[s]+kIn) - xlogx(bm.DIn[s])
	return degrees - cells
}

// xlogxTable holds f(x) = x·ln x for the counts below its length, filled
// with xlogx's own fallback expression, so the table changes no value.
// 4096 entries (32 KB) cover nearly every cell and most block degrees; a
// larger table was no faster.
var xlogxTable = func() (t [4096]float64) {
	for x := 1; x < len(t); x++ {
		t[x] = float64(x) * math.Log(float64(x))
	}
	return t
}()

// xlogx returns x·ln x for a count x ≥ 0, with f(0) = 0.
func xlogx(x int64) float64 {
	if uint64(x) < uint64(len(xlogxTable)) {
		return xlogxTable[x]
	}
	return float64(x) * math.Log(float64(x))
}

// MoveDelta holds the result of evaluating a proposed vertex move: ΔS
// and the Hastings correction, both from one walk over v's neighbour
// blocks. It aliases the vertex tallies of the Scratch it was evaluated
// with; commit it (ApplyMove) or discard it before the next evaluation
// on the same Scratch.
type MoveDelta struct {
	V          int     // the vertex
	From, To   int32   // blocks r → s
	DeltaS     float64 // change in description length (likelihood part); negative is better
	EmptiesSrc bool    // the move would leave block r empty
	hastings   float64 // p(s→r | b′) / p(r→s | b); 1 when r == s
	counts     VertexCounts
}

// EvalMove computes the likelihood ΔS and the Hastings correction for
// moving v from its current block (under membership b) to block s,
// without mutating the model. b must be the membership M was counted
// from: every engine passes bm.Assignment, and the asynchronous engines
// record accepted moves in a private copy until the next rebuild.
func (bm *Blockmodel) EvalMove(v int, s int32, b []int32, sc *Scratch) MoveDelta {
	r := b[v]
	md := MoveDelta{V: v, From: r, To: s, hastings: 1}
	if r == s {
		return md
	}
	md.counts = bm.CountVertex(v, b, sc)
	bm.loadCells(r, s, sc)
	md.DeltaS, md.hastings = bm.moveTerms(md.counts, sc)
	md.EmptiesSrc = bm.Sizes[r] == 1
	return md
}

// moveTerms returns ΔS and the Hastings correction for moving a vertex
// with tallies vc from block sc.r to sc.s, in one walk over its
// neighbour blocks: the keys of vc.out, then those of vc.in. A block t
// costs the four cells of cross(t), which feed three running sums:
//
//   - ΔS's terms for the cells the move changes outside the 2×2 corner
//     of {r, s}, each once: M[r][t] and M[s][t] for an out-edge block,
//     M[t][r] and M[t][s] for an in-edge block.
//   - pFwd and pBwd (see HastingsCorrection), one term per block, taken
//     the first time t appears, with weight w_t = out[t] + in[t].
//
// The corner cells' summed changes (cornerD) are O(1) in the tallies,
// so the post-move cells of t ∈ {r, s} are read in place, and ΔS adds
// the corner's terms after the walk. A self-loop attaches v to its own
// block: 2·SelfLoops joins r's weight in pFwd and s's in pBwd, as a
// last term when that block is not a neighbour block. The order of
// every sum is part of the chain's output: TestEvalMoveMatchesTwoPassBits
// pins it bit for bit.
func (bm *Blockmodel) moveTerms(vc VertexCounts, sc *Scratch) (dS, h float64) {
	r, s := sc.r, sc.s
	out, in, sl := vc.out, vc.in, vc.SelfLoops
	outR, outS, inR, inS := out.get(r), out.get(s), in.get(r), in.get(s)
	// The changes of M[r][r], M[r][s], M[s][r] and M[s][s].
	cornerD := [4]int64{-outR - inR - sl, -outS + inR, outR - inS, outS + inS + sl}
	k := vc.KOut + vc.KIn
	kv, cf := float64(k), float64(bm.C)
	// prob is one term of a proposal probability: weight w, the two
	// cells m joining t to the proposed block, and t's degree d.
	prob := func(w, m, d int64) float64 {
		return (float64(w) / kv) * (float64(m) + 1) / (float64(d) + cf)
	}
	var cells, pFwd, pBwd float64
	// cornerProbs adds the terms of neighbour block t ∈ {r, s} at weight
	// w to pFwd and pBwd; pBwd's cells are the post-move M′[t][r] and
	// M′[r][t].
	cornerProbs := func(t int32, w, rt, st, tr, ts int64) {
		if t == r {
			pFwd += prob(w+2*sl, ts+st, bm.DTot[r])
			pBwd += prob(w, tr+cornerD[0]+rt+cornerD[0], bm.DTot[r]-k)
		} else {
			pFwd += prob(w, ts+st, bm.DTot[s])
			pBwd += prob(w+2*sl, tr+cornerD[2]+rt+cornerD[1], bm.DTot[s]+k)
		}
	}
	for _, t := range out.keys {
		c := out.val[t]
		rt, st, tr, ts := sc.cross(t)
		inT := in.get(t)
		if t == r || t == s {
			cornerProbs(t, c+inT, rt, st, tr, ts)
			continue
		}
		cells += xlogx(rt-c) - xlogx(rt)
		cells += xlogx(st+c) - xlogx(st)
		pFwd += prob(c+inT, ts+st, bm.DTot[t])
		pBwd += prob(c+inT, tr-inT+rt-c, bm.DTot[t])
	}
	for _, t := range in.keys {
		c := in.val[t]
		rt, st, tr, ts := sc.cross(t)
		first := out.get(t) == 0
		if t == r || t == s {
			if first {
				cornerProbs(t, c, rt, st, tr, ts)
			}
			continue
		}
		cells += xlogx(tr-c) - xlogx(tr)
		cells += xlogx(ts+c) - xlogx(ts)
		if first {
			pFwd += prob(c, ts+st, bm.DTot[t])
			pBwd += prob(c, tr-c+rt, bm.DTot[t])
		}
	}
	if sl > 0 && outR+inR == 0 {
		_, sr, _, rs := sc.cross(r)
		pFwd += prob(2*sl, rs+sr, bm.DTot[r])
	}
	if sl > 0 && outS+inS == 0 {
		rs, _, sr, _ := sc.cross(s)
		pBwd += prob(2*sl, sr+cornerD[2]+rs+cornerD[1], bm.DTot[s]+k)
	}

	dS = bm.closeDelta(cells, &cornerD, vc.KOut, vc.KIn, sc)
	if pFwd <= 0 {
		return dS, 1
	}
	return dS, pBwd / pFwd
}

// ApplyMove commits a previously evaluated move to the model, updating
// the matrix, degrees, sizes and assignment in place. The move must have
// been evaluated against bm.Assignment (serial Metropolis-Hastings path)
// and be the most recent evaluation on its Scratch.
func (bm *Blockmodel) ApplyMove(md MoveDelta) {
	if md.From != md.To {
		bm.apply(md.V, md.From, md.To, md.counts)
	}
}

// apply moves vertex v, whose edges vc tallies under bm.Assignment, from
// block r to block s: one pair of Adds to M per distinct neighbour
// block, then v's degrees, size and assignment.
func (bm *Blockmodel) apply(v int, r, s int32, vc VertexCounts) {
	for _, t := range vc.out.keys {
		c := vc.out.val[t]
		bm.M.Add(int(r), int(t), -c)
		bm.M.Add(int(s), int(t), c)
	}
	for _, t := range vc.in.keys {
		c := vc.in.val[t]
		bm.M.Add(int(t), int(r), -c)
		bm.M.Add(int(t), int(s), c)
	}
	if vc.SelfLoops > 0 {
		bm.M.Add(int(r), int(r), -vc.SelfLoops)
		bm.M.Add(int(s), int(s), vc.SelfLoops)
	}
	bm.DOut[r] -= vc.KOut
	bm.DOut[s] += vc.KOut
	bm.DIn[r] -= vc.KIn
	bm.DIn[s] += vc.KIn
	bm.DTot[r] = bm.DOut[r] + bm.DIn[r]
	bm.DTot[s] = bm.DOut[s] + bm.DIn[s]
	bm.Sizes[r]--
	bm.Sizes[s]++
	bm.Assignment[v] = s
}

// EvalMerge computes the likelihood ΔS for merging block r into block s,
// without mutating the model. The model-complexity term is omitted: every
// merge reduces the block count by exactly one, so it is a constant
// offset when ranking merges (Algorithm 1 sorts on this delta).
func (bm *Blockmodel) EvalMerge(r, s int32, sc *Scratch) float64 {
	if r == s {
		return 0
	}
	bm.mergeEdits(r, s, sc)
	bm.loadCells(r, s, sc)
	return bm.deltaS(bm.DOut[r], bm.DIn[r], sc)
}
