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
// changes four block degrees, empties row and column r, and adds their
// nonzeros to row and column s. ΔS is a sum over the changed cells:
// O(distinct neighbour blocks of v) for a move, and O(nnz(row, col r))
// for a merge, whose walk of row and column r serves all of r's merge
// candidates. A move's Hastings correction takes a second walk over the
// same neighbour blocks, which the acceptance rule asks for only when
// the correction could still change its decision (HastingsBound).
//
// Proposal evaluation runs once per vertex per sweep and is the hot path
// of the whole system, so all intermediates live in a reusable Scratch
// owned by the calling worker, built on generation-stamped blockVec
// containers with O(1) reset and no hashing.

// Scratch holds the reusable intermediates of move and merge
// evaluation. Each worker goroutine owns one Scratch; a Scratch must
// not be shared concurrently. The MoveDelta returned by EvalMove
// aliases its vertex tallies and loaded cells, which ApplyMove and
// HastingsCorrection read, and is invalidated by the next evaluation on
// the same Scratch.
type Scratch struct {
	out, in                blockVec  // vertex→block edge tallies
	rowR, rowS, colR, colS blockVec  // sparse-mode lookup tables of rows/cols r, s
	dense                  []int64   // M's backing array in dense mode, else nil
	c                      int       // block count of the loaded cells
	r, s                   int32     // the blocks whose cells are loaded
	nz                     []mergeNZ // a merge source's row nonzeros, then its column's
	nRow                   int       // how many of nz come from the row
	at                     []int     // a recount's column offsets
	tails                  []int32   // a recount's columns of M, one tail block per edge
	work                   int64     // units of counted work since the last Work call
}

// NewScratch returns an empty Scratch ready for use.
func NewScratch() *Scratch { return &Scratch{} }

// The fixed work of a visit (seeding and drawing from v's stream) and of
// a move evaluation (the corner cells, the four block degrees and the
// acceptance's exp), in units of the per-entry work the rest of
// Scratch.Work counts. A fit of one-worker pass times to visits,
// evaluations and entries put them at about 8 and 40 entries; counting
// them cut the pass layers' fit error (harness.Config.CostFit) by half.
const (
	visitUnits = 8
	evalUnits  = 40
)

// Work returns the units of work done on sc since the last call and
// restarts the count. The units depend only on the chain, never on
// timing, so the cost model (parallel.CostModel) charges them:
//
//   - ProposeVisit: visitUnits, plus the entries of row or column t the
//     block-edge draw scans;
//   - EvalMove: evalUnits, v's degree, the neighbour blocks its ΔS walk
//     visits, and in sparse storage the entries of rows and columns r
//     and s it loads;
//   - HastingsCorrection: the neighbour blocks its walk visits;
//   - ApplyMove: the neighbour blocks it updates;
//   - ApplyMoves: the moved vertices' edge endpoints, or RecountWork
//     when it recounts;
//   - EvalMerges: one per target, the entries of row and column r it
//     walks (2C in dense storage, their nonzeros in sparse), then per
//     target the nonzeros it walks and, in sparse storage, those of row
//     and column s it loads.
//
// MDLWork and RecountWork give the units of the passes that run
// without a Scratch.
func (sc *Scratch) Work() int64 {
	w := sc.work
	sc.work = 0
	return w
}

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

// loadCells prepares sc to read the cells of M that a move between
// blocks r and s touches, each of which has its row or its column in
// {r, s}. Dense mode reads the backing array in place; sparse mode
// bulk-loads rows r, s and columns r, s into O(1) lookup tables. The
// tables are reset in dense mode too, so a Scratch that served an early
// iteration at C ≈ N does not keep its O(N) arrays.
func (bm *Blockmodel) loadCells(r, s int32, sc *Scratch) {
	sc.r, sc.s, sc.c = r, s, bm.C
	sc.resetViews(bm.C)
	var dense bool
	if sc.dense, dense = bm.M.DenseData(); dense {
		return
	}
	k, v, _ := bm.M.RowView(int(r))
	sc.rowR.bulkLoad(k, v)
	n := len(k)
	k, v, _ = bm.M.RowView(int(s))
	sc.rowS.bulkLoad(k, v)
	n += len(k)
	k, v, _ = bm.M.ColView(int(r))
	sc.colR.bulkLoad(k, v)
	n += len(k)
	k, v, _ = bm.M.ColView(int(s))
	sc.colS.bulkLoad(k, v)
	sc.work += int64(n + len(k))
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

// rowPair returns the loaded cells M[r][t] and M[s][t].
func (sc *Scratch) rowPair(t int32) (rt, st int64) {
	if d := sc.dense; d != nil {
		c, t := sc.c, int(t)
		return d[int(sc.r)*c+t], d[int(sc.s)*c+t]
	}
	return sc.rowR.get(t), sc.rowS.get(t)
}

// colPair returns the loaded cells M[t][r] and M[t][s].
func (sc *Scratch) colPair(t int32) (tr, ts int64) {
	if d := sc.dense; d != nil {
		row := int(t) * sc.c
		return d[row+int(sc.r)], d[row+int(sc.s)]
	}
	return sc.colR.get(t), sc.colS.get(t)
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
// from one walk over v's neighbour blocks, and the Hastings correction
// once HastingsCorrection has walked for it. It aliases the vertex
// tallies and loaded cells of the Scratch it was evaluated with; commit
// it (ApplyMove) or discard it before the next evaluation on the same
// Scratch.
type MoveDelta struct {
	V          int     // the vertex
	From, To   int32   // blocks r → s
	DeltaS     float64 // change in description length (likelihood part); negative is better
	EmptiesSrc bool    // the move would leave block r empty
	hastings   float64 // p(s→r | b′) / p(r→s | b) once computed, 0 before; 1 when r == s
	counts     VertexCounts
	sc         *Scratch // holds counts' tallies and the cells of r and s
}

// EvalMove computes the likelihood ΔS for moving v from its current
// block (under membership b) to block s, without mutating the model.
// b must be the membership M was counted from: every engine passes
// bm.Assignment. The Hastings correction is left to HastingsCorrection,
// which most proposals never need (see HastingsBound).
func (bm *Blockmodel) EvalMove(v int, s int32, b []int32, sc *Scratch) MoveDelta {
	r := b[v]
	md := MoveDelta{V: v, From: r, To: s}
	if r == s {
		md.hastings = 1
		return md
	}
	md.counts = bm.CountVertex(v, b, sc)
	bm.loadCells(r, s, sc)
	md.DeltaS = bm.moveDelta(md.counts, sc)
	md.EmptiesSrc = bm.Sizes[r] == 1
	md.sc = sc
	sc.work += evalUnits + md.counts.KOut + md.counts.KIn + int64(len(sc.out.keys)+len(sc.in.keys))
	return md
}

// cornerDeltas returns the changes of M[r][r], M[r][s], M[s][r] and
// M[s][s] when the vertex with tallies vc moves from r to s.
func (vc VertexCounts) cornerDeltas(r, s int32) [4]int64 {
	outR, outS, inR, inS, sl := vc.out.get(r), vc.out.get(s), vc.in.get(r), vc.in.get(s), vc.SelfLoops
	return [4]int64{-outR - inR - sl, -outS + inR, outR - inS, outS + inS + sl}
}

// moveDelta returns ΔS for moving a vertex with tallies vc from block
// sc.r to sc.s, in one walk over its neighbour blocks: the keys of
// vc.out, then those of vc.in. A block t outside the 2×2 corner of
// {r, s} adds the terms of the two cells the move changes: M[r][t] and
// M[s][t] for an out-edge block, M[t][r] and M[t][s] for an in-edge
// block. The corner cells' summed changes are O(1) in the tallies, and
// closeDelta adds their terms after the walk. The order of the sum is
// part of the chain's output: TestEvalMoveMatchesTwoPassBits pins it
// bit for bit.
func (bm *Blockmodel) moveDelta(vc VertexCounts, sc *Scratch) float64 {
	r, s := sc.r, sc.s
	out, in := vc.out, vc.in
	var cells float64
	for _, t := range out.keys {
		if t != r && t != s {
			n := out.val[t]
			rt, st := sc.rowPair(t)
			cells += xlogx(rt-n) - xlogx(rt)
			cells += xlogx(st+n) - xlogx(st)
		}
	}
	for _, t := range in.keys {
		if t != r && t != s {
			n := in.val[t]
			tr, ts := sc.colPair(t)
			cells += xlogx(tr-n) - xlogx(tr)
			cells += xlogx(ts+n) - xlogx(ts)
		}
	}
	cornerD := vc.cornerDeltas(r, s)
	return bm.closeDelta(cells, &cornerD, vc.KOut, vc.KIn, sc)
}

// hastings returns the Hastings correction of the move EvalMove last
// evaluated on sc, whose tallies are vc, in one walk over its neighbour
// blocks: the keys of vc.out, then those of vc.in. A block t reads the
// four cells of cross(t) and adds one term to pFwd and one to pBwd (see
// HastingsCorrection), the first time t appears, with weight
// w_t = out[t] + in[t]. The post-move cells of t ∈ {r, s} are the
// loaded cells plus the corner's changes. A self-loop attaches v to its
// own block: 2·SelfLoops joins r's weight in pFwd and s's in pBwd, as a
// last term when that block is not a neighbour block. The order of both
// sums is part of the chain's output: TestEvalMoveMatchesTwoPassBits
// pins it bit for bit.
func (bm *Blockmodel) hastings(vc VertexCounts, sc *Scratch) float64 {
	r, s := sc.r, sc.s
	out, in, sl := vc.out, vc.in, vc.SelfLoops
	outR, outS, inR, inS := out.get(r), out.get(s), in.get(r), in.get(s)
	cornerD := vc.cornerDeltas(r, s)
	k := vc.KOut + vc.KIn
	sc.work += int64(len(out.keys) + len(in.keys))
	kv, cf := float64(k), float64(bm.C)
	// prob is one term of a proposal probability: weight w, the two
	// cells m joining t to the proposed block, and t's degree d.
	prob := func(w, m, d int64) float64 {
		return (float64(w) / kv) * (float64(m) + 1) / (float64(d) + cf)
	}
	var pFwd, pBwd float64
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
		pFwd += prob(c+inT, ts+st, bm.DTot[t])
		pBwd += prob(c+inT, tr-inT+rt-c, bm.DTot[t])
	}
	for _, t := range in.keys {
		c := in.val[t]
		if out.get(t) != 0 {
			continue
		}
		rt, st, tr, ts := sc.cross(t)
		if t == r || t == s {
			cornerProbs(t, c, rt, st, tr, ts)
			continue
		}
		pFwd += prob(c, ts+st, bm.DTot[t])
		pBwd += prob(c, tr-c+rt, bm.DTot[t])
	}
	if sl > 0 && outR+inR == 0 {
		_, sr, _, rs := sc.cross(r)
		pFwd += prob(2*sl, rs+sr, bm.DTot[r])
	}
	if sl > 0 && outS+inS == 0 {
		rs, _, sr, _ := sc.cross(s)
		pBwd += prob(2*sl, sr+cornerD[2]+rs+cornerD[1], bm.DTot[s]+k)
	}
	if pFwd <= 0 {
		return 1
	}
	return pBwd / pFwd
}

// ApplyMove commits a previously evaluated move to the model, updating
// the matrix, degrees, sizes and assignment in place. The move must have
// been evaluated against bm.Assignment (serial Metropolis-Hastings path)
// and be the most recent evaluation on its Scratch.
func (bm *Blockmodel) ApplyMove(md MoveDelta) {
	if md.From != md.To {
		bm.apply(md.V, md.From, md.To, md.counts)
		md.sc.work += int64(len(md.counts.out.keys) + len(md.counts.in.keys))
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
	bm.loadMerge(r, sc)
	return bm.mergeDelta(s, sc)
}

// EvalMerges sets deltas[i] to EvalMerge(r, targets[i], sc) for every
// target, with the same bits, from one walk of row and column r: only
// the cells of s differ between a block's merge candidates.
func (bm *Blockmodel) EvalMerges(r int32, targets []int32, deltas []float64, sc *Scratch) {
	bm.loadMerge(r, sc)
	sc.work += int64(len(targets))
	for i, s := range targets {
		deltas[i] = 0
		if s != r {
			deltas[i] = bm.mergeDelta(s, sc)
		}
	}
}

// mergeNZ is one nonzero M[r][t] = c of a merge source r's row, or
// M[t][r] = c of its column, with the term xlogx(0) − xlogx(c) of the
// cell the merge empties.
type mergeNZ struct {
	t     int32
	c     int64
	empty float64
}

// loadMerge prepares sc to score merges of block r: it keeps the
// nonzeros of row r, then those of column r off the diagonal, in
// ascending t, and in sparse storage loads row r for the corner cells.
func (bm *Blockmodel) loadMerge(r int32, sc *Scratch) {
	sc.r, sc.c = r, bm.C
	sc.resetViews(bm.C)
	sc.nz = sc.nz[:0]
	add := func(t int32, c int64) {
		sc.nz = append(sc.nz, mergeNZ{t, c, xlogx(0) - xlogx(c)})
	}
	var dense bool
	if sc.dense, dense = bm.M.DenseData(); dense {
		n := bm.C
		for t, c := range sc.dense[int(r)*n : (int(r)+1)*n] {
			if c != 0 {
				add(int32(t), c)
			}
		}
		sc.nRow = len(sc.nz)
		for t := 0; t < n; t++ {
			if c := sc.dense[t*n+int(r)]; c != 0 && t != int(r) {
				add(int32(t), c)
			}
		}
		sc.work += int64(2 * n)
		return
	}
	k, v, _ := bm.M.RowView(int(r))
	sc.rowR.bulkLoad(k, v)
	for i, t := range k {
		add(t, v[i])
	}
	sc.nRow = len(sc.nz)
	k, v, _ = bm.M.ColView(int(r))
	for i, t := range k {
		if t != r {
			add(t, v[i])
		}
	}
	sc.work += int64(sc.nRow + len(k))
}

// mergeDelta returns ΔS for merging the block loadMerge loaded into
// s ≠ r: every nonzero M[r][t] moves to M[s][t], and every M[t][r] to
// M[t][s]. A nonzero outside the 2×2 corner of {r, s} adds the term of
// the cell it empties, then that of the cell of s it fills; the corner
// cells' changes are O(1) in their counts, and closeDelta adds their
// terms. The order of the sum is part of the chain's output:
// TestEvalMergesMatchesEditListBits pins it bit for bit. Each storage
// mode has its own loops: reading every cell through Scratch.cell was
// 20–50% slower on BenchmarkEvalMerge.
func (bm *Blockmodel) mergeDelta(s int32, sc *Scratch) float64 {
	r, n := sc.r, sc.c
	sc.s = s
	rows, cols := sc.nz[:sc.nRow], sc.nz[sc.nRow:]
	var cells float64
	if d := sc.dense; d != nil {
		rowS := d[int(s)*n : (int(s)+1)*n]
		for _, e := range rows {
			if e.t != r && e.t != s {
				m := rowS[e.t]
				cells += e.empty
				cells += xlogx(m+e.c) - xlogx(m)
			}
		}
		for _, e := range cols {
			if e.t != s {
				m := d[int(e.t)*n+int(s)]
				cells += e.empty
				cells += xlogx(m+e.c) - xlogx(m)
			}
		}
	} else {
		sc.rowS.reset(n)
		sc.colS.reset(n)
		k, v, _ := bm.M.RowView(int(s))
		sc.rowS.bulkLoad(k, v)
		loaded := len(k)
		k, v, _ = bm.M.ColView(int(s))
		sc.colS.bulkLoad(k, v)
		sc.work += int64(loaded + len(k))
		for _, e := range rows {
			if e.t != r && e.t != s {
				m := sc.rowS.get(e.t)
				cells += e.empty
				cells += xlogx(m+e.c) - xlogx(m)
			}
		}
		for _, e := range cols {
			if e.t != s {
				m := sc.colS.get(e.t)
				cells += e.empty
				cells += xlogx(m+e.c) - xlogx(m)
			}
		}
	}
	sc.work += int64(len(sc.nz))
	// The changes of M[r][r], M[r][s], M[s][r] and M[s][s].
	rr, rs, sr := sc.cell(r, r), sc.cell(r, s), sc.cell(s, r)
	cornerD := [4]int64{-rr, -rs, -sr, rr + rs + sr}
	return bm.closeDelta(cells, &cornerD, bm.DOut[r], bm.DIn[r], sc)
}
