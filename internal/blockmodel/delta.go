package blockmodel

import "math"

// This file implements the incremental ΔMDL computations at the core of
// every SBP variant. With f(x) = x·ln x the log-likelihood splits into
// cell and block-degree terms,
//
//	−L = −Σ_rs f(M_rs) + Σ_r f(d_out,r) + Σ_s f(d_in,s),
//
// because row r of M sums to d_out,r and column s to d_in,s. Moving
// vertex v from block r to block s (or merging block r into s) changes
// four block degrees and the cells listed in its edit list, so ΔS is a
// sum over that list: O(distinct neighbour blocks of v) for a move and
// O(nnz(row, col r)) for a merge, with no work per untouched entry.
//
// Proposal evaluation runs once per vertex per sweep and is the hot path
// of the whole system, so all intermediates live in a reusable Scratch
// owned by the calling worker, built on generation-stamped blockVec
// containers with O(1) reset and no hashing.

// Scratch holds the reusable intermediates of move evaluation. Each
// worker goroutine owns one Scratch; a Scratch must not be shared
// concurrently. The MoveDelta returned by EvalMove aliases its Scratch
// and is invalidated by the next EvalMove/EvalMerge call on the same
// Scratch.
type Scratch struct {
	out, in                blockVec // vertex→block edge tallies
	rowR, rowS, colR, colS blockVec // sparse-mode lookup tables of rows/cols r, s
	dense                  []int64  // M's backing array in dense mode, else nil
	c                      int      // block count of the loaded cells
	r, s                   int32    // the blocks whose cells are loaded
	cornerD                [4]int64 // summed edits of M[r][r], M[r][s], M[s][r], M[s][s]
	edits                  []edit
	wFwd, wBwd             blockVec // Hastings neighbour weights
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

	// Degree-1 vertices skip the blockVec tallies entirely (EvalMove's
	// fast path): out/in stay nil and deg1T names the single neighbour
	// block, with KOut/KIn telling the edge direction.
	deg1T int32
}

// OutTo returns the number of v's out-edges whose head lies in block t
// (excluding self-loops). Exposed for tests.
func (vc VertexCounts) OutTo(t int32) int64 {
	if vc.out == nil {
		if vc.KOut == 1 && t == vc.deg1T {
			return 1
		}
		return 0
	}
	return vc.out.get(t)
}

// InFrom returns the number of v's in-edges whose tail lies in block t
// (excluding self-loops). Exposed for tests.
func (vc VertexCounts) InFrom(t int32) int64 {
	if vc.in == nil {
		if vc.KIn == 1 && t == vc.deg1T {
			return 1
		}
		return 0
	}
	return vc.in.get(t)
}

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

// moveEdits fills sc.edits with the block-matrix adjustments for moving a
// vertex with counts vc from block r to block s. All edits lie in rows
// r,s and columns r,s.
func (sc *Scratch) moveEdits(vc VertexCounts, r, s int32) {
	sc.edits = sc.edits[:0]
	vc.out.iterate(func(t int32, c int64) {
		sc.edits = append(sc.edits, edit{r, t, -c}, edit{s, t, c})
	})
	vc.in.iterate(func(t int32, c int64) {
		sc.edits = append(sc.edits, edit{t, r, -c}, edit{t, s, c})
	})
	if vc.SelfLoops > 0 {
		sc.edits = append(sc.edits, edit{r, r, -vc.SelfLoops}, edit{s, s, vc.SelfLoops})
	}
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

// corner returns the slot of cell (i, j) in sc.cornerD — 0 for (r, r),
// 1 for (r, s), 2 for (s, r), 3 for (s, s) — or -1 when i or j lies
// outside {r, s}.
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
// edit list. A corner cell can be hit by several edits (out-edges into r
// or s, in-edges from r or s, self-loops), so its deltas are summed into
// sc.cornerD before f is taken.
func (bm *Blockmodel) deltaS(kOut, kIn int64, sc *Scratch) float64 {
	sc.cornerD = [4]int64{}
	var cells float64
	for _, e := range sc.edits {
		if k := sc.corner(e.i, e.j); k >= 0 {
			sc.cornerD[k] += e.delta
			continue
		}
		m := sc.cell(e.i, e.j)
		cells += xlogx(m+e.delta) - xlogx(m)
	}
	r, s := sc.r, sc.s
	for k, ij := range [4][2]int32{{r, r}, {r, s}, {s, r}, {s, s}} {
		if d := sc.cornerD[k]; d != 0 {
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

// MoveDelta holds the result of evaluating a proposed vertex move. It
// aliases the Scratch it was evaluated with; commit it (ApplyMove) or
// discard it before the next evaluation on the same Scratch.
type MoveDelta struct {
	V          int     // the vertex
	From, To   int32   // blocks r → s
	DeltaS     float64 // change in description length (likelihood part); negative is better
	EmptiesSrc bool    // the move would leave block r empty
	counts     VertexCounts
	sc         *Scratch
}

// EvalMove computes the likelihood ΔS for moving v from its current block
// (under membership b) to block s, without mutating the model. b must be
// the membership M was counted from: every engine passes bm.Assignment,
// and the asynchronous engines record accepted moves in a private copy
// until the next rebuild.
func (bm *Blockmodel) EvalMove(v int, s int32, b []int32, sc *Scratch) MoveDelta {
	r := b[v]
	md := MoveDelta{V: v, From: r, To: s, sc: sc}
	if r == s {
		return md
	}
	if bm.G.Degree(v) == 1 {
		// Degree-1 fast path: the single incident edge (necessarily not a
		// self-loop, which would count twice) touches one neighbour block,
		// so the edit list is two entries and no per-block tally is
		// needed. The entries match what CountVertex+moveEdits would
		// produce, so ΔS is bit-identical to the general path's.
		var t int32
		sc.edits = sc.edits[:0]
		if out := bm.G.OutNeighbors(v); len(out) == 1 {
			t = b[out[0]]
			md.counts = VertexCounts{KOut: 1, deg1T: t}
			sc.edits = append(sc.edits, edit{r, t, -1}, edit{s, t, 1})
		} else {
			t = b[bm.G.InNeighbors(v)[0]]
			md.counts = VertexCounts{KIn: 1, deg1T: t}
			sc.edits = append(sc.edits, edit{t, r, -1}, edit{t, s, 1})
		}
	} else {
		md.counts = bm.CountVertex(v, b, sc)
		sc.moveEdits(md.counts, r, s)
	}
	bm.loadCells(r, s, sc)
	md.DeltaS = bm.deltaS(md.counts.KOut, md.counts.KIn, sc)
	md.EmptiesSrc = bm.Sizes[r] == 1
	return md
}

// ApplyMove commits a previously evaluated move to the model, updating
// the matrix, degrees, sizes and assignment in place. The move must have
// been evaluated against bm.Assignment (serial Metropolis-Hastings path)
// and be the most recent evaluation on its Scratch.
func (bm *Blockmodel) ApplyMove(md MoveDelta) {
	if md.From == md.To {
		return
	}
	for _, e := range md.sc.edits {
		bm.M.Add(int(e.i), int(e.j), e.delta)
	}
	r, s := md.From, md.To
	bm.DOut[r] -= md.counts.KOut
	bm.DOut[s] += md.counts.KOut
	bm.DIn[r] -= md.counts.KIn
	bm.DIn[s] += md.counts.KIn
	bm.DTot[r] = bm.DOut[r] + bm.DIn[r]
	bm.DTot[s] = bm.DOut[s] + bm.DIn[s]
	bm.Sizes[r]--
	bm.Sizes[s]++
	bm.Assignment[md.V] = s
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
