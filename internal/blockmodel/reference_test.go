package blockmodel

import (
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// This file pins EvalMove's and EvalMerges' single walks to the bits of
// the edit-list computations they replaced. The move reference sums ΔS
// over a move edit list and rebuilds the Hastings correction from
// neighbour weights in two containers; the merge reference sums ΔS
// over a merge edit list. The chain's goldens and fingerprints would
// not notice a reordered sum that happens to round the same on their
// inputs, so the reference tests compare math.Float64bits over many
// random moves and merges.

// edit is a single (row, col, delta) adjustment to the block matrix.
type edit struct {
	i, j  int32
	delta int64
}

// editList scores an edit list against the cells loadCells loads into
// its own Scratch, which it shares with no Scratch under test.
type editList struct {
	sc    Scratch
	edits []edit
}

// corner returns the slot of cell (i, j) in a corner-edit array — 0 for
// (r, r), 1 for (r, s), 2 for (s, r), 3 for (s, s) — or -1 when i or j
// lies outside {r, s}.
func (el *editList) corner(i, j int32) int {
	r, s := el.sc.r, el.sc.s
	if (i != r && i != s) || (j != r && j != s) {
		return -1
	}
	k := 0
	if i == s {
		k = 2
	}
	if j == s {
		k++
	}
	return k
}

// deltaS returns ΔS for applying el.edits to the loaded cells while
// blocks r and s trade kOut out-degree and kIn in-degree. A cell
// outside the 2×2 corner of {r, s} occurs at most once in the edit
// list and adds its term in list order. A corner cell can be hit by
// several edits, so its deltas are summed before closeDelta takes f.
func (el *editList) deltaS(bm *Blockmodel, kOut, kIn int64) float64 {
	sc := &el.sc
	var cornerD [4]int64
	var cells float64
	for _, e := range el.edits {
		if k := el.corner(e.i, e.j); k >= 0 {
			cornerD[k] += e.delta
			continue
		}
		m := sc.cell(e.i, e.j)
		cells += xlogx(m+e.delta) - xlogx(m)
	}
	return bm.closeDelta(cells, &cornerD, kOut, kIn, sc)
}

// evalMerge returns ΔS for merging block r into s from the merge edit
// list: row r's nonzeros in ascending t, each emptying M[r][t] and
// filling M[s][t] (M[s][s] for t = r), then column r's off the
// diagonal, each emptying M[t][r] and filling M[t][s].
func (el *editList) evalMerge(bm *Blockmodel, r, s int32) float64 {
	if r == s {
		return 0
	}
	el.edits = el.edits[:0]
	bm.M.RowNZ(int(r), func(t int32, c int64) {
		nt := t
		if t == r {
			nt = s
		}
		el.edits = append(el.edits, edit{r, t, -c}, edit{s, nt, c})
	})
	bm.M.ColNZ(int(r), func(t int32, c int64) {
		if t != r {
			el.edits = append(el.edits, edit{t, r, -c}, edit{t, s, c})
		}
	})
	bm.loadCells(r, s, &el.sc)
	return el.deltaS(bm, bm.DOut[r], bm.DIn[r])
}

// twoPass is the move reference: an edit list plus its own neighbour
// weight containers.
type twoPass struct {
	editList
	wFwd, wBwd blockVec
}

// moveEdits fills tp.edits with the block-matrix adjustments for
// moving a vertex with counts vc from block r to block s: out-edges,
// then in-edges, then the self-loops.
func (tp *twoPass) moveEdits(vc VertexCounts, r, s int32) {
	tp.edits = tp.edits[:0]
	vc.out.iterate(func(t int32, c int64) {
		tp.edits = append(tp.edits, edit{r, t, -c}, edit{s, t, c})
	})
	vc.in.iterate(func(t int32, c int64) {
		tp.edits = append(tp.edits, edit{t, r, -c}, edit{t, s, c})
	})
	if vc.SelfLoops > 0 {
		tp.edits = append(tp.edits, edit{r, r, -vc.SelfLoops}, edit{s, s, vc.SelfLoops})
	}
}

// movedCells returns the post-move cells M′[t][r] and M′[r][t]: the
// loaded cells plus every edit of each.
func (tp *twoPass) movedCells(t int32) (mtr, mrt int64) {
	sc := &tp.sc
	r := sc.r
	mtr, mrt = sc.cell(t, r), sc.cell(r, t)
	for _, e := range tp.edits {
		if e.i == t && e.j == r {
			mtr += e.delta
		}
		if e.i == r && e.j == t {
			mrt += e.delta
		}
	}
	return mtr, mrt
}

// eval returns ΔS and the Hastings correction of moving v to s the
// two-pass way.
func (tp *twoPass) eval(bm *Blockmodel, v int, s int32) (dS, h float64) {
	r := bm.Assignment[v]
	if r == s {
		return 0, 1
	}
	sc := &tp.sc
	vc := bm.CountVertex(v, bm.Assignment, sc)
	tp.moveEdits(vc, r, s)
	bm.loadCells(r, s, sc)
	dS = tp.deltaS(bm, vc.KOut, vc.KIn)

	kv := float64(vc.KOut + vc.KIn)
	if kv == 0 {
		return dS, 1
	}
	cf := float64(bm.C)
	tp.wFwd.reset(bm.C)
	wFwd := &tp.wFwd
	for _, t := range vc.out.keys {
		if c := vc.out.val[t]; c != 0 {
			wFwd.add(t, c)
		}
	}
	for _, t := range vc.in.keys {
		if c := vc.in.val[t]; c != 0 {
			wFwd.add(t, c)
		}
	}
	wBwd := wFwd
	if vc.SelfLoops > 0 {
		tp.wBwd.reset(bm.C)
		for _, t := range wFwd.keys {
			if c := wFwd.val[t]; c != 0 {
				tp.wBwd.add(t, c)
			}
		}
		wBwd = &tp.wBwd
		wFwd.add(r, 2*vc.SelfLoops)
		wBwd.add(s, 2*vc.SelfLoops)
	}
	var pFwd, pBwd float64
	for _, t := range wFwd.keys {
		w := wFwd.val[t]
		if w == 0 {
			continue
		}
		mts := sc.cell(t, s)
		mst := sc.cell(s, t)
		pFwd += (float64(w) / kv) * (float64(mts+mst) + 1) / (float64(bm.DTot[t]) + cf)
	}
	for _, t := range wBwd.keys {
		w := wBwd.val[t]
		if w == 0 {
			continue
		}
		mtr, mrt := tp.movedCells(t)
		dt := bm.DTot[t]
		switch t {
		case r:
			dt = bm.DTot[r] - vc.KOut - vc.KIn
		case s:
			dt = bm.DTot[s] + vc.KOut + vc.KIn
		}
		pBwd += (float64(w) / kv) * (float64(mtr+mrt) + 1) / (float64(dt) + cf)
	}
	if pFwd <= 0 {
		return dS, 1
	}
	return dS, pBwd / pFwd
}

// referenceGraph draws a multigraph with every shape the walk branches
// on: random edges among the first n vertices, 300 self-loops (some
// vertices carry several), 300 repeated edges, leaves attached by one
// out- or in-edge, and isolated vertices at the end.
func referenceGraph(rr *rng.RNG, n, e, leaves, isolated int) *graph.Graph {
	edges := make([]graph.Edge, 0, e+600+leaves)
	for i := 0; i < e; i++ {
		edges = append(edges, graph.Edge{Src: int32(rr.Intn(n)), Dst: int32(rr.Intn(n))})
	}
	for i := 0; i < 300; i++ {
		v := int32(rr.Intn(n / 4))
		edges = append(edges, graph.Edge{Src: v, Dst: v})
	}
	for i := 0; i < 300; i++ {
		edges = append(edges, edges[rr.Intn(e)])
	}
	for i := 0; i < leaves; i++ {
		leaf, u := int32(n+i), int32(rr.Intn(n))
		if i%2 == 0 {
			edges = append(edges, graph.Edge{Src: leaf, Dst: u})
		} else {
			edges = append(edges, graph.Edge{Src: u, Dst: leaf})
		}
	}
	return graph.MustNew(n+leaves+isolated, edges)
}

// TestEvalMoveMatchesTwoPassBits requires EvalMove's ΔS and Hastings
// correction to equal the two-pass reference's bit for bit on 100k
// random moves, over dense (C = 2, 8, 64) and sparse (C =
// DenseThreshold+44, 900) storage. The vertices of a sparse model
// occupy 40 scattered blocks so that neighbour blocks land on r and s.
// Targets are drawn from v's neighbour blocks, from the proposal
// distribution and uniformly, and a quarter of the moves are applied so
// the state keeps changing. The test counts the cases the walk branches
// on and fails if one was reached fewer than 100 times.
func TestEvalMoveMatchesTwoPassBits(t *testing.T) {
	const n, leaves, isolated, movesPerC = 500, 60, 20, 20000
	var seen struct{ selfLoopRAbsent, selfLoopSAbsent, leaf, isolated, tIsR, tIsS int }
	for _, c := range []int{2, 8, 64, sparse.DenseThreshold + 44, 900} {
		rr := rng.New(uint64(1000 + c))
		g := referenceGraph(rr, n, 2000, leaves, isolated)
		blocks := c
		if c > sparse.DenseThreshold {
			blocks = 40
		}
		used := rr.Perm(c)[:blocks]
		assign := make([]int32, g.NumVertices())
		for v := range assign {
			assign[v] = int32(used[rr.Intn(blocks)])
		}
		bm := mustFromAssignment(t, g, assign, c)
		if bm.M.IsDense() != (c <= sparse.DenseThreshold) {
			t.Fatalf("C=%d: unexpected storage mode", c)
		}
		sc := NewScratch()
		var ref twoPass
		for i := 0; i < movesPerC; i++ {
			v := rr.Intn(g.NumVertices())
			var s int32
			switch k := g.Degree(v); {
			case k > 0 && i%3 == 0:
				s = bm.Assignment[g.Neighbor(v, rr.Intn(k))]
			case i%3 == 1:
				s = bm.ProposeVertexMove(v, bm.Assignment, rr)
			default:
				s = int32(rr.Intn(c))
			}
			md := bm.EvalMove(v, s, bm.Assignment, sc)
			h := bm.HastingsCorrection(&md)
			wantS, wantH := ref.eval(bm, v, s)
			if math.Float64bits(md.DeltaS) != math.Float64bits(wantS) || math.Float64bits(h) != math.Float64bits(wantH) {
				t.Fatalf("C=%d move %d: v=%d %d→%d: ΔS=%v H=%v, two-pass ΔS=%v H=%v",
					c, i, v, md.From, s, md.DeltaS, h, wantS, wantH)
			}
			if r := md.From; r != s {
				vc := md.counts
				if sl := vc.SelfLoops; sl > 0 {
					if vc.OutTo(r)+vc.InFrom(r) == 0 {
						seen.selfLoopRAbsent++
					}
					if vc.OutTo(s)+vc.InFrom(s) == 0 {
						seen.selfLoopSAbsent++
					}
				}
				switch g.Degree(v) {
				case 0:
					seen.isolated++
				case 1:
					seen.leaf++
				}
				if vc.OutTo(r)+vc.InFrom(r) > 0 {
					seen.tIsR++
				}
				if vc.OutTo(s)+vc.InFrom(s) > 0 {
					seen.tIsS++
				}
			}
			if i%4 == 0 && !md.EmptiesSrc {
				bm.ApplyMove(md)
			}
		}
		if err := bm.Validate(); err != nil {
			t.Fatalf("C=%d: model inconsistent after the applied moves: %v", c, err)
		}
	}
	for name, k := range map[string]int{
		"self-loop, r not a neighbour block": seen.selfLoopRAbsent,
		"self-loop, s not a neighbour block": seen.selfLoopSAbsent,
		"leaf":                               seen.leaf,
		"isolated vertex":                    seen.isolated,
		"neighbour block r":                  seen.tIsR,
		"neighbour block s":                  seen.tIsS,
	} {
		if k < 100 {
			t.Errorf("case %q reached %d times, want at least 100", name, k)
		}
	}
}

// TestEvalMergesMatchesEditListBits requires every EvalMerges delta to
// equal the merge edit-list reference bit for bit: 100k deltas, from
// 10k random blocks with 10 targets each, over dense storage (the
// planted C = 64 partition and boundaryModel's state at DenseThreshold)
// and sparse storage (boundaryModel's state at DenseThreshold+1, and
// the identity state of referenceGraph, whose self-loops fill diagonal
// cells). Most
// targets come from ProposeMerge; the rest are uniform, r itself, or a
// repeat of an earlier target. Between blocks one random vertex move is
// applied, so the states keep changing and the identity state empties
// blocks. EvalMerge must agree with its one-target case. The test counts
// the cases the walk branches on and fails if one was reached fewer
// than 100 times.
func TestEvalMergesMatchesEditListBits(t *testing.T) {
	const blocksPerState, targets = 2500, 10
	var seen struct{ self, repeat, diag, rsAndSr, empty int }
	rr := rng.New(2027)
	for _, bm := range []*Blockmodel{
		modelOf(benchModel(t, 2000, 64)),
		modelOf(boundaryModel(t, sparse.DenseThreshold)),
		modelOf(boundaryModel(t, sparse.DenseThreshold+1)),
		Identity(referenceGraph(rr, 500, 2000, 60, 20)),
	} {
		name := storageName(bm)
		if bm.M.IsDense() != (bm.C <= sparse.DenseThreshold) {
			t.Fatalf("%s: unexpected storage mode", name)
		}
		sc := NewScratch()
		var ref editList
		ts := make([]int32, targets)
		deltas := make([]float64, targets)
		for i := 0; i < blocksPerState; i++ {
			r := int32(rr.Intn(bm.C))
			for j := range ts {
				switch k := rr.Intn(10); {
				case k == 0:
					ts[j] = r
				case k == 1 && j > 0:
					ts[j] = ts[rr.Intn(j)]
				case k == 2:
					ts[j] = int32(rr.Intn(bm.C))
				default:
					ts[j] = bm.ProposeMerge(r, rr)
				}
			}
			bm.EvalMerges(r, ts, deltas, sc)
			for j, s := range ts {
				want := ref.evalMerge(bm, r, s)
				if math.Float64bits(deltas[j]) != math.Float64bits(want) {
					t.Fatalf("%s block %d: merge %d→%d (target %d): ΔS=%v, edit list %v",
						name, i, r, s, j, deltas[j], want)
				}
				if j == 0 {
					if one := bm.EvalMerge(r, s, sc); math.Float64bits(one) != math.Float64bits(want) {
						t.Fatalf("%s block %d: EvalMerge(%d, %d)=%v, edit list %v", name, i, r, s, one, want)
					}
				}
				switch {
				case s == r:
					seen.self++
					continue
				case slices.Contains(ts[:j], s):
					seen.repeat++
				}
				if bm.M.Get(int(r), int(r)) > 0 {
					seen.diag++
				}
				if bm.M.Get(int(r), int(s)) > 0 && bm.M.Get(int(s), int(r)) > 0 {
					seen.rsAndSr++
				}
				if bm.Sizes[r] == 0 || bm.Sizes[s] == 0 {
					seen.empty++
				}
			}
			v := rr.Intn(bm.G.NumVertices())
			bm.ApplyMove(bm.EvalMove(v, int32(rr.Intn(bm.C)), bm.Assignment, sc))
		}
		if err := bm.Validate(); err != nil {
			t.Fatalf("%s: model inconsistent after the applied moves: %v", name, err)
		}
	}
	for name, k := range map[string]int{
		"s == r":                   seen.self,
		"repeated target":          seen.repeat,
		"M[r][r] > 0":              seen.diag,
		"M[r][s] > 0, M[s][r] > 0": seen.rsAndSr,
		"empty r or s":             seen.empty,
	} {
		if k < 100 {
			t.Errorf("case %q reached %d times, want at least 100", name, k)
		}
	}
}

// modelOf drops the generator a model builder returns beside its model.
func modelOf(bm *Blockmodel, _ *rng.RNG) *Blockmodel { return bm }
