package blockmodel

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// This file pins EvalMove's single walk to the bits of the two-pass
// computation it replaced: ΔS from a move edit list summed by deltaS,
// then the Hastings correction from neighbour weights rebuilt into two
// containers. The chain's goldens and fingerprints would not notice a
// reordered sum that happens to round the same on their inputs, so the
// reference test compares math.Float64bits over many random moves.

// twoPass holds the reference's own containers, so it shares no state
// with the Scratch under test.
type twoPass struct {
	sc         Scratch
	wFwd, wBwd blockVec
}

// moveEdits fills tp.sc.edits with the block-matrix adjustments for
// moving a vertex with counts vc from block r to block s: out-edges,
// then in-edges, then the self-loops.
func (tp *twoPass) moveEdits(vc VertexCounts, r, s int32) {
	sc := &tp.sc
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

// movedCells returns the post-move cells M′[t][r] and M′[r][t]: the
// loaded cells plus every edit of each.
func (tp *twoPass) movedCells(t int32) (mtr, mrt int64) {
	sc := &tp.sc
	r := sc.r
	mtr, mrt = sc.cell(t, r), sc.cell(r, t)
	for _, e := range sc.edits {
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
	dS = bm.deltaS(vc.KOut, vc.KIn, sc)

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
// random moves, over dense (C = 2, 8, 64) and sparse (C = 300, 900)
// storage. The vertices of a sparse model occupy 40 scattered blocks so
// that neighbour blocks land on r and s. Targets are drawn from v's
// neighbour blocks, from the proposal distribution and uniformly, and a
// quarter of the moves are applied so the state keeps changing. The
// test counts the cases the walk branches on and fails if one was
// reached fewer than 100 times.
func TestEvalMoveMatchesTwoPassBits(t *testing.T) {
	const n, leaves, isolated, movesPerC = 500, 60, 20, 20000
	var seen struct{ selfLoopRAbsent, selfLoopSAbsent, leaf, isolated, tIsR, tIsS int }
	for _, c := range []int{2, 8, 64, 300, 900} {
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
