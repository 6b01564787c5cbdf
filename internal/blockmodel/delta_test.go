package blockmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// likelihoodEntropy returns the full description-length entropy −L(G|B),
// recomputed from scratch — the ground truth that incremental deltas
// must match.
func likelihoodEntropy(bm *Blockmodel) float64 {
	return -bm.LogLikelihood()
}

// deltaModel draws a random multigraph and membership for the delta
// property tests. In dense storage the vertices spread over C ∈ [minC,
// minC+4] blocks. In sparse storage C exceeds sparse.DenseThreshold and
// the vertices are packed into 2–5 blocks scattered over the index
// range, so neighbour blocks land on r and s and the corner cells of the
// edit list are exercised.
func deltaModel(t *testing.T, rr *rng.RNG, sparseMode bool, minN, minE, minC int) *Blockmodel {
	t.Helper()
	n := rr.Intn(20) + minN
	e := rr.Intn(100) + minE
	c := rr.Intn(5) + minC
	if !sparseMode {
		g, assign := randomGraph(rr, n, e, c)
		return mustFromAssignment(t, g, assign, c)
	}
	c += sparse.DenseThreshold
	used := rr.Perm(c)[:rr.Intn(4)+2]
	g, assign := randomGraph(rr, n, e, len(used))
	for v, b := range assign {
		assign[v] = int32(used[b])
	}
	bm := mustFromAssignment(t, g, assign, c)
	if bm.M.IsDense() {
		t.Fatalf("C=%d model uses dense storage", c)
	}
	return bm
}

// pickBlock returns a target block for a move or merge: in sparse
// storage half the draws come from the occupied blocks, which would
// otherwise be hit rarely among C > 256.
func pickBlock(rr *rng.RNG, bm *Blockmodel) int32 {
	if !bm.M.IsDense() && rr.Intn(2) == 0 {
		return bm.Assignment[rr.Intn(len(bm.Assignment))]
	}
	return int32(rr.Intn(bm.C))
}

// recomputeEntropy returns −L(G|B) for membership b, counted from
// scratch: the ground truth for incremental deltas.
func recomputeEntropy(t *testing.T, bm *Blockmodel, b []int32) float64 {
	t.Helper()
	return likelihoodEntropy(mustFromAssignment(t, bm.G, b, bm.C))
}

// TestEvalMoveMatchesRecompute is the central correctness property: for
// random graphs, assignments and moves, in both storage modes, the
// incremental ΔS must equal the difference of full recomputations to
// floating-point accuracy.
func TestEvalMoveMatchesRecompute(t *testing.T) {
	for _, mode := range []struct {
		name   string
		sparse bool
	}{{"dense", false}, {"sparse", true}} {
		t.Run(mode.name, func(t *testing.T) {
			sc := NewScratch()
			if err := quick.Check(func(seed uint16) bool {
				rr := rng.New(uint64(seed))
				bm := deltaModel(t, rr, mode.sparse, 4, 4, 2)
				v := rr.Intn(bm.G.NumVertices())
				s := pickBlock(rr, bm)
				md := bm.EvalMove(v, s, bm.Assignment, sc)
				moved := append([]int32(nil), bm.Assignment...)
				moved[v] = s
				want := recomputeEntropy(t, bm, moved) - likelihoodEntropy(bm)
				return math.Abs(md.DeltaS-want) < 1e-9*(1+math.Abs(want))
			}, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEvalMoveSameBlockIsZero(t *testing.T) {
	g, assign := fixture(t)
	bm, _ := FromAssignment(g, assign, 2, 1)
	sc := NewScratch()
	md := bm.EvalMove(0, 0, bm.Assignment, sc)
	if md.DeltaS != 0 {
		t.Fatalf("ΔS for no-op move = %v", md.DeltaS)
	}
}

func TestApplyMoveKeepsModelConsistent(t *testing.T) {
	r := rng.New(55)
	g, assign := randomGraph(r, 30, 120, 4)
	bm, err := FromAssignment(g, assign, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	for i := 0; i < 50; i++ {
		v := r.Intn(30)
		s := int32(r.Intn(4))
		md := bm.EvalMove(v, s, bm.Assignment, sc)
		bm.ApplyMove(md)
	}
	if err := bm.Validate(); err != nil {
		t.Fatalf("model inconsistent after moves: %v", err)
	}
}

func TestApplyMoveMDLTracksDelta(t *testing.T) {
	// After applying a move, the model's entropy must shift by exactly
	// the evaluated ΔS (the model-complexity term is unchanged when no
	// block empties).
	r := rng.New(77)
	g, assign := randomGraph(r, 25, 150, 5)
	bm, err := FromAssignment(g, assign, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	for i := 0; i < 30; i++ {
		v := r.Intn(25)
		s := int32(r.Intn(5))
		md := bm.EvalMove(v, s, bm.Assignment, sc)
		if md.EmptiesSrc {
			continue
		}
		before := likelihoodEntropy(bm)
		bm.ApplyMove(md)
		got := likelihoodEntropy(bm) - before
		if math.Abs(got-md.DeltaS) > 1e-9*(1+math.Abs(got)) {
			t.Fatalf("step %d: applied delta %v != evaluated %v", i, got, md.DeltaS)
		}
	}
}

func TestEmptiesSrcFlag(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	bm, err := FromAssignment(g, []int32{0, 1, 1}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	md := bm.EvalMove(0, 1, bm.Assignment, sc)
	if !md.EmptiesSrc {
		t.Fatal("moving the sole member of block 0 should set EmptiesSrc")
	}
	md2 := bm.EvalMove(1, 0, bm.Assignment, sc)
	if md2.EmptiesSrc {
		t.Fatal("moving one of two members should not set EmptiesSrc")
	}
}

func TestSelfLoopMove(t *testing.T) {
	// A vertex with a self-loop moving between blocks must carry the
	// loop to the target diagonal.
	g := graph.MustNew(2, []graph.Edge{{Src: 0, Dst: 0}, {Src: 0, Dst: 1}})
	bm, err := FromAssignment(g, []int32{0, 1}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	md := bm.EvalMove(0, 1, bm.Assignment, sc)
	bm.ApplyMove(md)
	if got := bm.M.Get(1, 1); got != 2 {
		t.Fatalf("M[1][1] after move = %d, want 2 (loop + edge)", got)
	}
	if got := bm.M.Get(0, 0); got != 0 {
		t.Fatalf("M[0][0] after move = %d, want 0", got)
	}
	if err := bm.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEvalMergeMatchesRecompute checks the merge delta against full
// recomputation over random models in both storage modes.
func TestEvalMergeMatchesRecompute(t *testing.T) {
	for _, mode := range []struct {
		name   string
		sparse bool
	}{{"dense", false}, {"sparse", true}} {
		t.Run(mode.name, func(t *testing.T) {
			sc := NewScratch()
			if err := quick.Check(func(seed uint16) bool {
				rr := rng.New(uint64(seed))
				bm := deltaModel(t, rr, mode.sparse, 6, 5, 3)
				r, s := pickBlock(rr, bm), pickBlock(rr, bm)
				if r == s {
					return true
				}
				got := bm.EvalMerge(r, s, sc)
				merged := append([]int32(nil), bm.Assignment...)
				for v := range merged {
					if merged[v] == r {
						merged[v] = s
					}
				}
				want := recomputeEntropy(t, bm, merged) - likelihoodEntropy(bm)
				return math.Abs(got-want) < 1e-9*(1+math.Abs(want))
			}, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeltaLargeCounts drives cells and block degrees past the x·ln x
// table, in both storage modes: block a holds 30 of 40 vertices and
// 5000 edges among them, so M[a][a] and a's degrees exceed 4096. Every
// move and merge between the three occupied blocks must match the
// recount, and each move's Hastings correction must invert the reverse
// move's.
func TestDeltaLargeCounts(t *testing.T) {
	rr := rng.New(21)
	const n = 40
	var edges []graph.Edge
	for i := 0; i < 5000; i++ {
		edges = append(edges, graph.Edge{Src: int32(rr.Intn(30)), Dst: int32(rr.Intn(30))})
	}
	for i := 0; i < 1000; i++ {
		edges = append(edges, graph.Edge{Src: int32(rr.Intn(n)), Dst: int32(rr.Intn(n))})
	}
	g := graph.MustNew(n, edges)
	for _, c := range []int{4, sparse.DenseThreshold + 44} {
		blocks := []int32{1, int32(c) / 2, int32(c) - 1} // a, b, c
		assign := make([]int32, n)
		for v := range assign {
			switch {
			case v < 30:
				assign[v] = blocks[0]
			case v < 35:
				assign[v] = blocks[1]
			default:
				assign[v] = blocks[2]
			}
		}
		bm := mustFromAssignment(t, g, assign, c)
		if got := bm.M.Get(int(blocks[0]), int(blocks[0])); got < int64(len(xlogxTable)) {
			t.Fatalf("C=%d: M[a][a] = %d does not pass the table", c, got)
		}
		sc := NewScratch()
		for _, r := range blocks {
			for _, s := range blocks {
				if r == s {
					continue
				}
				merged := append([]int32(nil), assign...)
				for v := range merged {
					if merged[v] == r {
						merged[v] = s
					}
				}
				want := recomputeEntropy(t, bm, merged) - likelihoodEntropy(bm)
				if got := bm.EvalMerge(r, s, sc); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Errorf("C=%d merge %d→%d: ΔS=%g want %g", c, r, s, got, want)
				}
			}
		}
		for _, v := range []int{0, 7, 29, 30, 36} {
			for _, s := range blocks {
				r := bm.Assignment[v]
				if s == r {
					continue
				}
				md := bm.EvalMove(v, s, bm.Assignment, sc)
				checkDeltaFresh(t, bm, md)
				h1 := bm.HastingsCorrection(&md)
				bm.ApplyMove(md)
				back := bm.EvalMove(v, r, bm.Assignment, sc)
				h2 := bm.HastingsCorrection(&back)
				bm.ApplyMove(back)
				if math.Abs(h1*h2-1) > 1e-12 {
					t.Errorf("C=%d v=%d %d→%d: h·h_reverse = %g, want 1", c, v, r, s, h1*h2)
				}
			}
		}
	}
}

func TestEvalMergeSelfIsZero(t *testing.T) {
	g, assign := fixture(t)
	bm, _ := FromAssignment(g, assign, 2, 1)
	if got := bm.EvalMerge(1, 1, NewScratch()); got != 0 {
		t.Fatalf("self-merge delta = %v", got)
	}
}

func TestEvalMoveAgainstAlternativeMembership(t *testing.T) {
	// The asynchronous engines evaluate moves against a membership
	// vector that differs from bm.Assignment; the counts must follow
	// the supplied vector.
	g := graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}})
	bm, err := FromAssignment(g, []int32{0, 1, 1}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	alt := []int32{0, 0, 1} // vertex 1 moved to block 0 in the alt view
	sc := NewScratch()
	vc := bm.CountVertex(0, alt, sc)
	if vc.OutTo(0) != 1 || vc.OutTo(1) != 1 {
		t.Fatalf("counts under alt view: to0=%d to1=%d", vc.OutTo(0), vc.OutTo(1))
	}
}

func TestCountVertex(t *testing.T) {
	g, assign := fixture(t)
	bm, _ := FromAssignment(g, assign, 2, 1)
	sc := NewScratch()
	vc := bm.CountVertex(0, bm.Assignment, sc)
	// Vertex 0: out-edges to 1 (block 0) and self-loop; in-edges from 2, 1 (block 0).
	if vc.SelfLoops != 1 {
		t.Fatalf("self-loops = %d", vc.SelfLoops)
	}
	if vc.KOut != 2 || vc.KIn != 3 {
		t.Fatalf("KOut=%d KIn=%d", vc.KOut, vc.KIn)
	}
	if vc.OutTo(0) != 1 || vc.InFrom(0) != 2 {
		t.Fatalf("OutTo(0)=%d InFrom(0)=%d", vc.OutTo(0), vc.InFrom(0))
	}
}

func TestScratchReuseAcrossSizes(t *testing.T) {
	// A scratch used at a large block count then a small one (and back)
	// must stay correct: the blockVec generation stamps must isolate
	// calls.
	rr := rng.New(9)
	gBig, aBig := randomGraph(rr, 50, 200, 40)
	big, err := FromAssignment(gBig, aBig, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	gSmall, aSmall := randomGraph(rr, 10, 30, 3)
	small, err := FromAssignment(gSmall, aSmall, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	for i := 0; i < 20; i++ {
		vB := rr.Intn(50)
		mdB := big.EvalMove(vB, int32(rr.Intn(40)), big.Assignment, sc)
		checkDeltaFresh(t, big, mdB)
		vS := rr.Intn(10)
		mdS := small.EvalMove(vS, int32(rr.Intn(3)), small.Assignment, sc)
		checkDeltaFresh(t, small, mdS)
	}
}

// checkDeltaFresh verifies one MoveDelta against full recomputation.
func checkDeltaFresh(t *testing.T, bm *Blockmodel, md MoveDelta) {
	t.Helper()
	moved := append([]int32(nil), bm.Assignment...)
	moved[md.V] = md.To
	after, err := FromAssignment(bm.G, moved, bm.C, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := likelihoodEntropy(after) - likelihoodEntropy(bm)
	if math.Abs(md.DeltaS-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("delta %v != recomputed %v", md.DeltaS, want)
	}
}

func TestBlockVecStampWrap(t *testing.T) {
	var b blockVec
	b.reset(4)
	b.add(2, 7)
	b.gen = math.MaxUint32 // force wrap on next reset
	b.reset(4)
	if b.get(2) != 0 {
		t.Fatal("stale value visible after generation wrap")
	}
	b.add(1, 3)
	if b.get(1) != 3 {
		t.Fatal("add after wrap lost")
	}
	count := 0
	b.iterate(func(k int32, v int64) { count++ })
	if count != 1 {
		t.Fatalf("iterate after wrap visited %d entries", count)
	}
}

func TestBlockVecAgainstMapReference(t *testing.T) {
	// Property: a blockVec behaves exactly like a map across interleaved
	// resets, adds and reads.
	if err := quick.Check(func(seed uint16) bool {
		rr := rng.New(uint64(seed))
		var b blockVec
		c := rr.Intn(30) + 2
		for round := 0; round < 5; round++ {
			b.reset(c)
			ref := map[int32]int64{}
			for op := 0; op < 40; op++ {
				k := int32(rr.Intn(c))
				d := int64(rr.Intn(7)) - 3
				b.add(k, d)
				ref[k] += d
			}
			for k, v := range ref {
				if b.get(k) != v {
					return false
				}
			}
			seen := map[int32]int64{}
			b.iterate(func(k int32, v int64) { seen[k] = v })
			for k, v := range ref {
				if v != 0 && seen[k] != v {
					return false
				}
			}
			for k := range seen {
				if ref[k] == 0 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
