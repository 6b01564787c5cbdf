package blockmodel

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

func TestProposeVertexMoveInRange(t *testing.T) {
	r := rng.New(2)
	g, assign := randomGraph(r, 40, 160, 6)
	bm, err := FromAssignment(g, assign, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		v := r.Intn(40)
		s := bm.ProposeVertexMove(v, bm.Assignment, r)
		if s < 0 || int(s) >= bm.C {
			t.Fatalf("proposal %d out of range", s)
		}
	}
}

func TestProposeIsolatedVertexUniform(t *testing.T) {
	// Vertex 3 has no edges: proposals must still be valid blocks and
	// roughly uniform.
	g := graph.MustNew(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}})
	bm, err := FromAssignment(g, []int32{0, 1, 2, 0}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[bm.ProposeVertexMove(3, bm.Assignment, r)]++
	}
	for b, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("isolated-vertex proposal not uniform: block %d chosen %d/3000", b, c)
		}
	}
}

func TestProposalPrefersNeighbourBlocks(t *testing.T) {
	// Two dense communities: proposals for a vertex inside community 0
	// should land on block 0 far more often than chance once C is large.
	var edges []graph.Edge
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if i != j {
				edges = append(edges, graph.Edge{Src: int32(i), Dst: int32(j)})
			}
		}
	}
	// 10 extra singleton blocks with one internal edge each.
	n := 30
	for v := 10; v < 30; v += 2 {
		edges = append(edges, graph.Edge{Src: int32(v), Dst: int32(v + 1)})
	}
	g := graph.MustNew(n, edges)
	assign := make([]int32, n)
	c := int32(1)
	for v := 10; v < 30; v += 2 {
		assign[v], assign[v+1] = c, c
		c++
	}
	bm, err := FromAssignment(g, assign, int(c), 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	own := 0
	const draws = 2000
	for i := 0; i < draws; i++ {
		if bm.ProposeVertexMove(0, bm.Assignment, r) == 0 {
			own++
		}
	}
	if own < draws/2 {
		t.Fatalf("neighbour-guided proposal chose own dense block only %d/%d times", own, draws)
	}
}

func TestProposeMergeNeverSelf(t *testing.T) {
	r := rng.New(5)
	g, assign := randomGraph(r, 30, 100, 8)
	bm, err := FromAssignment(g, assign, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		src := int32(r.Intn(8))
		s := bm.ProposeMerge(src, r)
		if s == src {
			t.Fatal("merge proposed with itself")
		}
		if s < 0 || int(s) >= bm.C {
			t.Fatalf("merge proposal %d out of range", s)
		}
	}
}

func TestProposeMergePanicsWithOneBlock(t *testing.T) {
	g := graph.MustNew(2, []graph.Edge{{Src: 0, Dst: 1}})
	bm, _ := FromAssignment(g, []int32{0, 0}, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("ProposeMerge with C=1 did not panic")
		}
	}()
	bm.ProposeMerge(0, rng.New(1))
}

func TestUniformOtherCoversAllBlocks(t *testing.T) {
	g, assign := fixture(t)
	bm, _ := FromAssignment(g, assign, 2, 1)
	bm.C = 5 // widen the universe artificially for this distribution check
	r := rng.New(6)
	seen := map[int32]bool{}
	for i := 0; i < 500; i++ {
		s := bm.uniformOther(2, r)
		if s == 2 {
			t.Fatal("uniformOther returned the excluded block")
		}
		seen[s] = true
	}
	if len(seen) != 4 {
		t.Fatalf("uniformOther covered %d of 4 blocks", len(seen))
	}
}

// TestHastingsReversibility: evaluating a move and then its reverse on
// the mutated model must give reciprocal corrections, since
// p(r→s|b)·H(r→s) relates the same two proposal probabilities in both
// directions.
func TestHastingsReversibility(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 100; trial++ {
		g, assign := randomGraph(r, 20, 80, 4)
		bm, err := FromAssignment(g, assign, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScratch()
		v := r.Intn(20)
		from := bm.Assignment[v]
		to := int32(r.Intn(4))
		if to == from {
			continue
		}
		md := bm.EvalMove(v, to, bm.Assignment, sc)
		h1 := bm.HastingsCorrection(&md)
		bm.ApplyMove(md)
		md2 := bm.EvalMove(v, from, bm.Assignment, sc)
		h2 := bm.HastingsCorrection(&md2)
		if h1 <= 0 || h2 <= 0 {
			t.Fatalf("non-positive Hastings factor: %v, %v", h1, h2)
		}
		if prod := h1 * h2; math.Abs(prod-1) > 1e-9 {
			t.Fatalf("trial %d: H(fwd)·H(bwd) = %v, want 1", trial, prod)
		}
	}
}

// TestHastingsBound requires every Hastings correction to stay within
// HastingsBound over 100k random moves, in dense storage (C = 8 and 64)
// and sparse storage (C = DenseThreshold+44 and 900), on multigraphs
// with self-loops, repeated edges, leaves and isolated vertices, whose
// vertices occupy 40 of the blocks at C ≥ 64 so that most blocks are
// empty. A quarter of the moves are applied so the state keeps
// changing. A built state where H exceeds an eighth of the bound shows
// that the bound is not vacuous.
func TestHastingsBound(t *testing.T) {
	const n, leaves, isolated, movesPerC = 500, 60, 20, 25000
	var worst float64
	for _, c := range []int{8, 64, sparse.DenseThreshold + 44, 900} {
		rr := rng.New(uint64(2000 + c))
		g := referenceGraph(rr, n, 2000, leaves, isolated)
		used := rr.Perm(c)[:min(c, 40)]
		assign := make([]int32, g.NumVertices())
		for v := range assign {
			assign[v] = int32(used[rr.Intn(len(used))])
		}
		bm := mustFromAssignment(t, g, assign, c)
		if bm.M.IsDense() != (c <= sparse.DenseThreshold) {
			t.Fatalf("C=%d: unexpected storage mode", c)
		}
		bound := bm.HastingsBound()
		sc := NewScratch()
		for i := 0; i < movesPerC; i++ {
			v := rr.Intn(g.NumVertices())
			s := int32(rr.Intn(c))
			if i%2 == 0 {
				s = bm.ProposeVertexMove(v, bm.Assignment, rr)
			}
			md := bm.EvalMove(v, s, bm.Assignment, sc)
			h := bm.HastingsCorrection(&md)
			if !(h > 0 && h <= bound) {
				t.Fatalf("C=%d move %d: v=%d %d→%d: H=%v outside (0, %v]", c, i, v, md.From, s, h, bound)
			}
			worst = max(worst, h/bound)
			if i%4 == 0 && !md.EmptiesSrc {
				bm.ApplyMove(md)
			}
		}
	}
	t.Logf("largest H/bound over the random moves: %.3g", worst)

	// Vertex 0 (block 0) has one edge, to vertex 1 (block 1); vertex 2
	// (block 0) has 100 repeated edges to vertex 1; vertex 3 sits alone
	// in block 2. Moving 0 to block 2: p(0→2) = 1/(d_1+C) = 1/104, while
	// the way back from block 1 to block 0 carries all of block 1's
	// other edges: p(2→0 | b′) = 101/104. So H = 101, against a bound of
	// 2·(2·101 + 3) = 410.
	edges := []graph.Edge{{Src: 0, Dst: 1}}
	for i := 0; i < 100; i++ {
		edges = append(edges, graph.Edge{Src: 2, Dst: 1})
	}
	bm := mustFromAssignment(t, graph.MustNew(4, edges), []int32{0, 1, 0, 2}, 3)
	md := bm.EvalMove(0, 2, bm.Assignment, NewScratch())
	if h, bound := bm.HastingsCorrection(&md), bm.HastingsBound(); h != 101 || h <= bound/8 {
		t.Fatalf("built state: H = %v against bound %v, want 101 > bound/8", h, bound)
	}
}

func TestHastingsNoOpMoveIsOne(t *testing.T) {
	g, assign := fixture(t)
	bm, _ := FromAssignment(g, assign, 2, 1)
	sc := NewScratch()
	md := bm.EvalMove(0, bm.Assignment[0], bm.Assignment, sc)
	if h := bm.HastingsCorrection(&md); h != 1 {
		t.Fatalf("H for no-op move = %v", h)
	}
}

func TestHastingsIsolatedVertexIsOne(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 1}})
	bm, err := FromAssignment(g, []int32{0, 0, 1}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	md := bm.EvalMove(2, 0, bm.Assignment, sc)
	if h := bm.HastingsCorrection(&md); h != 1 {
		t.Fatalf("H for isolated vertex = %v", h)
	}
}

func TestHastingsSelfLoopReversibility(t *testing.T) {
	// Self-loops shift neighbour weights between forward and backward
	// proposals; reversibility must still hold.
	g := graph.MustNew(4, []graph.Edge{{Src: 0, Dst: 0}, {Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}})
	bm, err := FromAssignment(g, []int32{0, 0, 1, 1}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	md := bm.EvalMove(0, 1, bm.Assignment, sc)
	h1 := bm.HastingsCorrection(&md)
	bm.ApplyMove(md)
	md2 := bm.EvalMove(0, 0, bm.Assignment, sc)
	h2 := bm.HastingsCorrection(&md2)
	if math.Abs(h1*h2-1) > 1e-9 {
		t.Fatalf("self-loop reversibility violated: %v · %v != 1", h1, h2)
	}
}

func TestSampleBlockEdgeEndpointDistribution(t *testing.T) {
	// Block 0 has 3 edges to block 1 and 1 edge to block 2: endpoint
	// sampling from block 0 must be proportional to edge counts.
	g := graph.MustNew(6, []graph.Edge{
		{Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 1, Dst: 2}, // three edges into block 1 = {2,3}
		{Src: 0, Dst: 4}, // one edge into block 2 = {4,5}
	})
	bm, err := FromAssignment(g, []int32{0, 0, 1, 1, 2, 2}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	counts := map[int32]int{}
	const draws = 4000
	for i := 0; i < draws; i++ {
		s, _ := bm.sampleBlockEdgeEndpoint(0, r)
		counts[s]++
	}
	if counts[1] < 2*counts[2] {
		t.Fatalf("endpoint sampling not proportional: %v", counts)
	}
	if counts[0] != 0 {
		t.Fatalf("block 0 has no incident edges to itself, yet chosen %d times", counts[0])
	}
}

// referenceEndpoint is sampleBlockEdgeEndpoint's walk through RowNZ and
// ColNZ: the same Int63n draw, row t then column t in ascending order,
// and the same uniform fallback when the walk runs out.
func referenceEndpoint(bm *Blockmodel, t int, rn *rng.RNG) int32 {
	x := rn.Int63n(bm.DTot[t])
	chosen := int32(-1)
	walk := func(s int32, count int64) {
		switch {
		case chosen >= 0:
		case x < count:
			chosen = s
		default:
			x -= count
		}
	}
	if x < bm.DOut[t] {
		bm.M.RowNZ(t, walk)
	} else {
		x -= bm.DOut[t]
		bm.M.ColNZ(t, walk)
	}
	if chosen < 0 {
		return int32(rn.Intn(bm.C))
	}
	return chosen
}

// TestSampleBlockEdgeEndpointMatchesReference requires the sampler to
// return the reference walk's block, and to leave the RNG where the
// reference leaves it, for every block with incident edges over 40
// seeds, in dense storage (C = 8 and DenseThreshold) and sparse storage
// (C = DenseThreshold+1). A stale model, whose degrees claim endpoints
// that block 0's empty row or column lacks, must take the uniform
// fallback on both walks.
func TestSampleBlockEdgeEndpointMatchesReference(t *testing.T) {
	for _, c := range []int{8, sparse.DenseThreshold, sparse.DenseThreshold + 1} {
		r := rng.New(uint64(c))
		g := rebuildGraph(r, 2000, 8000)
		a := make([]int32, g.NumVertices())
		for v := range a {
			a[v] = int32(1 + r.Intn(c-1)) // block 0 stays empty
		}
		bm := mustFromAssignment(t, g, a, c)
		if bm.M.IsDense() != (c <= sparse.DenseThreshold) {
			t.Fatalf("C=%d: unexpected storage mode", c)
		}
		for seed := uint64(0); seed < 40; seed++ {
			got, want := rng.New(seed), rng.New(seed)
			for b := 0; b < c; b++ {
				if bm.DTot[b] == 0 {
					continue
				}
				s, _ := bm.sampleBlockEdgeEndpoint(b, got)
				if ref := referenceEndpoint(bm, b, want); s != ref {
					t.Fatalf("C=%d seed %d block %d: sampled %d, reference %d", c, seed, b, s, ref)
				}
			}
			if got.Uint64() != want.Uint64() {
				t.Fatalf("C=%d seed %d: the sampler consumed the RNG differently", c, seed)
			}
		}

		// Block 0 is empty. Degrees of 5 put every draw on its empty row
		// (out-degree) or its empty column (in-degree).
		for _, out := range []int64{5, 0} {
			stale := bm.Clone()
			stale.DOut[0], stale.DIn[0], stale.DTot[0] = out, 5-out, 5
			for seed := uint64(0); seed < 40; seed++ {
				replay := rng.New(seed)
				replay.Int63n(5)
				fallback := int32(replay.Intn(c))
				got, want := rng.New(seed), rng.New(seed)
				s, _ := stale.sampleBlockEdgeEndpoint(0, got)
				ref := referenceEndpoint(stale, 0, want)
				if s != fallback || ref != fallback || got.Uint64() != want.Uint64() {
					t.Fatalf("C=%d out-degree %d seed %d: sampled %d, reference %d, uniform fallback %d",
						c, out, seed, s, ref, fallback)
				}
			}
		}
	}
}
