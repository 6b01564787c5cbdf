package blockmodel

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

func TestHFunc(t *testing.T) {
	if hFunc(0) != 0 {
		t.Fatal("h(0) != 0")
	}
	if hFunc(-1) != 0 {
		t.Fatal("h(x<0) != 0")
	}
	// h(1) = 2 ln 2 − 0 = 2 ln 2.
	if got, want := hFunc(1), 2*math.Log(2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("h(1) = %v, want %v", got, want)
	}
	// h is increasing on x > 0.
	prev := 0.0
	for x := 0.1; x < 10; x += 0.1 {
		cur := hFunc(x)
		if cur <= prev {
			t.Fatalf("h not increasing at %v", x)
		}
		prev = cur
	}
}

func TestLogLikelihoodHandComputed(t *testing.T) {
	// Two vertices, one edge 0→1, blocks {0},{1}:
	// M = [[0,1],[0,0]], dOut = [1,0], dIn = [0,1].
	// L = 1·ln(1/(1·1)) = 0.
	g := graph.MustNew(2, []graph.Edge{{Src: 0, Dst: 1}})
	bm, err := FromAssignment(g, []int32{0, 1}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l := bm.LogLikelihood(); math.Abs(l) > 1e-12 {
		t.Fatalf("L = %v, want 0", l)
	}
}

func TestLogLikelihoodSingleBlock(t *testing.T) {
	// E edges all in one block: L = E·ln(E/E²) = −E·ln E.
	g := graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 0, Dst: 2}})
	bm, err := FromAssignment(g, []int32{0, 0, 0}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := -4 * math.Log(4)
	if l := bm.LogLikelihood(); math.Abs(l-want) > 1e-12 {
		t.Fatalf("L = %v, want %v", l, want)
	}
}

func TestMDLMatchesClosedForm(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 0, Dst: 2}})
	bm, err := FromAssignment(g, []int32{0, 0, 0}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := 4.0
	want := e*hFunc(1/e) + 3*math.Log(1) + e*math.Log(e)
	if got := bm.MDL(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MDL = %v, want %v", got, want)
	}
	// This is exactly the null description length.
	if null := NullDescriptionLength(3, 4); math.Abs(bm.MDL()-null) > 1e-12 {
		t.Fatalf("single-block MDL %v != null MDL %v", bm.MDL(), null)
	}
	if norm := bm.NormalizedMDL(); math.Abs(norm-1) > 1e-12 {
		t.Fatalf("single-block normalized MDL = %v, want 1", norm)
	}
}

func TestMDLUsesNonEmptyBlockCount(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}})
	one, err := FromAssignment(g, []int32{0, 0, 0}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	padded, err := FromAssignment(g, []int32{0, 0, 0}, 5, 1) // 4 empty blocks
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(one.MDL()-padded.MDL()) > 1e-12 {
		t.Fatalf("empty blocks changed MDL: %v vs %v", one.MDL(), padded.MDL())
	}
}

func TestStructuredBeatsNull(t *testing.T) {
	// Two dense communities with a single bridge: the planted partition
	// must have a lower description length than the null model.
	var edges []graph.Edge
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j {
				edges = append(edges, graph.Edge{Src: int32(i), Dst: int32(j)})
				edges = append(edges, graph.Edge{Src: int32(i + 5), Dst: int32(j + 5)})
			}
		}
	}
	edges = append(edges, graph.Edge{Src: 0, Dst: 5})
	g := graph.MustNew(10, edges)
	assign := make([]int32, 10)
	for v := 5; v < 10; v++ {
		assign[v] = 1
	}
	bm, err := FromAssignment(g, assign, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if norm := bm.NormalizedMDL(); norm >= 1 {
		t.Fatalf("planted partition normalized MDL = %v, want < 1", norm)
	}
}

func TestNullDescriptionLengthEdgeCases(t *testing.T) {
	if NullDescriptionLength(10, 0) != 0 {
		t.Fatal("edgeless null MDL != 0")
	}
	if NullDescriptionLength(10, 100) <= 0 {
		t.Fatal("null MDL not positive")
	}
}

func TestNormalizedMDLComparableAcrossSizes(t *testing.T) {
	// The same relative structure at two sizes should land in a similar
	// normalized band (the reason the paper introduces MDL_norm).
	r := rng.New(3)
	norm := func(n int) float64 {
		var edges []graph.Edge
		half := n / 2
		for k := 0; k < 8*n; k++ {
			c := r.Intn(2)
			lo, hi := 0, half
			if c == 1 {
				lo, hi = half, n
			}
			edges = append(edges, graph.Edge{
				Src: int32(lo + r.Intn(hi-lo)),
				Dst: int32(lo + r.Intn(hi-lo)),
			})
		}
		g := graph.MustNew(n, edges)
		assign := make([]int32, n)
		for v := half; v < n; v++ {
			assign[v] = 1
		}
		bm, err := FromAssignment(g, assign, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		return bm.NormalizedMDL()
	}
	small, large := norm(40), norm(400)
	if math.Abs(small-large) > 0.15 {
		t.Fatalf("normalized MDL not comparable: %v (V=40) vs %v (V=400)", small, large)
	}
}

// referenceLogLikelihood is the direct form of Eq. 1 that LogLikelihood
// replaced, Σ m·ln(m/(d_out·d_in)) over the nonzero cells in row-major
// order, kept as the reference for the x·ln x split.
func referenceLogLikelihood(bm *Blockmodel) float64 {
	var l float64
	for r := 0; r < bm.C; r++ {
		dr := float64(bm.DOut[r])
		if dr == 0 {
			continue
		}
		bm.M.RowNZ(r, func(s int32, count int64) {
			ds := float64(bm.DIn[s])
			m := float64(count)
			l += m * math.Log(m/(dr*ds))
		})
	}
	return l
}

// heavyGraph is referenceGraph plus one edge repeated 5,000 times and
// one self-loop repeated 4,500 times, so that at every block count some
// cell and some block degree reach past xlogxTable into xlogx's
// math.Log fallback.
func heavyGraph(rr *rng.RNG, n, e, leaves, isolated int) *graph.Graph {
	g := referenceGraph(rr, n, e, leaves, isolated)
	edges := g.Edges()
	for i := 0; i < 5000; i++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: 1})
	}
	for i := 0; i < 4500; i++ {
		edges = append(edges, graph.Edge{Src: 2, Dst: 2})
	}
	return graph.MustNew(g.NumVertices(), edges)
}

// TestLogLikelihoodMatchesReference requires the x·ln x split to agree
// with the direct formula within 1e-12 relative on random states, in
// dense (C = 1, 3, 16, 256) and sparse (C = 257, 900) storage. The
// states leave some blocks empty, give the isolated vertices a block of
// their own (a zero-degree block), and the graph has self-loops,
// multi-edges, and cells and block degrees of 4096 or more. The test
// fails if one of those cases was never reached.
func TestLogLikelihoodMatchesReference(t *testing.T) {
	const n, leaves, isolated, states = 400, 40, 20, 12
	var seen struct{ empty, zeroDegree, bigCell, bigDegree int }
	for _, c := range []int{1, 3, 16, sparse.DenseThreshold, sparse.DenseThreshold + 1, 900} {
		rr := rng.New(uint64(2000 + c))
		g := heavyGraph(rr, n, 20000, leaves, isolated)
		for k := 0; k < states; k++ {
			// Draw every block from a random subset, leaving the rest
			// empty; with two or more in the subset, its last block
			// holds only the isolated vertices, so its degree is zero.
			blocks := max(1, c-c/4)
			used := rr.Perm(c)[:blocks]
			assign := make([]int32, g.NumVertices())
			pool := blocks
			if blocks > 1 {
				pool--
			}
			for v := range assign {
				assign[v] = int32(used[rr.Intn(pool)])
			}
			for v := n + leaves; v < len(assign); v++ {
				assign[v] = int32(used[blocks-1])
			}
			bm := mustFromAssignment(t, g, assign, c)
			if bm.M.IsDense() != (c <= sparse.DenseThreshold) {
				t.Fatalf("C=%d: unexpected storage mode", c)
			}
			got, want := bm.LogLikelihood(), referenceLogLikelihood(bm)
			if math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Fatalf("C=%d state %d: L = %.17g, reference %.17g (relative error %.3g)",
					c, k, got, want, math.Abs(got-want)/math.Abs(want))
			}
			for r := 0; r < c; r++ {
				switch {
				case bm.Sizes[r] == 0:
					seen.empty++
				case bm.DOut[r]+bm.DIn[r] == 0:
					seen.zeroDegree++
				}
				if bm.DOut[r] >= int64(len(xlogxTable)) || bm.DIn[r] >= int64(len(xlogxTable)) {
					seen.bigDegree++
				}
				bm.M.RowNZ(r, func(_ int32, m int64) {
					if m >= int64(len(xlogxTable)) {
						seen.bigCell++
					}
				})
			}
		}
	}
	for name, k := range map[string]int{
		"empty block":         seen.empty,
		"zero-degree block":   seen.zeroDegree,
		"cell ≥ 4096":         seen.bigCell,
		"block degree ≥ 4096": seen.bigDegree,
	} {
		if k == 0 {
			t.Errorf("case %q never reached", name)
		}
	}
}

// TestMDLBitsSameAcrossStorage stores one state densely at C =
// DenseThreshold and sparsely at DenseThreshold+1, whose extra block
// stays empty, and requires the same MDL bits from both.
func TestMDLBitsSameAcrossStorage(t *testing.T) {
	rr := rng.New(31)
	g := heavyGraph(rr, 500, 4000, 40, 10)
	assign := make([]int32, g.NumVertices())
	for v := range assign {
		assign[v] = int32(rr.Intn(sparse.DenseThreshold))
	}
	dense := mustFromAssignment(t, g, assign, sparse.DenseThreshold)
	sp := mustFromAssignment(t, g, assign, sparse.DenseThreshold+1)
	if !dense.M.IsDense() || sp.M.IsDense() {
		t.Fatal("unexpected storage modes")
	}
	if a, b := dense.MDL(), sp.MDL(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("MDL dense %.17g, sparse %.17g", a, b)
	}
}

// TestMDLBitsSurviveCompact requires Compact to leave the MDL bits
// unchanged on models whose first, a middle and last block are empty:
// one dense, and one sparse that compacts into dense storage.
func TestMDLBitsSurviveCompact(t *testing.T) {
	rr := rng.New(37)
	g := heavyGraph(rr, 500, 4000, 40, 10)
	for _, c := range []int{12, 300} {
		empty := map[int]bool{0: true, c / 2: true, c - 1: true}
		for r := c / 3; len(empty) < c/5; r++ {
			empty[r] = true
		}
		var used []int32
		for r := 0; r < c; r++ {
			if !empty[r] {
				used = append(used, int32(r))
			}
		}
		assign := make([]int32, g.NumVertices())
		for v := range assign {
			assign[v] = used[rr.Intn(len(used))]
		}
		for i, r := range used { // every used block gets a vertex
			assign[i] = r
		}
		bm := mustFromAssignment(t, g, assign, c)
		before := bm.MDL()
		bm.Compact()
		if bm.C != len(used) {
			t.Fatalf("C=%d: Compact kept %d blocks, want %d", c, bm.C, len(used))
		}
		if after := bm.MDL(); math.Float64bits(after) != math.Float64bits(before) {
			t.Fatalf("C=%d: MDL %.17g before Compact, %.17g after", c, before, after)
		}
	}
}
