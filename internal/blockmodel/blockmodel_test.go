package blockmodel

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// fixture returns a small directed graph with two obvious communities
// {0,1,2} and {3,4,5}, plus a self-loop and a bridge edge.
func fixture(t *testing.T) (*graph.Graph, []int32) {
	t.Helper()
	edges := []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 1, Dst: 0},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 5}, {Src: 5, Dst: 3}, {Src: 4, Dst: 3},
		{Src: 2, Dst: 3}, // bridge
		{Src: 0, Dst: 0}, // self-loop
	}
	g, err := graph.New(6, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, []int32{0, 0, 0, 1, 1, 1}
}

// randomGraph generates a random multigraph and assignment for property
// tests.
func randomGraph(r *rng.RNG, n, e, c int) (*graph.Graph, []int32) {
	edges := make([]graph.Edge, e)
	for i := range edges {
		edges[i] = graph.Edge{Src: int32(r.Intn(n)), Dst: int32(r.Intn(n))}
	}
	assignment := make([]int32, n)
	for v := range assignment {
		assignment[v] = int32(r.Intn(c))
	}
	return graph.MustNew(n, edges), assignment
}

func TestFromAssignmentCounts(t *testing.T) {
	g, assign := fixture(t)
	bm, err := FromAssignment(g, assign, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Within block 0: (0,1),(1,2),(2,0),(1,0),(0,0) = 5 edges.
	if got := bm.M.Get(0, 0); got != 5 {
		t.Fatalf("M[0][0] = %d, want 5", got)
	}
	if got := bm.M.Get(0, 1); got != 1 {
		t.Fatalf("M[0][1] = %d, want 1 (bridge)", got)
	}
	if got := bm.M.Get(1, 0); got != 0 {
		t.Fatalf("M[1][0] = %d, want 0", got)
	}
	if got := bm.M.Get(1, 1); got != 4 {
		t.Fatalf("M[1][1] = %d, want 4", got)
	}
	if bm.DOut[0] != 6 || bm.DIn[0] != 5 {
		t.Fatalf("block 0 degrees: out=%d in=%d", bm.DOut[0], bm.DIn[0])
	}
	if bm.Sizes[0] != 3 || bm.Sizes[1] != 3 {
		t.Fatalf("sizes: %v", bm.Sizes)
	}
	if err := bm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromAssignmentRejectsBad(t *testing.T) {
	g, assign := fixture(t)
	if _, err := FromAssignment(g, assign[:3], 2, 1); err == nil {
		t.Fatal("short assignment accepted")
	}
	bad := append([]int32(nil), assign...)
	bad[0] = 7
	if _, err := FromAssignment(g, bad, 2, 1); err == nil {
		t.Fatal("out-of-range block accepted")
	}
}

func TestIdentity(t *testing.T) {
	g, _ := fixture(t)
	bm := Identity(g)
	if bm.C != g.NumVertices() {
		t.Fatalf("identity C = %d", bm.C)
	}
	for v, b := range bm.Assignment {
		if int(b) != v {
			t.Fatalf("vertex %d in block %d", v, b)
		}
	}
	if err := bm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRebuildFrom(t *testing.T) {
	g, assign := fixture(t)
	bm, err := FromAssignment(g, assign, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	next := []int32{0, 0, 1, 1, 1, 0} // scramble
	bm.RebuildFrom(next, 2)
	if err := bm.Validate(); err != nil {
		t.Fatal(err)
	}
	if bm.Sizes[0] != 3 || bm.Sizes[1] != 3 {
		t.Fatalf("sizes after rebuild: %v", bm.Sizes)
	}
}

// rebuildGraph is a random multigraph on n vertices with e random edges,
// self-loops on every tenth vertex, and the pair 0⇄1 that the moved
// sets below always include, so some edges have both endpoints moved.
func rebuildGraph(r *rng.RNG, n, e int) *graph.Graph {
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 0, Dst: 0}}
	for v := 0; v < n; v += 10 {
		edges = append(edges, graph.Edge{Src: int32(v), Dst: int32(v)})
	}
	for i := 0; i < e; i++ {
		edges = append(edges, graph.Edge{Src: int32(r.Intn(n)), Dst: int32(r.Intn(n))})
	}
	return graph.MustNew(n, edges)
}

// moveFraction returns a copy of base with round(f·n) vertices moved to
// another block: vertices 0 and 1 first, then others in random order.
func moveFraction(r *rng.RNG, base []int32, c int, f float64) []int32 {
	out := append([]int32(nil), base...)
	k := int(math.Round(f * float64(len(base))))
	if f > 0 {
		k = max(k, 2)
	}
	order := []int{0, 1}
	for _, v := range r.Perm(len(base)) {
		if v > 1 {
			order = append(order, v)
		}
	}
	for _, v := range order[:k] {
		out[v] = int32((int(base[v]) + 1 + r.Intn(c-1)) % c)
	}
	return out
}

// rebuildMustMatch rebuilds bm from membership and requires the exact
// state a fresh FromAssignment gives, MDL bits included.
func rebuildMustMatch(t *testing.T, bm *Blockmodel, membership []int32, what string) (recounted bool) {
	t.Helper()
	recounted = bm.RebuildFrom(membership, 2)
	want, err := FromAssignment(bm.G, membership, bm.C, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bm.M.Equal(want.M) {
		t.Fatalf("%s: M differs from a recount", what)
	}
	for _, p := range []struct {
		name      string
		got, want []int64
	}{{"DOut", bm.DOut, want.DOut}, {"DIn", bm.DIn, want.DIn}, {"DTot", bm.DTot, want.DTot}} {
		if !slices.Equal(p.got, p.want) {
			t.Fatalf("%s: %s = %v, want %v", what, p.name, p.got, p.want)
		}
	}
	if !slices.Equal(bm.Sizes, want.Sizes) || !slices.Equal(bm.Assignment, want.Assignment) {
		t.Fatalf("%s: sizes or assignment differ from a recount", what)
	}
	if got, w := math.Float64bits(bm.MDL()), math.Float64bits(want.MDL()); got != w {
		t.Fatalf("%s: MDL bits %x, want %x", what, got, w)
	}
	return recounted
}

// TestRebuildFromMatchesRecount pins the incremental rebuild to the
// recount on both sides of recountShare, in both storage modes.
func TestRebuildFromMatchesRecount(t *testing.T) {
	for _, c := range []int{8, 300} {
		r := rng.New(uint64(c))
		g := rebuildGraph(r, 600, 2400)
		base := make([]int32, g.NumVertices())
		for v := range base {
			base[v] = int32(r.Intn(c))
		}
		for _, f := range []float64{0, 0.01, 0.10, 0.30, 0.60, 1} {
			bm, err := FromAssignment(g, base, c, 1)
			if err != nil {
				t.Fatal(err)
			}
			if bm.M.IsDense() != (c <= sparse.DenseThreshold) {
				t.Fatalf("C=%d: unexpected storage mode", c)
			}
			what := fmt.Sprintf("C=%d moved=%v", c, f)
			recounted := rebuildMustMatch(t, bm, moveFraction(r, base, c, f), what)
			if (f <= 0.01 && recounted) || (f == 1 && !recounted) {
				t.Fatalf("%s: recounted=%v, want the other path", what, recounted)
			}
			// Chain a second rebuild from the moved state.
			rebuildMustMatch(t, bm, moveFraction(r, bm.Assignment, c, f), what+" chained")
		}

		// Empty block 0 into block 1, then refill it with a few vertices.
		bm, _ := FromAssignment(g, base, c, 1)
		emptied := append([]int32(nil), base...)
		for v, b := range emptied {
			if b == 0 {
				emptied[v] = 1
			}
		}
		rebuildMustMatch(t, bm, emptied, fmt.Sprintf("C=%d empty block 0", c))
		if bm.Sizes[0] != 0 {
			t.Fatalf("C=%d: block 0 holds %d vertices after emptying", c, bm.Sizes[0])
		}
		refilled := append([]int32(nil), emptied...)
		refilled[0], refilled[1], refilled[5] = 0, 0, 0
		rebuildMustMatch(t, bm, refilled, fmt.Sprintf("C=%d refill block 0", c))
	}
}

// TestRelabelMatchesRebuildThenCompact checks the merge phase's one
// recount against the two-step rebuild-then-compact it replaces.
func TestRelabelMatchesRebuildThenCompact(t *testing.T) {
	for _, c := range []int{12, 400} {
		r := rng.New(uint64(c))
		g, assign := randomGraph(r, 800, 3000, c)
		to := make([]int32, c)
		for b := range to {
			to[b] = int32(b)
			if r.Intn(3) == 0 {
				to[b] = int32(r.Intn(c))
			}
		}
		want, _ := FromAssignment(g, assign, c, 1)
		membership := make([]int32, len(assign))
		for v, b := range assign {
			membership[v] = to[b]
		}
		want.RebuildFrom(membership, 1)
		want.Compact()

		got, _ := FromAssignment(g, assign, c, 1)
		got.Relabel(to)
		if got.C != want.C || !slices.Equal(got.Assignment, want.Assignment) || !got.M.Equal(want.M) ||
			!slices.Equal(got.Sizes, want.Sizes) || !slices.Equal(got.DTot, want.DTot) {
			t.Fatalf("C=%d: Relabel state differs from rebuild-then-compact (C %d vs %d)", c, got.C, want.C)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g, assign := fixture(t)
	bm, _ := FromAssignment(g, assign, 2, 1)
	cp := bm.Clone()
	cp.Assignment[0] = 1
	cp.M.Add(0, 0, 5)
	cp.DOut[0] += 3
	if bm.Assignment[0] != 0 || bm.M.Get(0, 0) != 5 || bm.DOut[0] != 6 {
		t.Fatal("clone aliases original")
	}
	if err := bm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompact(t *testing.T) {
	g, _ := fixture(t)
	// Blocks 0 and 2 used; block 1 empty.
	bm, err := FromAssignment(g, []int32{0, 0, 0, 2, 2, 2}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	remap := bm.Compact()
	if bm.C != 2 {
		t.Fatalf("C after compact = %d", bm.C)
	}
	if remap[0] != 0 || remap[1] != -1 || remap[2] != 1 {
		t.Fatalf("remap = %v", remap)
	}
	if err := bm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactNoopWhenFull(t *testing.T) {
	g, assign := fixture(t)
	bm, _ := FromAssignment(g, assign, 2, 1)
	before := bm.M.Clone()
	bm.Compact()
	if bm.C != 2 || !bm.M.Equal(before) {
		t.Fatal("compact changed an already-compact model")
	}
}

func TestNumNonEmptyBlocks(t *testing.T) {
	g, _ := fixture(t)
	bm, _ := FromAssignment(g, []int32{0, 0, 0, 3, 3, 3}, 4, 1)
	if got := bm.NumNonEmptyBlocks(); got != 2 {
		t.Fatalf("non-empty = %d, want 2", got)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g, assign := fixture(t)
	bm, _ := FromAssignment(g, assign, 2, 1)
	bm.M.Add(0, 1, 1) // corrupt the matrix
	if bm.Validate() == nil {
		t.Fatal("corrupted matrix passed validation")
	}

	bm, _ = FromAssignment(g, assign, 2, 1)
	bm.DOut[0]++ // corrupt a degree
	if bm.Validate() == nil {
		t.Fatal("corrupted degree passed validation")
	}

	bm, _ = FromAssignment(g, assign, 2, 1)
	bm.Sizes[1]-- // corrupt a size
	if bm.Validate() == nil {
		t.Fatal("corrupted size passed validation")
	}
}
