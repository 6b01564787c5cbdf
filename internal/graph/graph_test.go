package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// triangle returns the directed triangle 0→1→2→0 plus a self-loop on 0.
func triangle(t *testing.T) *Graph {
	t.Helper()
	g, err := New(3, []Edge{{0, 1}, {1, 2}, {2, 0}, {0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewCounts(t *testing.T) {
	g := triangle(t)
	if g.NumVertices() != 3 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestDegrees(t *testing.T) {
	g := triangle(t)
	// Vertex 0: out {1, 0}, in {2, 0}.
	if g.OutDegree(0) != 2 || g.InDegree(0) != 2 || g.Degree(0) != 4 {
		t.Fatalf("v0 degrees out=%d in=%d tot=%d", g.OutDegree(0), g.InDegree(0), g.Degree(0))
	}
	if g.OutDegree(1) != 1 || g.InDegree(1) != 1 || g.Degree(1) != 2 {
		t.Fatalf("v1 degrees wrong")
	}
}

func TestNeighborsContent(t *testing.T) {
	g := triangle(t)
	out := g.OutNeighbors(0)
	found := map[int32]bool{}
	for _, u := range out {
		found[u] = true
	}
	if !found[1] || !found[0] || len(out) != 2 {
		t.Fatalf("out neighbors of 0: %v", out)
	}
	in := g.InNeighbors(2)
	if len(in) != 1 || in[0] != 1 {
		t.Fatalf("in neighbors of 2: %v", in)
	}
}

func TestNeighborIndexCoversBothDirections(t *testing.T) {
	g := triangle(t)
	// Degree(1) = 2: one out (2), one in (0).
	seen := map[int32]bool{}
	for i := 0; i < g.Degree(1); i++ {
		seen[g.Neighbor(1, i)] = true
	}
	if !seen[2] || !seen[0] {
		t.Fatalf("Neighbor(1, ·) = %v, want {0, 2}", seen)
	}
}

func TestParallelEdges(t *testing.T) {
	g, err := New(2, []Edge{{0, 1}, {0, 1}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.OutDegree(0) != 3 || g.InDegree(1) != 3 {
		t.Fatal("multi-edges not preserved")
	}
}

func TestNewRejectsOutOfRange(t *testing.T) {
	if _, err := New(2, []Edge{{0, 2}}); err == nil {
		t.Fatal("edge to vertex 2 in a 2-vertex graph accepted")
	}
	if _, err := New(2, []Edge{{-1, 0}}); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := New(-1, nil); err == nil {
		t.Fatal("negative vertex count accepted")
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := New(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph not empty")
	}
	if s := g.Stats(); s.Vertices != 0 || s.MeanDeg != 0 {
		t.Fatalf("empty stats: %+v", s)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	orig := []Edge{{0, 1}, {1, 2}, {2, 0}, {0, 0}, {0, 1}}
	g, err := New(3, orig)
	if err != nil {
		t.Fatal(err)
	}
	back := g.Edges()
	if len(back) != len(orig) {
		t.Fatalf("edge count %d != %d", len(back), len(orig))
	}
	count := map[Edge]int{}
	for _, e := range orig {
		count[e]++
	}
	for _, e := range back {
		count[e]--
	}
	for e, c := range count {
		if c != 0 {
			t.Fatalf("edge %v multiset mismatch (%+d)", e, c)
		}
	}
}

func TestVerticesByDegreeDesc(t *testing.T) {
	g, err := New(4, []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	order := g.VerticesByDegreeDesc()
	if order[0] != 0 {
		t.Fatalf("highest-degree vertex = %d, want 0", order[0])
	}
	for i := 1; i < len(order); i++ {
		if g.Degree(int(order[i-1])) < g.Degree(int(order[i])) {
			t.Fatalf("order not descending at %d", i)
		}
	}
}

func TestVerticesByDegreeDescDeterministicTies(t *testing.T) {
	g, err := New(4, []Edge{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	a := g.VerticesByDegreeDesc()
	b := g.VerticesByDegreeDesc()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tie-breaking not deterministic")
		}
	}
}

func TestStats(t *testing.T) {
	g := triangle(t)
	s := g.Stats()
	if s.SelfLoops != 1 {
		t.Fatalf("self-loops = %d", s.SelfLoops)
	}
	if s.MaxDegree != 4 {
		t.Fatalf("max degree = %d", s.MaxDegree)
	}
}

// TestCSRConsistency is a property test: for random multigraphs, every
// edge appears exactly once in the out-adjacency of its source and once
// in the in-adjacency of its destination.
func TestCSRConsistency(t *testing.T) {
	r := rng.New(99)
	if err := quick.Check(func(nRaw, eRaw uint8) bool {
		n := int(nRaw)%20 + 2
		ne := int(eRaw) % 100
		edges := make([]Edge, ne)
		for i := range edges {
			edges[i] = Edge{Src: int32(r.Intn(n)), Dst: int32(r.Intn(n))}
		}
		g, err := New(n, edges)
		if err != nil {
			return false
		}
		outTotal, inTotal := 0, 0
		for v := 0; v < n; v++ {
			outTotal += g.OutDegree(v)
			inTotal += g.InDegree(v)
		}
		return outTotal == ne && inTotal == ne
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad edge did not panic")
		}
	}()
	MustNew(1, []Edge{{0, 5}})
}
