// Package graph provides the directed multigraph representation used by
// stochastic block partitioning: compressed adjacency in both directions,
// degree queries, and loaders/writers for common edge-list formats
// (whitespace TSV and MatrixMarket, the SuiteSparse interchange format).
//
// SBP needs, per vertex, fast iteration over both out- and in-edges (the
// DCSBM is directed) and the total degree for hybrid vertex ordering, so
// the Graph stores two CSR-style adjacency structures built once at
// construction.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Edge is a directed edge from Src to Dst. SBP treats graphs as
// unweighted multigraphs; parallel edges are allowed and self-loops are
// permitted (they contribute to the diagonal of the blockmodel).
type Edge struct {
	Src, Dst int32
}

// Graph is an immutable directed multigraph over vertices [0, N).
type Graph struct {
	n int // number of vertices

	// CSR out-adjacency: neighbors of v are outAdj[outIdx[v]:outIdx[v+1]].
	outIdx []int32
	outAdj []int32
	// CSR in-adjacency.
	inIdx []int32
	inAdj []int32

	degree []int32 // total degree (out + in), used for hybrid ordering
}

// New builds a Graph with n vertices from the given edge list.
// Edges referencing vertices outside [0, n) cause an error.
func New(n int, edges []Edge) (*Graph, error) {
	if n < 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: vertex count %d outside the int32 id range", n)
	}
	g := &Graph{
		n:      n,
		outIdx: make([]int32, n+1),
		inIdx:  make([]int32, n+1),
		outAdj: make([]int32, len(edges)),
		inAdj:  make([]int32, len(edges)),
		degree: make([]int32, n),
	}
	// Count pass.
	for _, e := range edges {
		if e.Src < 0 || int(e.Src) >= n || e.Dst < 0 || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.Src, e.Dst, n)
		}
		g.outIdx[e.Src+1]++
		g.inIdx[e.Dst+1]++
	}
	for v := 0; v < n; v++ {
		g.outIdx[v+1] += g.outIdx[v]
		g.inIdx[v+1] += g.inIdx[v]
	}
	// Fill pass (reuse cursor arrays).
	outCur := make([]int32, n)
	inCur := make([]int32, n)
	for _, e := range edges {
		g.outAdj[g.outIdx[e.Src]+outCur[e.Src]] = e.Dst
		outCur[e.Src]++
		g.inAdj[g.inIdx[e.Dst]+inCur[e.Dst]] = e.Src
		inCur[e.Dst]++
	}
	for v := 0; v < n; v++ {
		g.degree[v] = (g.outIdx[v+1] - g.outIdx[v]) + (g.inIdx[v+1] - g.inIdx[v])
	}
	return g, nil
}

// MustNew is New but panics on error; intended for tests and generators
// whose edges are constructed in-range.
func MustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of directed edges (counting multiplicity).
func (g *Graph) NumEdges() int { return len(g.outAdj) }

// OutNeighbors returns the out-neighbour list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(v int) []int32 {
	return g.outAdj[g.outIdx[v]:g.outIdx[v+1]]
}

// InNeighbors returns the in-neighbour list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) InNeighbors(v int) []int32 {
	return g.inAdj[g.inIdx[v]:g.inIdx[v+1]]
}

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v int) int { return int(g.outIdx[v+1] - g.outIdx[v]) }

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v int) int { return int(g.inIdx[v+1] - g.inIdx[v]) }

// Degree returns the total degree (in + out) of v.
func (g *Graph) Degree(v int) int { return int(g.degree[v]) }

// Neighbor returns the endpoint of the i-th incident edge of v, counting
// out-edges first then in-edges, with i in [0, Degree(v)). This gives
// uniform sampling over incident edges without materialising a combined
// list.
func (g *Graph) Neighbor(v, i int) int32 {
	od := int(g.outIdx[v+1] - g.outIdx[v])
	if i < od {
		return g.outAdj[g.outIdx[v]+int32(i)]
	}
	return g.inAdj[g.inIdx[v]+int32(i-od)]
}

// Edges reconstructs the edge list (src-major order).
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, len(g.outAdj))
	for v := 0; v < g.n; v++ {
		for _, u := range g.OutNeighbors(v) {
			edges = append(edges, Edge{Src: int32(v), Dst: u})
		}
	}
	return edges
}

// VerticesByDegreeDesc returns all vertex ids sorted by total degree,
// highest first. Ties break by vertex id for determinism. This ordering
// selects the synchronous set V* in H-SBP.
func (g *Graph) VerticesByDegreeDesc() []int32 {
	order := make([]int32, g.n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := g.degree[order[a]], g.degree[order[b]]
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	return order
}

// Stats summarises a graph for reporting.
type Stats struct {
	Vertices  int
	Edges     int
	MaxDegree int
	MeanDeg   float64
	SelfLoops int
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	s := Stats{Vertices: g.n, Edges: g.NumEdges()}
	for v := 0; v < g.n; v++ {
		if d := g.Degree(v); d > s.MaxDegree {
			s.MaxDegree = d
		}
		for _, u := range g.OutNeighbors(v) {
			if int(u) == v {
				s.SelfLoops++
			}
		}
	}
	if g.n > 0 {
		s.MeanDeg = float64(2*g.NumEdges()) / float64(g.n)
	}
	return s
}
