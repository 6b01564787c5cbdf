// Package benchmark is the workload-matrix benchmark subsystem behind
// the repo's committed performance trajectory (BENCH_<host-class>.json).
//
// A benchmark run crosses named workloads (proposal point-eval, full
// engine sweeps, merge-phase scan, checkpoint write, sparse-row walk)
// with named graph shapes (a Table-1 synthetic, a power-law
// hub-dominated graph, a near-bipartite graph) and reports avg/p50/p95
// ns/op plus allocs/op per cell. Results append to a schema-versioned
// JSON trajectory at the repo root; cmd/bench's -compare mode diffs two
// trajectories and fails on p50 regressions beyond a tolerance, which
// is what CI enforces (scripts/bench_smoke.sh).
//
// Everything a workload measures is seeded and deterministic: two runs
// on the same binary do identical work, so timing deltas between
// entries are attributable to code changes, not input drift.
package benchmark

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// ShapeData is one realized benchmark graph plus the two blockmodel
// states the workloads evaluate against: the planted community
// structure (small C, dense block matrix — the late-iteration regime)
// and a pair-grouping assignment (C = V/2 but above
// sparse.DenseThreshold, sparse block matrix — the iteration-1 regime
// where the paper's MCMC bottleneck lives).
type ShapeData struct {
	Name   string
	G      *graph.Graph
	Truth  []int32 // planted assignment, blocks [0, TruthC)
	TruthC int

	SparseAssign []int32 // pair grouping, blocks [0, SparseC)
	SparseC      int
}

// Shape names one graph shape of the matrix and builds it at a given
// vertex budget.
type Shape struct {
	Name  string
	Build func(vertices int) (*ShapeData, error)
}

// pairGrouping assigns consecutive vertex pairs to one block each,
// yielding the many-blocks sparse-matrix regime. The block count is at
// least sparse.DenseThreshold+1, with the trailing blocks left empty, so
// that the block matrix stays in sparse storage at small vertex counts
// (at the 1,024-vertex smoke size, (n+1)/2 would be DenseThreshold).
func pairGrouping(n int) ([]int32, int) {
	a := make([]int32, n)
	for v := range a {
		a[v] = int32(v / 2)
	}
	return a, max((n+1)/2, sparse.DenseThreshold+1)
}

// Shapes returns the benchmark graph shapes, in canonical order.
func Shapes() []Shape {
	return []Shape{
		{Name: "table1-s5", Build: buildTable1},
		{Name: "powerlaw-hub", Build: buildPowerLawHub},
		{Name: "near-bipartite", Build: buildNearBipartite},
	}
}

// buildTable1 realizes Table-1 graph S5 (the structured synthetic used
// throughout the repo's figures) scaled to about the requested vertex
// count.
func buildTable1(vertices int) (*ShapeData, error) {
	spec, err := gen.TableOneSpec(5, float64(vertices)/200000)
	if err != nil {
		return nil, err
	}
	g, truth, err := gen.Generate(spec)
	if err != nil {
		return nil, err
	}
	return finishShape("table1-s5", g, truth)
}

// buildPowerLawHub realizes a hub-dominated power-law graph: a shallow
// degree exponent and a max degree a quarter of the vertex count put a
// heavy head on the degree distribution, the load-balance worst case.
func buildPowerLawHub(vertices int) (*ShapeData, error) {
	g, truth, err := gen.Generate(gen.Spec{
		Name:        "plaw-hub",
		Vertices:    vertices,
		Communities: 8,
		MinDegree:   1,
		MaxDegree:   vertices / 4,
		Exponent:    1.8,
		Ratio:       4,
		Seed:        41,
	})
	if err != nil {
		return nil, err
	}
	return finishShape("powerlaw-hub", g, truth)
}

// buildNearBipartite builds a two-community graph whose edges run
// overwhelmingly between the communities — the assortative-structure
// worst case for the diagonal-seeking proposal distribution, and a
// block matrix whose mass sits off-diagonal.
func buildNearBipartite(vertices int) (*ShapeData, error) {
	if vertices < 4 {
		return nil, fmt.Errorf("benchmark: near-bipartite needs >= 4 vertices, got %d", vertices)
	}
	rn := rng.New(97)
	half := vertices / 2
	edges := make([]graph.Edge, 0, vertices*3)
	truth := make([]int32, vertices)
	for v := 0; v < vertices; v++ {
		side := 0
		if v >= half {
			side = 1
			truth[v] = 1
		}
		deg := 2 + rn.Intn(3)
		for i := 0; i < deg; i++ {
			var dst int
			if rn.Float64() < 0.9 { // cross edge
				if side == 0 {
					dst = half + rn.Intn(vertices-half)
				} else {
					dst = rn.Intn(half)
				}
			} else { // rare within-side edge
				if side == 0 {
					dst = rn.Intn(half)
				} else {
					dst = half + rn.Intn(vertices-half)
				}
			}
			edges = append(edges, graph.Edge{Src: int32(v), Dst: int32(dst)})
		}
	}
	g, err := graph.New(vertices, edges)
	if err != nil {
		return nil, err
	}
	return finishShape("near-bipartite", g, truth)
}

func finishShape(name string, g *graph.Graph, truth []int32) (*ShapeData, error) {
	c := int32(0)
	for _, t := range truth {
		if t >= c {
			c = t + 1
		}
	}
	sd := &ShapeData{Name: name, G: g, Truth: truth, TruthC: int(c)}
	sd.SparseAssign, sd.SparseC = pairGrouping(g.NumVertices())
	return sd, nil
}
