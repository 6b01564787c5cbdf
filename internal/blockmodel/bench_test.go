package blockmodel

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// benchModel builds a structured model at the requested block count.
func benchModel(b testing.TB, v, c int) (*Blockmodel, *rng.RNG) {
	b.Helper()
	g, truth, err := gen.Generate(gen.Spec{
		Name: "bench", Vertices: v, Communities: c, MinDegree: 5, MaxDegree: 50,
		Exponent: 2.5, Ratio: 4, SizeSkew: 0.3, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	bm, err := FromAssignment(g, truth, c, 1)
	if err != nil {
		b.Fatal(err)
	}
	return bm, rng.New(2)
}

// boundaryModel returns one state at c = DenseThreshold (dense storage)
// or DenseThreshold+1 (sparse storage, the last block empty): a uniform
// random partition of a 2,900-vertex planted graph into DenseThreshold
// blocks, with about 10% of the cells nonzero, the fill of a search's
// middle phases.
func boundaryModel(b testing.TB, c int) (*Blockmodel, *rng.RNG) {
	b.Helper()
	planted, r := benchModel(b, 2900, 32)
	a := make([]int32, planted.G.NumVertices())
	for i := range a {
		a[i] = int32(r.Intn(sparse.DenseThreshold))
	}
	bm, err := FromAssignment(planted.G, a, c, 1)
	if err != nil {
		b.Fatal(err)
	}
	return bm, r
}

// earlyModel returns a uniform random partition of g into V/2 blocks,
// the shape of an early search iteration, in sparse storage.
func earlyModel(b *testing.B, g *graph.Graph, r *rng.RNG) *Blockmodel {
	b.Helper()
	c := g.NumVertices() / 2
	a := make([]int32, g.NumVertices())
	for i := range a {
		a[i] = int32(r.Intn(c))
	}
	bm, err := FromAssignment(g, a, c, 1)
	if err != nil {
		b.Fatal(err)
	}
	return bm
}

// storageName is the case name of a model: its storage mode and C.
func storageName(bm *Blockmodel) string {
	if bm.M.IsDense() {
		return fmt.Sprintf("dense/C=%d", bm.C)
	}
	return fmt.Sprintf("sparse/C=%d", bm.C)
}

func BenchmarkEvalMove(b *testing.B) {
	for _, c := range []int{8, 64, 512} {
		b.Run("C="+strconv.Itoa(c), func(b *testing.B) {
			bm, r := benchModel(b, 2000, c)
			sc := NewScratch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := r.Intn(2000)
				s := int32(r.Intn(c))
				_ = bm.EvalMove(v, s, bm.Assignment, sc)
			}
		})
	}
}

// BenchmarkEvalMoveWithHastings times a move's ΔS and Hastings
// correction on random vertices and targets: a planted graph in dense
// storage (C = 32), boundaryModel's state on both sides of
// DenseThreshold, and the degree-1 vertices of the powerlaw-hub shape
// (about 8% of its vertices) in both modes.
func BenchmarkEvalMoveWithHastings(b *testing.B) {
	for _, bc := range []struct {
		c      int
		model  func(b testing.TB, c int) (*Blockmodel, *rng.RNG)
		leaves bool
	}{
		{32, planted2000, false},
		{sparse.DenseThreshold, boundaryModel, false},
		{sparse.DenseThreshold + 1, boundaryModel, false},
		{8, hub2000, true},
		{sparse.DenseThreshold + 1, hub2000, true},
	} {
		bm, r := bc.model(b, bc.c)
		name := storageName(bm)
		if bc.leaves {
			name = "leaves/" + name
		}
		b.Run(name, func(b *testing.B) {
			var vs []int
			for v := 0; v < bm.G.NumVertices(); v++ {
				if !bc.leaves || bm.G.Degree(v) == 1 {
					vs = append(vs, v)
				}
			}
			sc := NewScratch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := vs[r.Intn(len(vs))]
				s := int32(r.Intn(bc.c))
				md := bm.EvalMove(v, s, bm.Assignment, sc)
				_ = bm.HastingsCorrection(&md)
			}
		})
	}
}

func planted2000(b testing.TB, c int) (*Blockmodel, *rng.RNG) { return benchModel(b, 2000, c) }
func hub2000(b testing.TB, c int) (*Blockmodel, *rng.RNG)     { return hubModel(b, 2000, c) }

// hubModel builds the powerlaw-hub benchmark shape (a shallow degree
// exponent, minimum degree 1 and hubs up to a quarter of the vertex
// count) planted at c blocks.
func hubModel(b testing.TB, v, c int) (*Blockmodel, *rng.RNG) {
	b.Helper()
	g, truth, err := gen.Generate(gen.Spec{
		Name: "plaw-hub", Vertices: v, Communities: c, MinDegree: 1, MaxDegree: v / 4,
		Exponent: 1.8, Ratio: 4, Seed: 41,
	})
	if err != nil {
		b.Fatal(err)
	}
	bm, err := FromAssignment(g, truth, c, 1)
	if err != nil {
		b.Fatal(err)
	}
	return bm, rng.New(2)
}

func BenchmarkApplyMove(b *testing.B) {
	bm, r := benchModel(b, 2000, 32)
	sc := NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := r.Intn(2000)
		s := int32(r.Intn(32))
		md := bm.EvalMove(v, s, bm.Assignment, sc)
		if md.EmptiesSrc {
			continue
		}
		bm.ApplyMove(md)
	}
}

// BenchmarkProposeVertexMove times a vertex proposal on random vertices:
// the planted C = 32 partition, and boundaryModel's state on both sides
// of DenseThreshold, where a proposal that walks row or column t of M
// scans the dense row or column or reads the sparse lists.
func BenchmarkProposeVertexMove(b *testing.B) {
	for _, c := range []int{32, sparse.DenseThreshold, sparse.DenseThreshold + 1} {
		model := boundaryModel
		if c == 32 {
			model = planted2000
		}
		bm, r := model(b, c)
		n := bm.G.NumVertices()
		b.Run(storageName(bm), func(b *testing.B) {
			var sink int32
			for i := 0; i < b.N; i++ {
				sink += bm.ProposeVertexMove(r.Intn(n), bm.Assignment, r)
			}
			proposeSink = sink
		})
	}
}

var proposeSink int32

// BenchmarkRebuild times ApplyMoves' two paths on the same rebuilds,
// each iteration alternating between two memberships that differ in the
// given share of vertices: incremental applies the move list one move
// at a time, recount recounts everything in place. The states are the
// planted C=32 partition of 5,000 vertices (dense storage), a uniform
// random partition of them at C=V/2 (sparse storage, the shape of an
// early search iteration), and boundaryModel's state on both sides of
// DenseThreshold, whose moved vertices stay in its DenseThreshold
// blocks. recountShare cites where the paths cross.
func BenchmarkRebuild(b *testing.B) {
	const v = 5000
	planted, r := benchModel(b, v, 32)
	earlyBM := earlyModel(b, planted.G, r)
	dense, _ := boundaryModel(b, sparse.DenseThreshold)
	sparse1, _ := boundaryModel(b, sparse.DenseThreshold+1)
	for _, mode := range []struct {
		bm     *Blockmodel
		blocks int // the blocks the memberships use
	}{{planted, 32}, {earlyBM, v / 2}, {dense, sparse.DenseThreshold}, {sparse1, sparse.DenseThreshold}} {
		for _, pct := range []int{1, 5, 10, 20, 50} {
			a := mode.bm.Assignment
			n := len(a)
			r := rng.New(uint64(pct))
			moved := append([]int32(nil), a...)
			for _, i := range r.Perm(n)[:n*pct/100] {
				moved[i] = int32((int(a[i]) + 1 + r.Intn(mode.blocks-1)) % mode.blocks)
			}
			memberships := [2][]int32{a, moved}
			lists := [2][][]int32{{diffMoves(moved, a)}, {diffMoves(a, moved)}}
			for _, path := range []string{"incremental", "recount"} {
				b.Run(fmt.Sprintf("%s/moved=%d%%/%s", storageName(mode.bm), pct, path), func(b *testing.B) {
					bm := mode.bm.Clone()
					sc := NewScratch()
					step := func(i int) {
						if path == "incremental" {
							bm.applyEach(lists[(i+1)%2], sc)
						} else {
							copy(bm.Assignment, memberships[(i+1)%2])
							bm.rebuildCounts(sc)
						}
					}
					step(0) // grow the sparse rows and sc to both memberships' needs
					step(1)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						step(i)
					}
				})
			}
		}
	}
}

// BenchmarkMDL times the description length of one state: the planted
// C=64 partition of 5,000 vertices in dense storage, boundaryModel's
// state on both sides of DenseThreshold, and a uniform random partition
// of the 5,000 vertices at C=V/2, the shape of an early search
// iteration.
func BenchmarkMDL(b *testing.B) {
	planted, r := benchModel(b, 5000, 64)
	earlyBM := earlyModel(b, planted.G, r)
	dense, _ := boundaryModel(b, sparse.DenseThreshold)
	sparse1, _ := boundaryModel(b, sparse.DenseThreshold+1)
	for _, bm := range []*Blockmodel{planted, dense, sparse1, earlyBM} {
		b.Run(storageName(bm), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mdlSink = bm.MDL()
			}
		})
	}
}

var mdlSink float64

// BenchmarkEvalMerge times scoring one block's 10 merge candidates, as
// the merge phase does for every block, on random non-empty blocks with
// targets from ProposeMerge: the planted C = 64 partition of 2,000
// vertices in dense storage, boundaryModel's state on both sides of
// DenseThreshold, and the identity state of the 2,000 vertices (C = V,
// every search's first merge phase) in sparse storage.
func BenchmarkEvalMerge(b *testing.B) {
	planted, _ := benchModel(b, 2000, 64)
	dense, _ := boundaryModel(b, sparse.DenseThreshold)
	sparse1, _ := boundaryModel(b, sparse.DenseThreshold+1)
	for _, bm := range []*Blockmodel{planted, dense, sparse1, Identity(planted.G)} {
		const cases, targets = 1024, 10
		r := rng.New(3)
		blocks := make([]int32, cases)
		ts := make([]int32, cases*targets)
		for i := range blocks {
			src := int32(r.Intn(bm.C))
			for bm.Sizes[src] == 0 {
				src = int32(r.Intn(bm.C))
			}
			blocks[i] = src
			for j := range targets {
				ts[i*targets+j] = bm.ProposeMerge(src, r)
			}
		}
		b.Run(storageName(bm), func(b *testing.B) {
			sc := NewScratch()
			deltas := make([]float64, targets)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := i % cases
				bm.EvalMerges(blocks[k], ts[k*targets:(k+1)*targets], deltas, sc)
			}
		})
	}
}

func BenchmarkIdentityBuild(b *testing.B) {
	g := graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	gBig, _, err := gen.Generate(gen.Spec{
		Name: "big", Vertices: 10000, Communities: 10, MinDegree: 2, MaxDegree: 20,
		Exponent: 2.5, Ratio: 3, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = g
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Identity(gBig)
	}
}
