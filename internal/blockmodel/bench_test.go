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
func benchModel(b *testing.B, v, c int) (*Blockmodel, *rng.RNG) {
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
// (C = 32) and sparse (C = 512) storage, and the degree-1 vertices of
// the powerlaw-hub shape (about 8% of its vertices) in both modes.
func BenchmarkEvalMoveWithHastings(b *testing.B) {
	for _, bc := range []struct {
		name   string
		c      int
		leaves bool
	}{
		{"dense/C=32", 32, false},
		{"sparse/C=512", 512, false},
		{"leaves/dense/C=8", 8, true},
		{"leaves/sparse/C=512", 512, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var bm *Blockmodel
			var r *rng.RNG
			var vs []int
			if bc.leaves {
				bm, r = hubModel(b, 2000, bc.c)
				for v := 0; v < bm.G.NumVertices(); v++ {
					if bm.G.Degree(v) == 1 {
						vs = append(vs, v)
					}
				}
			} else {
				bm, r = benchModel(b, 2000, bc.c)
				for v := 0; v < bm.G.NumVertices(); v++ {
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

// hubModel builds the powerlaw-hub benchmark shape (a shallow degree
// exponent, minimum degree 1 and hubs up to a quarter of the vertex
// count) planted at c blocks.
func hubModel(b *testing.B, v, c int) (*Blockmodel, *rng.RNG) {
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

func BenchmarkProposeVertexMove(b *testing.B) {
	bm, r := benchModel(b, 2000, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bm.ProposeVertexMove(r.Intn(2000), bm.Assignment, r)
	}
}

// BenchmarkRebuild times ApplyMoves' two paths on the same rebuilds,
// each iteration alternating between two memberships that differ in the
// given share of vertices: incremental applies the move list one move
// at a time, recount recounts everything. Dense mode is the planted
// C=32 partition; sparse mode a uniform random one at C=V/2, the shape
// of an early search iteration. recountShare cites where the paths
// cross.
func BenchmarkRebuild(b *testing.B) {
	const v = 5000
	for _, mode := range []struct {
		name string
		c    int
	}{{"dense", 32}, {"sparse", v / 2}} {
		for _, pct := range []int{1, 5, 10, 20, 50} {
			for _, path := range []string{"incremental", "recount"} {
				b.Run(fmt.Sprintf("%s/moved=%d%%/%s", mode.name, pct, path), func(b *testing.B) {
					planted, r := benchModel(b, v, 32)
					a := planted.Assignment
					if mode.c != 32 {
						a = make([]int32, v)
						for i := range a {
							a[i] = int32(r.Intn(mode.c))
						}
					}
					moved := append([]int32(nil), a...)
					for _, i := range r.Perm(v)[:v*pct/100] {
						moved[i] = int32((int(a[i]) + 1 + r.Intn(mode.c-1)) % mode.c)
					}
					bm, err := FromAssignment(planted.G, a, mode.c, 1)
					if err != nil {
						b.Fatal(err)
					}
					memberships := [2][]int32{a, moved}
					lists := [2][][]int32{{diffMoves(moved, a)}, {diffMoves(a, moved)}}
					sc := NewScratch()
					step := func(i int) {
						if path == "incremental" {
							bm.applyEach(lists[(i+1)%2], sc)
						} else {
							copy(bm.Assignment, memberships[(i+1)%2])
							bm.rebuildCounts()
						}
					}
					step(0) // grow the sparse rows to both memberships' needs
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

// BenchmarkMDL times the description length of one state on 5,000
// vertices: the planted C=64 partition in dense storage, and uniform
// random partitions in sparse storage just above DenseThreshold and at
// C=V/2, the shape of an early search iteration.
func BenchmarkMDL(b *testing.B) {
	const v = 5000
	planted, r := benchModel(b, v, 64)
	for _, c := range []int{64, sparse.DenseThreshold + 1, v / 2} {
		bm := planted
		if c != 64 {
			a := make([]int32, v)
			for i := range a {
				a[i] = int32(r.Intn(c))
			}
			var err error
			if bm, err = FromAssignment(planted.G, a, c, 1); err != nil {
				b.Fatal(err)
			}
		}
		mode := "sparse"
		if bm.M.IsDense() {
			mode = "dense"
		}
		b.Run(fmt.Sprintf("%s/C=%d", mode, c), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mdlSink = bm.MDL()
			}
		})
	}
}

var mdlSink float64

func BenchmarkEvalMerge(b *testing.B) {
	bm, r := benchModel(b, 2000, 64)
	sc := NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := int32(r.Intn(64))
		y := int32(r.Intn(64))
		if x == y {
			continue
		}
		_ = bm.EvalMerge(x, y, sc)
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
