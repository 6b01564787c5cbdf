package blockmodel

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
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

func BenchmarkEvalMoveWithHastings(b *testing.B) {
	bm, r := benchModel(b, 2000, 32)
	sc := NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := r.Intn(2000)
		s := int32(r.Intn(32))
		md := bm.EvalMove(v, s, bm.Assignment, sc)
		_ = bm.HastingsCorrection(&md)
	}
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

// BenchmarkRebuild times RebuildFrom's two paths on the same rebuilds,
// each iteration alternating between two memberships that differ in the
// given share of vertices: incremental is the moved-vertex update,
// recount the 2-worker full recount. Dense mode is the planted C=32
// partition; sparse mode a uniform random one at C=V/2, the shape of an
// early search iteration. recountShare cites where the paths cross.
func BenchmarkRebuild(b *testing.B) {
	const v, workers = 5000, 2
	for _, mode := range []struct {
		name string
		c    int
	}{{"dense", 32}, {"sparse", v / 2}} {
		for _, pct := range []int{1, 10, 50} {
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
					bm, err := FromAssignment(planted.G, a, mode.c, workers)
					if err != nil {
						b.Fatal(err)
					}
					memberships := [2][]int32{a, moved}
					step := func(i int) {
						next := memberships[(i+1)%2]
						if path == "incremental" {
							bm.moveVertices(next)
						} else {
							copy(bm.Assignment, next)
							bm.rebuildCounts(workers)
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

func BenchmarkMDL(b *testing.B) {
	bm, _ := benchModel(b, 5000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bm.MDL()
	}
}

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
		_ = Identity(gBig, 0)
	}
}
