package blockmodel

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// This file holds the performance-contract tests behind the benchmark
// trajectory: the steady-state proposal path and the incremental
// rebuild allocate nothing, and Scratch containers sized for an early
// iteration at C ≈ N do not pin O(N) memory after the search converges
// to small C.

// ringGraph builds a directed n-cycle with one self-loop at vertex 0,
// so move evaluation exercises out-edges, in-edges and the self-loop
// transfer.
func ringGraph(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n+1)
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{Src: int32(v), Dst: int32((v + 1) % n)})
	}
	edges = append(edges, graph.Edge{Src: 0, Dst: 0})
	return graph.MustNew(n, edges)
}

// TestEvalMoveSteadyStateZeroAllocs is the acceptance gate for the
// proposal kernel: once the Scratch arenas have reached steady-state
// capacity, neither EvalMove alone nor EvalMove followed by the lazy
// HastingsCorrection (its walk, then the kept value) may touch the
// heap, in either block-matrix storage mode, and neither may scoring a
// block's 10 merge targets with EvalMerges, or one with EvalMerge.
func TestEvalMoveSteadyStateZeroAllocs(t *testing.T) {
	n := 600
	g := ringGraph(n)
	cases := []struct {
		name string
		bm   *Blockmodel
	}{
		{"sparse", Identity(g)}, // C = 600 > DenseThreshold
		{"dense", mustFromAssignment(t, g, moduloAssign(n, 16), 16)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bm := tc.bm
			sc := NewScratch()
			rn := rng.New(5)
			withH := false
			eval := func() {
				for i := 0; i < 32; i++ {
					v := rn.Intn(n)
					s := int32(rn.Intn(bm.C))
					if s == bm.Assignment[v] {
						continue
					}
					md := bm.EvalMove(v, s, bm.Assignment, sc)
					if math.IsNaN(md.DeltaS) {
						t.Fatal("NaN ΔS")
					}
					if withH && bm.HastingsCorrection(&md) != bm.HastingsCorrection(&md) {
						t.Fatal("HastingsCorrection changed between calls")
					}
				}
			}
			eval() // warm the arenas to steady-state capacity
			if allocs := testing.AllocsPerRun(50, eval); allocs != 0 {
				t.Fatalf("steady-state EvalMove allocates %.1f times per run, want 0", allocs)
			}
			withH = true
			if allocs := testing.AllocsPerRun(50, eval); allocs != 0 {
				t.Fatalf("steady-state EvalMove+Hastings allocates %.1f times per run, want 0", allocs)
			}
			targets, deltas := make([]int32, 10), make([]float64, 10)
			merge := func() {
				for i := 0; i < 32; i++ {
					r := int32(rn.Intn(bm.C))
					for j := range targets {
						targets[j] = int32(rn.Intn(bm.C))
					}
					bm.EvalMerges(r, targets, deltas, sc)
					sum := bm.EvalMerge(r, targets[0], sc)
					for _, d := range deltas {
						sum += d
					}
					if math.IsNaN(sum) {
						t.Fatal("NaN merge delta")
					}
				}
			}
			merge()
			if allocs := testing.AllocsPerRun(50, merge); allocs != 0 {
				t.Fatalf("steady-state EvalMerges+EvalMerge allocates %.1f times per run, want 0", allocs)
			}
		})
	}
}

// TestRebuildFromIncrementalZeroAllocs alternates ApplyMoves between
// two memberships 5% apart, in both storage modes, with the warmed
// Scratch the engines pass: after one warm-up call has grown the
// sparse rows, the incremental rebuild allocates nothing. RebuildFrom
// from an unchanged membership allocates nothing either.
func TestRebuildFromIncrementalZeroAllocs(t *testing.T) {
	for _, c := range []int{8, sparse.DenseThreshold + 44} {
		r := rng.New(7)
		g := rebuildGraph(r, 600, 2400)
		a := make([]int32, g.NumVertices())
		for v := range a {
			a[v] = int32(r.Intn(c))
		}
		b := moveFraction(r, a, c, 0.05)
		bm := mustFromAssignment(t, g, a, c)
		lists := [2][][]int32{{diffMoves(b, a)}, {diffMoves(a, b)}}
		sc := NewScratch()
		if bm.ApplyMoves(lists[1], sc) {
			t.Fatalf("C=%d: 5%% moved took the recount path", c)
		}
		i := 0
		allocs := testing.AllocsPerRun(50, func() {
			bm.ApplyMoves(lists[i%2], sc)
			i++
		})
		if allocs != 0 {
			t.Fatalf("C=%d: incremental rebuild allocates %.1f times per call, want 0", c, allocs)
		}
		same := append([]int32(nil), bm.Assignment...)
		if allocs := testing.AllocsPerRun(50, func() { bm.RebuildFrom(same, 2) }); allocs != 0 {
			t.Fatalf("C=%d: RebuildFrom with nothing moved allocates %.1f times per call, want 0", c, allocs)
		}
	}
}

// TestApplyMovesRecountInPlace drives ApplyMoves down its recount path
// in dense storage at C = DenseThreshold, alternating between two
// memberships about 30% apart with one warmed Scratch: the recount
// refills the model in place and allocates nothing, and it leaves the
// state a fresh FromAssignment gives, before and after the warm calls.
func TestApplyMovesRecountInPlace(t *testing.T) {
	c := sparse.DenseThreshold
	r := rng.New(13)
	g := rebuildGraph(r, 2000, 8000)
	a := make([]int32, g.NumVertices())
	for v := range a {
		a[v] = int32(r.Intn(c))
	}
	b := moveFraction(r, a, c, 0.3)
	bm := mustFromAssignment(t, g, a, c)
	if !bm.M.IsDense() {
		t.Fatalf("C=%d model uses sparse storage", c)
	}
	if !rebuildMustMatch(t, bm, b, "30% moved") {
		t.Fatal("30% moved took the incremental path")
	}
	lists := [2][][]int32{{diffMoves(b, a)}, {diffMoves(a, b)}}
	sc := NewScratch()
	bm.ApplyMoves(lists[0], sc)
	i := 1
	allocs := testing.AllocsPerRun(20, func() {
		if !bm.ApplyMoves(lists[i%2], sc) {
			t.Fatal("warm call took the incremental path")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("warmed dense recount allocates %.1f times per call, want 0", allocs)
	}
	rebuildMustMatch(t, bm, append([]int32(nil), bm.Assignment...), "after the warm calls")
	rebuildMustMatch(t, bm, moveFraction(r, bm.Assignment, c, 0.3), "30% moved after the warm calls")
}

// diffMoves returns the move list that takes membership from to to:
// (v, to[v]) for every vertex whose block differs, in vertex order.
func diffMoves(from, to []int32) []int32 {
	var moves []int32
	for v, b := range to {
		if b != from[v] {
			moves = append(moves, int32(v), b)
		}
	}
	return moves
}

// TestFromAssignmentSparseAllocs gates the recount's allocations: in
// sparse storage FromAssignment allocates a fixed handful of times,
// whatever C is. A recount that inserts edge by edge into sorted rows
// allocates again for every row it grows.
func TestFromAssignmentSparseAllocs(t *testing.T) {
	r := rng.New(5)
	g := rebuildGraph(r, 6000, 24000)
	runtime.GC() // start the collector's workers outside the count
	var allocs []float64
	for _, c := range []int{sparse.DenseThreshold + 44, 3000} {
		a := make([]int32, g.NumVertices())
		for v := range a {
			a[v] = int32(r.Intn(c))
		}
		allocs = append(allocs, testing.AllocsPerRun(5, func() { mustFromAssignment(t, g, a, c) }))
	}
	if allocs[0] != allocs[1] || allocs[1] > 32 {
		t.Fatalf("FromAssignment allocates %.0f times at C=%d and %.0f at C=3000, want the same and at most 32",
			allocs[0], sparse.DenseThreshold+44, allocs[1])
	}
}

func moduloAssign(n, c int) []int32 {
	a := make([]int32, n)
	for v := range a {
		a[v] = int32(v % c)
	}
	return a
}

func mustFromAssignment(t *testing.T, g *graph.Graph, assign []int32, c int) *Blockmodel {
	t.Helper()
	bm, err := FromAssignment(g, assign, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

// TestBlockVecShrinksRetainedCapacity pins the reset shrink policy:
// large retained arrays shrink to the requested universe, small ones
// are left alone, and the vector stays correct across a shrink.
func TestBlockVecShrinksRetainedCapacity(t *testing.T) {
	var b blockVec
	b.reset(20000)
	b.add(19999, 7)
	if b.retainedCap() < 20000 {
		t.Fatalf("retained %d slots after reset(20000)", b.retainedCap())
	}
	b.reset(64)
	if got := b.retainedCap(); got != 64 {
		t.Fatalf("retained %d slots after shrink, want 64", got)
	}
	if b.get(19999) != 0 || b.get(63) != 0 {
		t.Fatal("stale values visible after shrink")
	}
	b.add(3, 5)
	if b.get(3) != 5 {
		t.Fatal("add/get broken after shrink")
	}
	// No thrash: below the absolute floor, a big cap/universe ratio is fine.
	b.reset(8)
	if got := b.retainedCap(); got != 64 {
		t.Fatalf("retained %d slots, want 64 kept (below shrink floor)", got)
	}
	// Growing again after a shrink works.
	b.reset(128)
	b.add(127, 1)
	if b.get(127) != 1 || b.retainedCap() < 128 {
		t.Fatal("regrow after shrink broken")
	}
}

// TestScratchRetainedCapacityBounded drives a Scratch through the
// convergence profile that used to pin O(N) memory per worker: an
// early iteration at C = N followed by steady work at small C. Every
// container must shrink back to O(C).
func TestScratchRetainedCapacityBounded(t *testing.T) {
	n := 6000 // > blockVecShrinkMinCap so the big phase is shrinkable
	g := ringGraph(n)
	sc := NewScratch()

	big := Identity(g)
	rn := rng.New(9)
	for i := 0; i < 4; i++ {
		v := rn.Intn(n)
		s := int32(rn.Intn(big.C))
		if s == big.Assignment[v] {
			continue
		}
		md := big.EvalMove(v, s, big.Assignment, sc)
		big.HastingsCorrection(&md)
	}
	if got := scratchMaxCap(sc); got < n {
		t.Fatalf("big phase retained only %d slots, expected >= %d", got, n)
	}

	smallC := 16
	small := mustFromAssignment(t, g, moduloAssign(n, smallC), smallC)
	for i := 0; i < 200; i++ {
		// Vertex 0 carries the self-loop, so the self-loop terms of the
		// walk are exercised too.
		v := 0
		if i%2 == 1 {
			v = rn.Intn(n)
		}
		s := int32(rn.Intn(smallC))
		if s == small.Assignment[v] {
			continue
		}
		md := small.EvalMove(v, s, small.Assignment, sc)
		small.HastingsCorrection(&md)
	}
	if got := scratchMaxCap(sc); got > smallC {
		t.Fatalf("converged-phase Scratch retains %d slots, want <= %d", got, smallC)
	}
}

func scratchMaxCap(sc *Scratch) int {
	m := 0
	for _, b := range []*blockVec{&sc.out, &sc.in, &sc.rowR, &sc.rowS, &sc.colR, &sc.colS} {
		if c := b.retainedCap(); c > m {
			m = c
		}
	}
	return m
}

// TestDegreeOneMove checks EvalMove on degree-1 vertices against ground
// truth: ΔS against a full recomputation, and the correction against
// the textbook single-term formula evaluated on a rebuilt post-move
// model. Out-edge and in-edge leaves are covered, with the neighbour's
// block landing on r, on s and elsewhere.
func TestDegreeOneMove(t *testing.T) {
	// A line 0→1→2→3 plus padding edges among upper vertices: vertex 0
	// (out-degree 1) and vertex 3 (in-degree 1) are the leaves.
	edges := []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3},
		{Src: 4, Dst: 5}, {Src: 5, Dst: 4}, {Src: 4, Dst: 6}, {Src: 6, Dst: 5},
	}
	g := graph.MustNew(7, edges)
	assign := []int32{0, 1, 2, 2, 3, 3, 0}
	const c = 4

	for _, v := range []int{0, 3} {
		if g.Degree(v) != 1 {
			t.Fatalf("fixture: vertex %d has degree %d, want 1", v, g.Degree(v))
		}
		for s := int32(0); s < c; s++ {
			bm := mustFromAssignment(t, g, assign, c)
			r := bm.Assignment[v]
			if s == r {
				continue
			}
			sc := NewScratch()
			md := bm.EvalMove(v, s, bm.Assignment, sc)

			moved := append([]int32(nil), assign...)
			moved[v] = s
			after := mustFromAssignment(t, g, moved, c)
			wantDelta := -after.LogLikelihood() + bm.LogLikelihood()
			if math.Abs(md.DeltaS-wantDelta) > 1e-9*(1+math.Abs(wantDelta)) {
				t.Errorf("v=%d s=%d: DeltaS=%g want %g", v, s, md.DeltaS, wantDelta)
			}

			// Single-term Hastings: t is the leaf's neighbour block.
			var nb int32
			if out := g.OutNeighbors(v); len(out) == 1 {
				nb = bm.Assignment[out[0]]
			} else {
				nb = bm.Assignment[g.InNeighbors(v)[0]]
			}
			cf := float64(c)
			pFwd := (float64(bm.M.Get(int(nb), int(s))+bm.M.Get(int(s), int(nb))) + 1) /
				(float64(bm.DTot[nb]) + cf)
			pBwd := (float64(after.M.Get(int(nb), int(r))+after.M.Get(int(r), int(nb))) + 1) /
				(float64(after.DTot[nb]) + cf)
			want := pBwd / pFwd
			if got := bm.HastingsCorrection(&md); math.Abs(got-want) > 1e-12*(1+want) {
				t.Errorf("v=%d s=%d: Hastings=%g want %g", v, s, got, want)
			}

			// Reversibility: the correction of the reverse move on the
			// moved state is the exact reciprocal.
			bm.ApplyMove(md)
			md2 := bm.EvalMove(v, r, bm.Assignment, sc)
			h2 := bm.HastingsCorrection(&md2)
			if h1 := want; math.Abs(h1*h2-1) > 1e-12 {
				t.Errorf("v=%d s=%d: h1*h2 = %g, want 1", v, s, h1*h2)
			}
		}
	}
}
