package blockmodel

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
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
// capacity, a full EvalMove + HastingsCorrection must not touch the
// heap, in either block-matrix storage mode.
func TestEvalMoveSteadyStateZeroAllocs(t *testing.T) {
	n := 600
	g := ringGraph(n)
	cases := []struct {
		name string
		bm   *Blockmodel
	}{
		{"sparse", Identity(g, 1)}, // C = 600 > DenseThreshold
		{"dense", mustFromAssignment(t, g, moduloAssign(n, 16), 16)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bm := tc.bm
			sc := NewScratch()
			rn := rng.New(5)
			eval := func() {
				for i := 0; i < 32; i++ {
					v := rn.Intn(n)
					s := int32(rn.Intn(bm.C))
					if s == bm.Assignment[v] {
						continue
					}
					md := bm.EvalMove(v, s, bm.Assignment, sc)
					if h := bm.HastingsCorrection(&md); math.IsNaN(h) {
						t.Fatal("NaN Hastings correction")
					}
				}
			}
			eval() // warm the arenas to steady-state capacity
			if allocs := testing.AllocsPerRun(50, eval); allocs != 0 {
				t.Fatalf("steady-state EvalMove+Hastings allocates %.1f times per run, want 0", allocs)
			}
		})
	}
}

// TestRebuildFromIncrementalZeroAllocs alternates RebuildFrom between
// two memberships 5% apart, in both storage modes: after one warm-up
// call has grown the sparse rows, the incremental path allocates
// nothing.
func TestRebuildFromIncrementalZeroAllocs(t *testing.T) {
	for _, c := range []int{8, 300} {
		r := rng.New(7)
		g := rebuildGraph(r, 600, 2400)
		a := make([]int32, g.NumVertices())
		for v := range a {
			a[v] = int32(r.Intn(c))
		}
		b := moveFraction(r, a, c, 0.05)
		bm := mustFromAssignment(t, g, a, c)
		if bm.RebuildFrom(b, 2) {
			t.Fatalf("C=%d: 5%% moved took the recount path", c)
		}
		memberships := [2][]int32{a, b}
		i := 0
		allocs := testing.AllocsPerRun(50, func() {
			bm.RebuildFrom(memberships[i%2], 2)
			i++
		})
		if allocs != 0 {
			t.Fatalf("C=%d: incremental rebuild allocates %.1f times per call, want 0", c, allocs)
		}
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

	big := Identity(g, 1)
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
		// Vertex 0 carries the self-loop, so the wBwd container is
		// exercised (and shrunk) too.
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
	for _, b := range []*blockVec{&sc.out, &sc.in, &sc.rowR, &sc.rowS, &sc.colR, &sc.colS, &sc.wFwd, &sc.wBwd} {
		if c := b.retainedCap(); c > m {
			m = c
		}
	}
	return m
}

// TestDegreeOneFastPath checks EvalMove's and HastingsCorrection's
// degree-1 short-circuit against ground truth: ΔS against a full
// recomputation, and the correction against the textbook single-term
// formula evaluated on a rebuilt post-move model. Out-edge and in-edge
// leaves are covered, with the neighbour's block landing on r, on s and
// elsewhere.
func TestDegreeOneFastPath(t *testing.T) {
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
