package merge

import (
	"context"
	"testing"

	"repro/internal/blockmodel"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func testModel(t *testing.T, seed uint64) (*blockmodel.Blockmodel, []int32) {
	t.Helper()
	g, truth, err := gen.Generate(gen.Spec{
		Name: "m", Vertices: 100, Communities: 4, MinDegree: 4, MaxDegree: 15,
		Exponent: 2.5, Ratio: 5, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return blockmodel.Identity(g), truth
}

func TestPhaseReducesBlockCount(t *testing.T) {
	bm, _ := testModel(t, 1)
	before := bm.NumNonEmptyBlocks()
	st := Phase(bm, before/2, DefaultConfig(), rng.New(1))
	if st.Applied != before/2 {
		t.Fatalf("applied %d merges, want %d", st.Applied, before/2)
	}
	after := bm.NumNonEmptyBlocks()
	if after != before-st.Applied {
		t.Fatalf("blocks %d -> %d with %d merges", before, after, st.Applied)
	}
	if err := bm.Validate(); err != nil {
		t.Fatalf("inconsistent after merge phase: %v", err)
	}
}

func TestPhaseCompacts(t *testing.T) {
	bm, _ := testModel(t, 2)
	Phase(bm, 50, DefaultConfig(), rng.New(2))
	if bm.C != bm.NumNonEmptyBlocks() {
		t.Fatalf("not compacted: C=%d, non-empty=%d", bm.C, bm.NumNonEmptyBlocks())
	}
}

func TestPhaseZeroRequested(t *testing.T) {
	bm, _ := testModel(t, 3)
	before := bm.C
	st := Phase(bm, 0, DefaultConfig(), rng.New(3))
	if st.Applied != 0 || bm.C != before {
		t.Fatal("zero-merge phase changed the model")
	}
}

func TestPhaseSingleBlockNoop(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	bm, err := blockmodel.FromAssignment(g, []int32{0, 0, 0}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := Phase(bm, 5, DefaultConfig(), rng.New(4))
	if st.Applied != 0 {
		t.Fatal("merged below one block")
	}
}

func TestPhaseImprovesOverRandomMerges(t *testing.T) {
	// Merging guided by ΔMDL from the identity partition toward the true
	// community count should produce a lower MDL than merging randomly.
	bm, truth := testModel(t, 5)
	guided := bm.Clone()
	// Halve per phase (as the SBP driver does) so later merges see the
	// deltas of the already-agglomerated state.
	rGuided := rng.New(5)
	for guided.NumNonEmptyBlocks() > 4 {
		c := guided.NumNonEmptyBlocks()
		toMerge := c / 2
		if c-toMerge < 4 {
			toMerge = c - 4
		}
		Phase(guided, toMerge, DefaultConfig(), rGuided)
	}

	random := bm.Clone()
	r := rng.New(6)
	membership := make([]int32, len(random.Assignment))
	for v := range membership {
		membership[v] = int32(r.Intn(4))
	}
	random.RebuildFrom(membership, 1)
	random.Compact()

	if guided.MDL() >= random.MDL() {
		t.Fatalf("guided merges (MDL %v) not better than random partition (MDL %v)", guided.MDL(), random.MDL())
	}
	_ = truth
}

func TestPhaseDeterministic(t *testing.T) {
	a, _ := testModel(t, 7)
	b, _ := testModel(t, 7)
	Phase(a, 40, DefaultConfig(), rng.New(9))
	Phase(b, 40, DefaultConfig(), rng.New(9))
	for v := range a.Assignment {
		if a.Assignment[v] != b.Assignment[v] {
			t.Fatalf("merge phase not deterministic at vertex %d", v)
		}
	}
}

func TestPhaseCostAccounting(t *testing.T) {
	bm, _ := testModel(t, 11)
	st := Phase(bm, 30, DefaultConfig(), rng.New(10))
	if st.Proposals <= 0 {
		t.Fatal("no proposals recorded")
	}
	if st.Cost.ParallelWork <= 0 {
		t.Fatal("no parallel work recorded (proposals run in parallel)")
	}
	if st.Cost.SerialWork <= 0 {
		t.Fatal("no serial work recorded (sort/apply is serial)")
	}
}

func TestPhaseParallelMatchesSerial(t *testing.T) {
	a, _ := testModel(t, 13)
	b, _ := testModel(t, 13)
	cfgSerial := DefaultConfig()
	cfgSerial.Workers = 1
	cfgPar := DefaultConfig()
	cfgPar.Workers = 4
	// Block r's candidates draw from their own stream, so the width
	// changes only which worker proposes them: the merges are the same.
	Phase(a, 40, cfgSerial, rng.New(14))
	Phase(b, 40, cfgPar, rng.New(14))
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.C != b.C {
		t.Fatalf("block counts differ: %d vs %d", a.C, b.C)
	}
	for v := range a.Assignment {
		if a.Assignment[v] != b.Assignment[v] {
			t.Fatalf("membership differs at vertex %d: %d at 1 worker, %d at 4", v, a.Assignment[v], b.Assignment[v])
		}
	}
}

func TestUnionFindChasing(t *testing.T) {
	uf := newUnionFind(5)
	uf.merge(0, 1)
	uf.merge(1, 2)
	if uf.find(0) != 2 {
		t.Fatalf("find(0) = %d, want 2 (chained)", uf.find(0))
	}
	uf.merge(uf.find(3), uf.find(4))
	if uf.find(3) != 4 {
		t.Fatalf("find(3) = %d", uf.find(3))
	}
	if uf.find(2) != 2 {
		t.Fatal("root changed")
	}
}

func TestPhaseClampsToAvailableBlocks(t *testing.T) {
	bm, _ := testModel(t, 17)
	c := bm.NumNonEmptyBlocks()
	st := Phase(bm, c+50, DefaultConfig(), rng.New(20)) // ask for too many
	if st.Applied > c-1 {
		t.Fatalf("applied %d merges with only %d blocks", st.Applied, c)
	}
	if bm.NumNonEmptyBlocks() < 1 {
		t.Fatal("merged below one block")
	}
	if err := bm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseCancelledAtEntry(t *testing.T) {
	bm, _ := testModel(t, 9)
	before := bm.Clone()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.Ctx = ctx
	st := Phase(bm, 10, cfg, rng.New(1))
	if !st.Interrupted || st.Applied != 0 {
		t.Fatalf("cancelled phase: interrupted=%v applied=%d", st.Interrupted, st.Applied)
	}
	if bm.C != before.C {
		t.Fatal("cancelled phase mutated the blockmodel")
	}
	for v := range before.Assignment {
		if bm.Assignment[v] != before.Assignment[v] {
			t.Fatalf("cancelled phase moved vertex %d", v)
		}
	}
}

func TestPhaseNilCtxRuns(t *testing.T) {
	bm, _ := testModel(t, 10)
	cfg := DefaultConfig()
	cfg.Workers = 2
	st := Phase(bm, 10, cfg, rng.New(1))
	if st.Interrupted || st.Applied == 0 {
		t.Fatalf("nil-ctx phase: interrupted=%v applied=%d", st.Interrupted, st.Applied)
	}
}
