package mcmc

import (
	"testing"

	"repro/internal/blockmodel"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// structured returns a generated two-community graph and a deliberately
// scrambled starting blockmodel at the true block count.
func structured(t *testing.T, seed uint64) (*blockmodel.Blockmodel, []int32) {
	t.Helper()
	g, truth, err := gen.Generate(gen.Spec{
		Name: "t", Vertices: 120, Communities: 3, MinDegree: 6, MaxDegree: 20,
		Exponent: 2.5, Ratio: 6, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Perturb 30% of the truth labels: the MCMC phase is a local
	// refiner (the merge phase does the global work in full SBP), so
	// tests start it within the basin of the planted optimum.
	r := rng.New(seed + 1)
	scrambled := append([]int32(nil), truth...)
	for v := range scrambled {
		if r.Float64() < 0.3 {
			scrambled[v] = int32(r.Intn(3))
		}
	}
	bm, err := blockmodel.FromAssignment(g, scrambled, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return bm, truth
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxSweeps = 60
	cfg.Workers = 2
	return cfg
}

func TestEnginesReduceMDL(t *testing.T) {
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			bm, _ := structured(t, 42)
			st := Run(bm, alg, testConfig(), rng.New(1))
			if st.FinalS >= st.InitialS {
				t.Fatalf("%s did not reduce MDL: %v -> %v", alg, st.InitialS, st.FinalS)
			}
			if err := bm.Validate(); err != nil {
				t.Fatalf("%s left inconsistent model: %v", alg, err)
			}
		})
	}
}

func TestEnginesRecoverPlantedPartition(t *testing.T) {
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			bm, truth := structured(t, 7)
			Run(bm, alg, testConfig(), rng.New(2))
			// Count pairwise agreement rather than exact labels.
			agree, total := 0, 0
			n := len(truth)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j += 7 { // sampled pairs
					total++
					sameTruth := truth[i] == truth[j]
					sameFound := bm.Assignment[i] == bm.Assignment[j]
					if sameTruth == sameFound {
						agree++
					}
				}
			}
			if frac := float64(agree) / float64(total); frac < 0.9 {
				t.Fatalf("%s pair agreement %.3f < 0.9", alg, frac)
			}
		})
	}
}

func TestStatsAccounting(t *testing.T) {
	bm, _ := structured(t, 9)
	st := Run(bm, SerialMH, testConfig(), rng.New(3))
	if st.Sweeps < 1 {
		t.Fatal("no sweeps recorded")
	}
	if st.Proposals <= 0 {
		t.Fatal("no proposals recorded")
	}
	if st.Accepts > st.Proposals {
		t.Fatal("more accepts than proposals")
	}
	if st.Cost.SerialWork <= 0 {
		t.Fatal("serial engine recorded no serial work")
	}
	if st.Cost.ParallelWork != 0 {
		t.Fatal("serial engine recorded parallel work")
	}
}

func TestAsyncChargesParallelWork(t *testing.T) {
	bm, _ := structured(t, 11)
	st := Run(bm, AsyncGibbs, testConfig(), rng.New(4))
	if st.Cost.ParallelWork <= 0 {
		t.Fatal("A-SBP recorded no parallel work")
	}
	if st.Cost.Regions < int64(st.Sweeps) {
		t.Fatalf("regions %d < sweeps %d", st.Cost.Regions, st.Sweeps)
	}
}

func TestHybridChargesBothKinds(t *testing.T) {
	bm, _ := structured(t, 13)
	st := Run(bm, Hybrid, testConfig(), rng.New(5))
	if st.Cost.SerialWork <= 0 || st.Cost.ParallelWork <= 0 {
		t.Fatalf("H-SBP accounts: serial=%v parallel=%v", st.Cost.SerialWork, st.Cost.ParallelWork)
	}
}

func TestMaxSweepsRespected(t *testing.T) {
	bm, _ := structured(t, 23)
	cfg := testConfig()
	cfg.MaxSweeps = 3
	cfg.Threshold = 0 // never converge via threshold
	st := Run(bm, SerialMH, cfg, rng.New(6))
	if st.Sweeps != 3 {
		t.Fatalf("sweeps = %d, want 3", st.Sweeps)
	}
	if st.Converged {
		t.Fatal("converged flag set with zero threshold")
	}
}

func TestEmptyBlockGuard(t *testing.T) {
	// The MCMC phase keeps the block count fixed: no block may become
	// empty.
	bm, _ := structured(t, 25)
	cfg := testConfig()
	Run(bm, SerialMH, cfg, rng.New(7))
	for b := 0; b < bm.C; b++ {
		if bm.Sizes[b] == 0 {
			t.Fatalf("block %d emptied despite guard", b)
		}
	}
}

func TestSplitByDegree(t *testing.T) {
	g := graph.MustNew(5, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 1, Dst: 2}})
	bm, err := blockmodel.FromAssignment(g, []int32{0, 0, 1, 1, 1}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	vStar, vMinus := SplitByDegree(bm, 0.2)
	if len(vStar) != 1 || vStar[0] != 0 {
		t.Fatalf("V* = %v, want [0]", vStar)
	}
	if len(vMinus) != 4 {
		t.Fatalf("V- size = %d", len(vMinus))
	}
	// Fraction 0 still selects at least one vertex... only when > 0.
	vStar, _ = SplitByDegree(bm, 0)
	if len(vStar) != 0 {
		t.Fatalf("fraction 0 selected %d vertices", len(vStar))
	}
	vStar, vMinus = SplitByDegree(bm, 1)
	if len(vStar) != 5 || len(vMinus) != 0 {
		t.Fatal("fraction 1 did not select everything")
	}
	// Tiny positive fractions round up to one vertex.
	vStar, _ = SplitByDegree(bm, 1e-9)
	if len(vStar) != 1 {
		t.Fatalf("tiny fraction selected %d vertices, want 1", len(vStar))
	}
}

func TestAlgorithmString(t *testing.T) {
	if SerialMH.String() != "SBP" || AsyncGibbs.String() != "A-SBP" || Hybrid.String() != "H-SBP" {
		t.Fatal("algorithm names changed")
	}
	if Algorithm(99).String() == "" {
		t.Fatal("unknown algorithm has empty name")
	}
}

func TestRunPanicsOnUnknownAlgorithm(t *testing.T) {
	bm, _ := structured(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown algorithm did not panic")
		}
	}()
	Run(bm, Algorithm(42), testConfig(), rng.New(1))
}

func TestConvergedHelper(t *testing.T) {
	if !converged(100, 100.001, 1e-3) {
		t.Fatal("tiny relative change not detected as converged")
	}
	if converged(100, 90, 1e-3) {
		t.Fatal("large change detected as converged")
	}
}

func TestAsyncStalenessOneSweep(t *testing.T) {
	// The asynchronous engine must evaluate all proposals of a sweep
	// against the same (sweep-start) blockmodel: after Run, the final
	// assignment must still validate, and a single sweep must leave the
	// matrix equal to a fresh rebuild (i.e. no partial in-place edits).
	bm, _ := structured(t, 31)
	cfg := testConfig()
	cfg.MaxSweeps = 1
	Run(bm, AsyncGibbs, cfg, rng.New(8))
	if err := bm.Validate(); err != nil {
		t.Fatalf("async sweep left stale counts: %v", err)
	}
}
