package mcmc

import (
	"testing"

	"repro/internal/blockmodel"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/rng"
)

var allAlgorithms = []Algorithm{SerialMH, AsyncGibbs, Hybrid, BatchedGibbs}

// TestPerSweepRecords checks the observability invariants of every
// engine: one record per sweep, counts that sum to the phase totals,
// the final record matching the phase's final MDL, and an imbalance
// ratio that is present exactly when a parallel pass ran.
func TestPerSweepRecords(t *testing.T) {
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			bm, _ := structured(t, 21)
			st := Run(bm, alg, testConfig(), rng.New(5))
			if len(st.PerSweep) != st.Sweeps {
				t.Fatalf("%d records for %d sweeps", len(st.PerSweep), st.Sweeps)
			}
			var props, accs int64
			for i, rec := range st.PerSweep {
				if rec.Sweep != i {
					t.Fatalf("record %d has sweep index %d", i, rec.Sweep)
				}
				props += rec.Proposals
				accs += rec.Accepts
				if rec.MDL <= 0 {
					t.Fatalf("sweep %d: MDL %v not recorded", i, rec.MDL)
				}
				if rec.MDLNS <= 0 {
					t.Fatalf("sweep %d: no MDL pass time", i)
				}
				switch alg {
				case SerialMH:
					if rec.Imbalance != 0 {
						t.Fatalf("serial engine reported imbalance %v", rec.Imbalance)
					}
					if rec.SerialNS <= 0 {
						t.Fatalf("sweep %d: no serial time", i)
					}
				default:
					// testConfig uses 2 workers on a 120-vertex graph, so
					// every parallel pass has at least one busy worker.
					if rec.Imbalance < 1 {
						t.Fatalf("sweep %d: imbalance %v < 1", i, rec.Imbalance)
					}
					if rec.RebuildNS <= 0 {
						t.Fatalf("sweep %d: no rebuild time", i)
					}
				}
			}
			if props != st.Proposals || accs != st.Accepts {
				t.Fatalf("per-sweep counts (%d, %d) != phase totals (%d, %d)",
					props, accs, st.Proposals, st.Accepts)
			}
			last := st.PerSweep[len(st.PerSweep)-1]
			if last.MDL != st.FinalS {
				t.Fatalf("last record MDL %v != FinalS %v", last.MDL, st.FinalS)
			}
			if st.MaxImbalance() < st.MeanImbalance() {
				t.Fatalf("max imbalance %v < mean %v", st.MaxImbalance(), st.MeanImbalance())
			}
		})
	}
}

// TestDeterminismWorkerCount asserts that the chain does not depend on
// the worker count: every engine gives one fingerprint at 1, 2, 3 and 5
// workers, and a phase checkpointed at 3 workers and resumed at 1 ends
// where the uninterrupted run does.
func TestDeterminismWorkerCount(t *testing.T) {
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			var want fingerprint
			for _, workers := range []int{1, 2, 3, 5} {
				bm, _ := structured(t, 71)
				cfg := testConfig()
				cfg.Workers = workers
				got := fingerprintOf(Run(bm, alg, cfg, rng.New(17)), bm.Assignment)
				if workers == 1 {
					want = got
				} else if got != want {
					t.Fatalf("workers=%d: %+v, want the 1-worker chain %+v", workers, got, want)
				}
			}
			cfg := testConfig()
			cfg.Workers = 3
			st, membership := resumedRun(t, alg, cfg, 17, 1)
			if got := fingerprintOf(st, membership); got != want {
				t.Fatalf("checkpointed at 3 workers, resumed at 1: %+v, want %+v", got, want)
			}
		})
	}
}

// TestDeterminismEnginesSameSeed asserts that for a fixed seed every
// engine follows an identical chain across two runs, at 1 and at 3
// workers, whichever way the async passes split their vertices: by
// degree, as Run does, or into equal-count ranges. The split only
// balances load, so both give Run's fingerprint.
func TestDeterminismEnginesSameSeed(t *testing.T) {
	type engine func(*blockmodel.Blockmodel, Algorithm, Config, *rng.RNG) Stats
	splits := []struct {
		name string
		run  engine
	}{
		{"degree", Run},
		{"static", runStaticSplit},
	}
	for _, alg := range allAlgorithms {
		for _, split := range splits {
			t.Run(alg.String()+"/"+split.name, func(t *testing.T) {
				for _, workers := range []int{1, 3} {
					run := func(e engine) fingerprint {
						bm, _ := structured(t, 55)
						cfg := testConfig()
						cfg.Workers = workers
						return fingerprintOf(e(bm, alg, cfg, rng.New(8)), bm.Assignment)
					}
					a, b, want := run(split.run), run(split.run), run(Run)
					if a != b {
						t.Fatalf("workers=%d: two runs differ: %+v vs %+v", workers, a, b)
					}
					if a != want {
						t.Fatalf("workers=%d: %+v, want Run's chain %+v", workers, a, want)
					}
				}
			})
		}
	}
}

// runStaticSplit is Run with every async pass split into equal-count
// ranges (parallel.StaticRanges) instead of by degree.
func runStaticSplit(bm *blockmodel.Blockmodel, alg Algorithm, cfg Config, rn *rng.RNG) Stats {
	s := newSchedule(bm, alg, cfg)
	for i, p := range s.plans {
		n := len(p.vertices)
		if p.vertices == nil {
			n = bm.G.NumVertices()
		}
		s.plans[i].ranges = parallel.StaticRanges(n, s.workers)
	}
	s0 := bm.MDL()
	return s.run(bm, cfg, rn, newPhaseObs(cfg.Obs, alg, s.workers, s0, bm.NumNonEmptyBlocks()), s0)
}

// TestSplitByDegreeCeil is the regression test for the V*-split rounding
// bug: the doc comment and paper specify ceil(fraction·V), but the
// implementation floored — at V=10, fraction=0.15 it picked 1 vertex
// instead of 2.
func TestSplitByDegreeCeil(t *testing.T) {
	g, err := graph.New(10, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 0, Dst: 4},
		{Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 4, Dst: 5}, {Src: 5, Dst: 6},
		{Src: 6, Dst: 7}, {Src: 7, Dst: 8}, {Src: 8, Dst: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	bm := blockmodel.Identity(g)
	cases := []struct {
		fraction float64
		want     int
	}{
		{0, 0},     // no synchronous pass at all
		{0.15, 2},  // ceil(1.5) = 2: the reported bug
		{0.1, 1},   // exact multiple stays put
		{0.001, 1}, // ceil keeps at least one vertex for any fraction > 0
		{1, 10},    // everything serial
		{1.5, 10},  // clamped to V
	}
	for _, c := range cases {
		vStar, vMinus := SplitByDegree(bm, c.fraction)
		if len(vStar) != c.want {
			t.Fatalf("fraction=%v: |V*| = %d, want %d", c.fraction, len(vStar), c.want)
		}
		if len(vStar)+len(vMinus) != 10 {
			t.Fatalf("fraction=%v: split loses vertices (%d + %d)", c.fraction, len(vStar), len(vMinus))
		}
	}
	// V* must hold the highest-degree vertices: vertex 0 has degree 4.
	vStar, _ := SplitByDegree(bm, 0.15)
	if vStar[0] != 0 {
		t.Fatalf("V* should start with the max-degree vertex, got %d", vStar[0])
	}
}
