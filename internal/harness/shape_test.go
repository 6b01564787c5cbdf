package harness

// Shape regression tests: the paper's headline qualitative claims,
// asserted at reduced scale on every `go test` run. These are the
// properties EXPERIMENTS.md reports; if a code change breaks one, the
// reproduction is no longer faithful.

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/mcmc"
	"repro/internal/parallel"
)

// shapeConfig is big enough for stable shapes, small enough for tests.
func shapeConfig() Config {
	c := Default()
	c.Scale = 0.002
	c.Runs = 1
	c.Workers = 2
	return c
}

// TestShapeHybridMatchesSerialQuality asserts the paper's central
// accuracy claim: H-SBP matches SBP's result quality on a graph where
// SBP converges (§5.1, §5.3).
func TestShapeHybridMatchesSerialQuality(t *testing.T) {
	c := shapeConfig()
	g, truth, _, err := c.syntheticGraph(5) // dense, strong structure
	if err != nil {
		t.Fatal(err)
	}
	sbpOut := c.BestOf("S5", g, truth, mcmc.SerialMH)
	hsbpOut := c.BestOf("S5", g, truth, mcmc.Hybrid)
	if diff := sbpOut.NMI - hsbpOut.NMI; diff > 0.05 {
		t.Fatalf("H-SBP NMI %.3f below SBP %.3f", hsbpOut.NMI, sbpOut.NMI)
	}
	if hsbpOut.Best.NormalizedMDL > sbpOut.Best.NormalizedMDL+0.01 {
		t.Fatalf("H-SBP MDLnorm %.4f worse than SBP %.4f",
			hsbpOut.Best.NormalizedMDL, sbpOut.Best.NormalizedMDL)
	}
}

// TestShapeSpeedupOrdering asserts the paper's speedup ordering at the
// modelled 128 threads: A-SBP > H-SBP > 1 (Figs 4b, 6).
func TestShapeSpeedupOrdering(t *testing.T) {
	c := shapeConfig()
	g, truth, _, err := c.syntheticGraph(5)
	if err != nil {
		t.Fatal(err)
	}
	base := c.BestOf("S5", g, truth, mcmc.SerialMH)
	hyb := c.BestOf("S5", g, truth, mcmc.Hybrid)
	asy := c.BestOf("S5", g, truth, mcmc.AsyncGibbs)
	sH := parallel.RelativeSpeedup(base.MCMCCost, hyb.MCMCCost, 128)
	sA := parallel.RelativeSpeedup(base.MCMCCost, asy.MCMCCost, 128)
	t.Logf("modelled speedups at 128 threads: A-SBP %v×, H-SBP %v×", sA, sH)
	if !(sA > sH && sH > 1) {
		t.Fatalf("speedup ordering violated: A-SBP %.2fx, H-SBP %.2fx", sA, sH)
	}
}

// TestShapeModelIsCounted asserts that the modelled speedups the shape
// tests read are counted work, not timing: every engine's cost account
// on the shape graph has the same bits in two runs, one at one worker
// and one at three.
func TestShapeModelIsCounted(t *testing.T) {
	c := shapeConfig()
	g, truth, _, err := c.syntheticGraph(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []mcmc.Algorithm{mcmc.SerialMH, mcmc.Hybrid, mcmc.AsyncGibbs, mcmc.BatchedGibbs} {
		c.Workers = 1
		one := c.BestOf("S5", g, truth, alg).TotalCost
		c.Workers = 3
		three := c.BestOf("S5", g, truth, alg).TotalCost
		if one.SerialWork != three.SerialWork || one.ParallelWork != three.ParallelWork ||
			one.Regions != three.Regions || one.Units != three.Units {
			t.Errorf("%v: cost account differs between runs:\n 1 worker  %+v\n 3 workers %+v", alg, one, three)
		}
		if s1, s3 := one.Speedup(128), three.Speedup(128); s1 != s3 {
			t.Errorf("%v: modelled speedup %v× at 1 worker, %v× at 3", alg, s1, s3)
		}
	}
}

// TestShapeMCMCDominatesRuntime asserts Fig 2's claim: at the paper's
// thread count, the serial MCMC phase dominates SBP's runtime.
func TestShapeMCMCDominatesRuntime(t *testing.T) {
	c := shapeConfig()
	tab, err := c.Fig2([]int{5})
	if err != nil {
		t.Fatal(err)
	}
	var modelled float64
	if _, err := scan(tab.Rows[0][2], &modelled); err != nil {
		t.Fatal(err)
	}
	if modelled < 90 {
		t.Fatalf("modelled MCMC share %.1f%% < 90%%", modelled)
	}
}

// TestShapeStrongScalingTaper asserts Fig 7's shape: speedup grows
// monotonically with threads but the marginal gain shrinks past 16.
func TestShapeStrongScalingTaper(t *testing.T) {
	c := shapeConfig()
	g, _, _, err := c.syntheticGraph(5)
	if err != nil {
		t.Fatal(err)
	}
	out := c.BestOf("S5", g, nil, mcmc.Hybrid)
	prev := 0.0
	var gain2to16, gain16to128 float64
	s2 := out.MCMCCost.Speedup(2)
	s16 := out.MCMCCost.Speedup(16)
	s128 := out.MCMCCost.Speedup(128)
	gain2to16 = s16 - s2
	gain16to128 = s128 - s16
	for _, p := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		s := out.MCMCCost.Speedup(p)
		if s < prev {
			t.Fatalf("speedup decreased at %d threads", p)
		}
		prev = s
	}
	if gain16to128 >= gain2to16 {
		t.Fatalf("no taper: gain 16→128 (%.2f) >= gain 2→16 (%.2f)", gain16to128, gain2to16)
	}
}

// TestShapeNoStructureCollapses asserts the failure behaviour on
// structureless inputs: the r=1 sparse graphs (the paper's redacted
// S17–S20) collapse to MDLnorm ≈ 1.
func TestShapeNoStructureCollapses(t *testing.T) {
	c := shapeConfig()
	g, truth, _, err := c.syntheticGraph(17)
	if err != nil {
		t.Fatal(err)
	}
	out := c.BestOf("S17", g, truth, mcmc.SerialMH)
	if out.Best.NormalizedMDL < 0.98 {
		t.Fatalf("structureless graph compressed to MDLnorm %.4f", out.Best.NormalizedMDL)
	}
}

// TestShapeP2PHasNoStructure asserts the paper's p2p-Gnutella31
// finding: no variant finds structure (MDLnorm >= ~1).
func TestShapeP2PHasNoStructure(t *testing.T) {
	c := shapeConfig()
	specs, err := gen.TableTwoSpecs(c.RealScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if s.Name != "p2p-Gnutella31" {
			continue
		}
		g, err := gen.GenerateRealWorld(s)
		if err != nil {
			t.Fatal(err)
		}
		out := c.BestOf(s.Name, g, nil, mcmc.SerialMH)
		if out.Best.NormalizedMDL < 0.97 {
			t.Fatalf("p2p stand-in compressed to MDLnorm %.4f", out.Best.NormalizedMDL)
		}
	}
}

// scan parses one float out of a rendered table cell.
func scan(cell string, out *float64) (int, error) {
	return fmt.Sscan(cell, out)
}
