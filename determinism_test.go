package hsbp_test

// Seed-stability tests for the public API: for a fixed seed and worker
// count, a full Detect run must be bit-identical across invocations for
// every engine. Every vertex draws from its own RNG stream and each
// worker owns one contiguous vertex range (degree-balanced by default),
// so the only way this breaks is a scheduling-dependent code path —
// exactly the regression class these tests guard against.

import (
	"fmt"
	"testing"

	hsbp "repro"
)

func detectAssignment(t *testing.T, g *hsbp.Graph, alg hsbp.Algorithm, workers int) []int32 {
	t.Helper()
	opts := hsbp.DefaultOptions(alg)
	opts.Seed = 99
	opts.MCMC.Workers = workers
	opts.Merge.Workers = workers
	res := hsbp.Detect(g, opts)
	return append([]int32(nil), res.Best.Assignment...)
}

func TestDeterminismDetect(t *testing.T) {
	g, _, err := hsbp.GenerateSBM(hsbp.SBMSpec{
		Name: "det", Vertices: 250, Communities: 5, MinDegree: 4, MaxDegree: 40,
		Exponent: 2.2, Ratio: 5, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []hsbp.Algorithm{hsbp.SBP, hsbp.ASBP, hsbp.HSBP, hsbp.BSBP} {
		for _, workers := range []int{1, 3} {
			alg, workers := alg, workers
			t.Run(fmt.Sprintf("%s/workers=%d", alg, workers), func(t *testing.T) {
				a := detectAssignment(t, g, alg, workers)
				b := detectAssignment(t, g, alg, workers)
				if len(a) != len(b) {
					t.Fatalf("assignment lengths differ: %d vs %d", len(a), len(b))
				}
				for v := range a {
					if a[v] != b[v] {
						t.Fatalf("%s workers=%d: assignment differs at vertex %d: %d vs %d",
							alg, workers, v, a[v], b[v])
					}
				}
			})
		}
	}
}
