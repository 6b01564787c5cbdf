package benchmark

import (
	"testing"

	"repro/internal/blockmodel"
	"repro/internal/sparse"
)

// TestPairGroupingStaysSparse requires every shape's pair-grouping
// state, which the proposal-point-eval, sweep, merge-scan and
// sparse-row-walk workloads start from, to be in sparse storage at the
// smoke size and at the full size. Where (V+1)/2 is above
// DenseThreshold the block count is (V+1)/2 itself.
func TestPairGroupingStaysSparse(t *testing.T) {
	for _, vertices := range []int{SmokeOptions().Vertices, DefaultOptions().Vertices} {
		for _, sh := range Shapes() {
			sd, err := sh.Build(vertices)
			if err != nil {
				t.Fatal(err)
			}
			bm, err := blockmodel.FromAssignment(sd.G, sd.SparseAssign, sd.SparseC, 1)
			if err != nil {
				t.Fatal(err)
			}
			n := sd.G.NumVertices()
			if bm.M.IsDense() {
				t.Errorf("%s at V=%d: pair grouping at C=%d is in dense storage", sh.Name, n, sd.SparseC)
			}
			if half := (n + 1) / 2; half > sparse.DenseThreshold && sd.SparseC != half {
				t.Errorf("%s at V=%d: pair grouping at C=%d, want (V+1)/2 = %d", sh.Name, n, sd.SparseC, half)
			}
		}
	}
}
