package check

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/blockmodel"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// TestInvariantsDetectCorruption injects one bookkeeping error at a time
// into a consistent blockmodel and requires Invariants to report it,
// naming the corrupted quantity.
func TestInvariantsDetectCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(bm *blockmodel.Blockmodel)
		want    string // substring of the expected diagnostic
	}{
		{
			name:    "block matrix drift",
			corrupt: func(bm *blockmodel.Blockmodel) { bm.M.Add(0, 1, 1) },
			want:    "M[0][1]",
		},
		{
			name:    "block matrix underflow-adjacent drift",
			corrupt: func(bm *blockmodel.Blockmodel) { bm.M.Add(2, 2, 3) },
			want:    "M[2][2]",
		},
		{
			name:    "out-degree drift",
			corrupt: func(bm *blockmodel.Blockmodel) { bm.DOut[2]++ },
			want:    "DOut[2]",
		},
		{
			name:    "in-degree drift",
			corrupt: func(bm *blockmodel.Blockmodel) { bm.DIn[1] -= 2 },
			want:    "DIn[1]",
		},
		{
			name:    "total-degree drift",
			corrupt: func(bm *blockmodel.Blockmodel) { bm.DTot[0] += 5 },
			want:    "DTot[0]",
		},
		{
			name:    "size drift",
			corrupt: func(bm *blockmodel.Blockmodel) { bm.Sizes[1]-- },
			want:    "Sizes[1]",
		},
		{
			name:    "assignment out of range",
			corrupt: func(bm *blockmodel.Blockmodel) { bm.Assignment[3] = int32(bm.C) },
			want:    "outside",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bm := randomModel(t, 42, 15, 4, 50)
			if err := Invariants(bm); err != nil {
				t.Fatalf("pre-corruption state invalid: %v", err)
			}
			tc.corrupt(bm)
			err := Invariants(bm)
			if err == nil {
				t.Fatal("Invariants accepted a corrupted state")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("diagnostic %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestInvariantsReportFirstDivergentEntry corrupts two matrix entries
// and requires the diagnostic to name the row-major-first one, so a
// failing verified run always points at a deterministic location.
func TestInvariantsReportFirstDivergentEntry(t *testing.T) {
	bm := randomModel(t, 43, 12, 4, 40)
	bm.M.Add(3, 0, 2)
	bm.M.Add(1, 2, 1)
	err := Invariants(bm)
	if err == nil {
		t.Fatal("Invariants accepted a corrupted state")
	}
	if !strings.Contains(err.Error(), "M[1][2]") {
		t.Fatalf("diagnostic %q should name the first divergent entry M[1][2]", err)
	}
	if !strings.Contains(err.Error(), "diff +1") {
		t.Fatalf("diagnostic %q should carry the count diff", err)
	}
}

func TestInvariantsPassAfterRebuildAndCompact(t *testing.T) {
	bm := randomModel(t, 44, 20, 8, 60)
	// Empty a block, then compact; both states must validate.
	membership := append([]int32(nil), bm.Assignment...)
	for v, b := range membership {
		if b == 7 {
			membership[v] = 0
		}
	}
	bm.RebuildFrom(membership, 2)
	if err := Invariants(bm); err != nil {
		t.Fatalf("after rebuild: %v", err)
	}
	bm.Compact()
	if err := Invariants(bm); err != nil {
		t.Fatalf("after compact: %v", err)
	}
}

// TestFromAssignmentMatchesOracle builds models with FromAssignment,
// whose recount shares no code with the dense Oracle, and requires
// Invariants to pass and every row and column of M to list its keys in
// ascending order, which Invariants does not check: the column order
// decides which block sampleBlockEdgeEndpoint picks, so it is part of
// the chain. Each model then takes a chain of small RebuildFrom
// rewrites on the incremental path, which grow and shrink the rows and
// columns the recount carved from one backing array per side, and must
// stay consistent after each.
func TestFromAssignmentMatchesOracle(t *testing.T) {
	const dt = sparse.DenseThreshold
	rn := rng.New(11)
	randomEdges := func(n, m int) []graph.Edge {
		es := make([]graph.Edge, m)
		for i := range es {
			es[i] = graph.Edge{Src: int32(rn.Intn(n)), Dst: int32(rn.Intn(n))}
		}
		return es
	}
	// spread assigns n vertices to c blocks at random, leaving the
	// blocks in empty without vertices.
	spread := func(n, c int, empty ...int32) []int32 {
		b := make([]int32, n)
		for v := range b {
			b[v] = int32(rn.Intn(c))
			for slices.Contains(empty, b[v]) {
				b[v] = int32(rn.Intn(c))
			}
		}
		return b
	}
	// Vertices 600 and up have no edges and are the only members of the
	// last block.
	isolated := spread(600, dt+4)
	for len(isolated) < 900 {
		isolated = append(isolated, dt+4)
	}
	// Every vertex has two self-loops and three parallel edges to one
	// other vertex.
	var loops []graph.Edge
	for v := int32(0); v < 700; v++ {
		u := int32(rn.Intn(700))
		loops = append(loops, graph.Edge{Src: v, Dst: v}, graph.Edge{Src: v, Dst: v},
			graph.Edge{Src: v, Dst: u}, graph.Edge{Src: v, Dst: u}, graph.Edge{Src: v, Dst: u})
	}
	cases := []struct {
		name  string
		g     *graph.Graph
		b     []int32
		c     int
		dense bool
	}{
		{"C=1", graph.MustNew(50, randomEdges(50, 200)), make([]int32, 50), 1, true},
		{"C=DenseThreshold with empty first, middle and last blocks",
			graph.MustNew(900, randomEdges(900, 3600)), spread(900, dt, 0, dt/2, dt-1), dt, true},
		{"C=DenseThreshold+1 with empty first, middle and last blocks",
			graph.MustNew(900, randomEdges(900, 3600)), spread(900, dt+1, 0, dt/2, dt), dt + 1, false},
		{"edgeless", graph.MustNew(600, nil), spread(600, dt+1), dt + 1, false},
		{"isolated vertices", graph.MustNew(900, randomEdges(600, 2400)), isolated, dt + 5, false},
		{"self-loops and multi-edges dense", graph.MustNew(700, loops), spread(700, 16), 16, true},
		{"self-loops and multi-edges sparse", graph.MustNew(700, loops), spread(700, dt+40), dt + 40, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bm, err := blockmodel.FromAssignment(tc.g, tc.b, tc.c, 1)
			if err != nil {
				t.Fatal(err)
			}
			if bm.M.IsDense() != tc.dense {
				t.Fatalf("IsDense() = %v at C=%d", bm.M.IsDense(), tc.c)
			}
			if err := builtConsistent(bm); err != nil {
				t.Fatalf("after FromAssignment: %v", err)
			}
			membership := append([]int32(nil), bm.Assignment...)
			for step := 0; step < 12; step++ {
				for k := 1 + rn.Intn(3); k > 0; k-- {
					membership[rn.Intn(len(membership))] = int32(rn.Intn(tc.c))
				}
				if bm.RebuildFrom(membership, 1) {
					t.Fatalf("rewrite %d took the recount path", step)
				}
				if err := builtConsistent(bm); err != nil {
					t.Fatalf("after rewrite %d: %v", step, err)
				}
			}
		})
	}
}

// builtConsistent is Invariants plus ascending key order in every row
// and column of M.
func builtConsistent(bm *blockmodel.Blockmodel) error {
	if err := Invariants(bm); err != nil {
		return err
	}
	for i := 0; i < bm.C; i++ {
		var err error
		prev := int32(-1)
		bm.M.RowNZ(i, func(s int32, _ int64) {
			if s <= prev && err == nil {
				err = fmt.Errorf("row %d visits column %d after %d", i, s, prev)
			}
			prev = s
		})
		prev = -1
		bm.M.ColNZ(i, func(r int32, _ int64) {
			if r <= prev && err == nil {
				err = fmt.Errorf("column %d visits row %d after %d", i, r, prev)
			}
			prev = r
		})
		if err != nil {
			return err
		}
	}
	return nil
}
