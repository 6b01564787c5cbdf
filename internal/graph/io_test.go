package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadEdgeList(t *testing.T) {
	in := "# comment\n0 1\n1 2\n% also comment\n2 0\n\n"
	g, err := ReadEdgeList(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestReadEdgeListExplicitN(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 {
		t.Fatalf("V=%d, want 10 (isolated vertices preserved)", g.NumVertices())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{"0\n", "a b\n", "0 b\n", "-1 0\n"}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), 0); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

// TestReadEdgeListIDOutOfRange: a vertex id beyond int32 is an error,
// not a wrapped id (2^32 would read as vertex 0). Id 2^31−1 parses, but
// the vertex count 2^31 it implies does not fit the int32 ids.
func TestReadEdgeListIDOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		in string
		n  int
	}{
		{"0 4294967296\n", 10},
		{"0 4294967296\n", 0},
		{"4294967296 1\n", 0},
		{"0 2147483648\n", 0},
		{"0 2147483647\n", 0},
	} {
		if g, err := ReadEdgeList(strings.NewReader(tc.in), tc.n); err == nil {
			t.Errorf("input %q (n=%d) accepted as V=%d E=%d", tc.in, tc.n, g.NumVertices(), g.NumEdges())
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := MustNew(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 0}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
		t.Fatal("round trip changed graph size")
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(v) != g2.OutDegree(v) || g.InDegree(v) != g2.InDegree(v) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
}

func TestReadMatrixMarketGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
% a comment
3 3 3
1 2
2 3
3 1
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if g.OutNeighbors(0)[0] != 1 {
		t.Fatal("1-based indices not converted")
	}
}

func TestReadMatrixMarketSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 2 3.5
2 2 1.0
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Off-diagonal mirrored, diagonal not duplicated: 3 directed edges.
	if g.NumEdges() != 3 {
		t.Fatalf("E=%d, want 3", g.NumEdges())
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n",
		"%%MatrixMarket matrix coordinate pattern skew-symmetric\n2 2 1\n1 2\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n5 1\n",
		// Size lines out of range: a negative or huge nnz, a negative
		// dimension, a dimension beyond int32.
		"%%MatrixMarket matrix coordinate pattern general\n2 2 -1\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1000000000000000\n1 2\n",
		"%%MatrixMarket matrix coordinate pattern general\n-3 3 0\n",
		"%%MatrixMarket matrix coordinate pattern general\n3 -3 0\n",
		"%%MatrixMarket matrix coordinate pattern general\n4294967296 1 0\n",
		"%%MatrixMarket matrix coordinate pattern general\n1 4294967296 0\n",
		// The entry count must match nnz; a symmetric file counts its
		// stored entries, not the mirrored edges.
		"%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n",
		"%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 2\n2 3\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n1 2\n",
	}
	for i, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	g := MustNew(3, []Edge{{0, 1}, {1, 2}, {2, 0}})
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 3 || g2.NumEdges() != 3 {
		t.Fatalf("round trip: V=%d E=%d", g2.NumVertices(), g2.NumEdges())
	}
}

func TestLoadFileDispatch(t *testing.T) {
	dir := t.TempDir()
	g := MustNew(3, []Edge{{0, 1}, {1, 2}})

	tsv := filepath.Join(dir, "g.tsv")
	f, err := os.Create(tsv)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got, err := LoadFile(tsv); err != nil || got.NumEdges() != 2 {
		t.Fatalf("edge-list load: %v", err)
	}

	mtx := filepath.Join(dir, "g.mtx")
	f, err = os.Create(mtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMatrixMarket(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got, err := LoadFile(mtx); err != nil || got.NumEdges() != 2 {
		t.Fatalf("mtx load: %v", err)
	}

	if _, err := LoadFile(filepath.Join(dir, "missing.tsv")); err == nil {
		t.Fatal("missing file accepted")
	}
}
