package sparse

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestGetAddBasic(t *testing.T) {
	for _, c := range []int{4, DenseThreshold + 10} { // dense and sparse modes
		m := NewMatrix(c)
		if m.Get(1, 2) != 0 {
			t.Fatal("fresh matrix not zero")
		}
		m.Add(1, 2, 5)
		m.Add(1, 2, -2)
		if got := m.Get(1, 2); got != 3 {
			t.Fatalf("c=%d: got %d, want 3", c, got)
		}
	}
}

func TestModeSelection(t *testing.T) {
	if !NewMatrix(DenseThreshold).IsDense() {
		t.Fatal("at-threshold matrix should be dense")
	}
	if NewMatrix(DenseThreshold + 1).IsDense() {
		t.Fatal("above-threshold matrix should be sparse")
	}
}

func TestUnderflowPanics(t *testing.T) {
	for _, c := range []int{4, DenseThreshold + 10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("c=%d: underflow did not panic", c)
				}
			}()
			m := NewMatrix(c)
			m.Add(0, 0, 1)
			m.Add(0, 0, -2)
		}()
	}
}

func TestSparseZeroEntryRemoved(t *testing.T) {
	m := NewMatrix(DenseThreshold + 10)
	m.Add(3, 4, 7)
	m.Add(3, 4, -7)
	if m.NonZeros() != 0 {
		t.Fatal("zeroed entry still counted as nonzero")
	}
	count := 0
	m.RowNZ(3, func(int32, int64) { count++ })
	if count != 0 {
		t.Fatal("zeroed entry still iterated")
	}
}

func TestRowColConsistency(t *testing.T) {
	for _, c := range []int{8, DenseThreshold + 20} {
		m := NewMatrix(c)
		m.Add(1, 2, 3)
		m.Add(2, 2, 4)
		m.Add(1, 5, 1)
		// Column 2 must see rows 1 and 2.
		got := map[int32]int64{}
		m.ColNZ(2, func(r int32, v int64) { got[r] = v })
		if got[1] != 3 || got[2] != 4 || len(got) != 2 {
			t.Fatalf("c=%d: col 2 = %v", c, got)
		}
		if m.RowSum(1) != 4 || m.ColSum(2) != 7 || m.Total() != 8 {
			t.Fatalf("c=%d: sums wrong: row1=%d col2=%d total=%d", c, m.RowSum(1), m.ColSum(2), m.Total())
		}
	}
}

// TestSparseDenseEquivalence drives both representations with the same
// random operation sequence and checks they agree entry-for-entry —
// the core property that lets the blockmodel switch representation.
func TestSparseDenseEquivalence(t *testing.T) {
	r := rng.New(7)
	if err := quick.Check(func(opsRaw uint8) bool {
		const c = 12
		dense := NewMatrix(c)   // dense: c <= threshold
		sparse := &Matrix{c: c} // force sparse mode at small c
		sparse.rows = make([]nzlist, c)
		sparse.cols = make([]nzlist, c)

		ops := int(opsRaw)%100 + 1
		for k := 0; k < ops; k++ {
			i, j := r.Intn(c), r.Intn(c)
			d := int64(r.Intn(5))
			dense.Add(i, j, d)
			sparse.Add(i, j, d)
		}
		return dense.Equal(sparse) && sparse.Equal(dense) &&
			dense.Total() == sparse.Total() && dense.NonZeros() == sparse.NonZeros()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	for _, c := range []int{6, DenseThreshold + 5} {
		m := NewMatrix(c)
		m.Add(0, 1, 2)
		m.Add(2, 3, 4)
		cp := m.Clone()
		if !m.Equal(cp) {
			t.Fatalf("c=%d: clone differs", c)
		}
		cp.Add(0, 1, 10)
		if m.Get(0, 1) != 2 {
			t.Fatalf("c=%d: clone aliases original", c)
		}
	}
}

func TestEqualDifferentSizes(t *testing.T) {
	if NewMatrix(3).Equal(NewMatrix(4)) {
		t.Fatal("different-size matrices reported equal")
	}
}

func TestEqualAsymmetricContent(t *testing.T) {
	a := NewMatrix(4)
	b := NewMatrix(4)
	a.Add(1, 1, 1)
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("unequal matrices reported equal")
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(-1) did not panic")
		}
	}()
	NewMatrix(-1)
}

func TestAddZeroIsNoop(t *testing.T) {
	m := NewMatrix(DenseThreshold + 1)
	m.Add(1, 1, 0)
	if m.NonZeros() != 0 {
		t.Fatal("Add(…, 0) created an entry")
	}
}

// TestSparseIterationAscending pins the ordering guarantee RowNZ and
// ColNZ document: ascending index in sparse mode regardless of
// insertion order. Float accumulations over these iterators (MDL,
// ΔMDL) rely on it for bit-identical same-seed runs — a map-backed
// representation would randomize the association order.
func TestSparseIterationAscending(t *testing.T) {
	m := NewMatrix(DenseThreshold + 50)
	r := rng.New(9)
	for i := 0; i < 200; i++ {
		m.Add(3, r.Intn(m.NumBlocks()), int64(r.Intn(4)+1))
		m.Add(r.Intn(m.NumBlocks()), 7, int64(r.Intn(4)+1))
	}
	prev := int32(-1)
	m.RowNZ(3, func(s int32, _ int64) {
		if s <= prev {
			t.Fatalf("row iteration not ascending: %d after %d", s, prev)
		}
		prev = s
	})
	prev = -1
	m.ColNZ(7, func(row int32, _ int64) {
		if row <= prev {
			t.Fatalf("column iteration not ascending: %d after %d", row, prev)
		}
		prev = row
	})
}
