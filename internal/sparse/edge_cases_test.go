package sparse

// Table-driven edge-case tests for the block matrix, run against both
// the dense array and the sorted nonzero lists: empty rows, self-loop
// diagonals, merge-style edit lists that fold a row into itself, entries
// that return to zero, and clone-then-mutate independence.

import "testing"

// bothModes runs fn once with a dense matrix and once with a sparse one;
// off keeps the interesting indices identical in both.
func bothModes(t *testing.T, fn func(t *testing.T, c int)) {
	t.Helper()
	for _, mode := range []struct {
		name string
		c    int
	}{
		{"dense", 8},
		{"sparse", DenseThreshold + 8},
	} {
		t.Run(mode.name, func(t *testing.T) {
			m := NewMatrix(mode.c)
			if want := mode.name == "dense"; m.IsDense() != want {
				t.Fatalf("IsDense() = %v in %s mode", m.IsDense(), mode.name)
			}
			fn(t, mode.c)
		})
	}
}

func TestEmptyRowIteration(t *testing.T) {
	bothModes(t, func(t *testing.T, c int) {
		m := NewMatrix(c)
		m.Add(1, 2, 5) // row 0 and column 0 stay empty
		calls := 0
		m.RowNZ(0, func(int32, int64) { calls++ })
		m.ColNZ(0, func(int32, int64) { calls++ })
		if calls != 0 {
			t.Fatalf("iteration over empty row/column yielded %d entries", calls)
		}
		if m.RowSum(0) != 0 || m.ColSum(0) != 0 {
			t.Fatalf("empty row/column sums = %d/%d, want 0/0", m.RowSum(0), m.ColSum(0))
		}
	})
}

func TestSelfLoopDiagonal(t *testing.T) {
	bothModes(t, func(t *testing.T, c int) {
		m := NewMatrix(c)
		m.Add(3, 3, 7) // block self-edges land on the diagonal
		if got := m.Get(3, 3); got != 7 {
			t.Fatalf("diagonal entry = %d, want 7", got)
		}
		// The diagonal is one entry: it must appear exactly once in the
		// row walk and once in the column walk, and count toward both
		// sums.
		rowVisits, colVisits := 0, 0
		m.RowNZ(3, func(s int32, v int64) {
			if s == 3 && v == 7 {
				rowVisits++
			}
		})
		m.ColNZ(3, func(r int32, v int64) {
			if r == 3 && v == 7 {
				colVisits++
			}
		})
		if rowVisits != 1 || colVisits != 1 {
			t.Fatalf("diagonal visited %d×/%d× in row/col walks, want 1×/1×", rowVisits, colVisits)
		}
		if m.RowSum(3) != 7 || m.ColSum(3) != 7 {
			t.Fatalf("row/col sums %d/%d through diagonal, want 7/7", m.RowSum(3), m.ColSum(3))
		}
		if m.Total() != 7 {
			t.Fatalf("Total() = %d, want 7 (diagonal must not double-count)", m.Total())
		}
	})
}

func TestMergeRowIntoItselfIsIdentity(t *testing.T) {
	// The merge edit list for "merge r into r" degenerates to paired
	// −x/+x adjustments on the same entries; applying them must leave
	// the matrix exactly as it was, with no residual zero entries.
	bothModes(t, func(t *testing.T, c int) {
		m := NewMatrix(c)
		m.Add(2, 2, 4)
		m.Add(2, 5, 3)
		m.Add(5, 2, 2)
		before := m.Clone()
		nzBefore := m.NonZeros()
		// Self-merge edits: remove row/col 2 into itself and add it back.
		m.Add(2, 2, -4)
		m.Add(2, 2, 4)
		m.Add(2, 5, -3)
		m.Add(2, 5, 3)
		m.Add(5, 2, -2)
		m.Add(5, 2, 2)
		if !m.Equal(before) {
			t.Fatal("self-merge edit sequence changed the matrix")
		}
		if m.NonZeros() != nzBefore {
			t.Fatalf("NonZeros %d after self-merge, want %d", m.NonZeros(), nzBefore)
		}
	})
}

func TestEntryReturningToZeroDisappears(t *testing.T) {
	bothModes(t, func(t *testing.T, c int) {
		m := NewMatrix(c)
		m.Add(1, 4, 6)
		m.Add(1, 4, -6)
		if got := m.Get(1, 4); got != 0 {
			t.Fatalf("zeroed entry reads %d", got)
		}
		if m.NonZeros() != 0 {
			t.Fatalf("NonZeros = %d after zeroing, want 0", m.NonZeros())
		}
		m.RowNZ(1, func(s int32, v int64) {
			t.Fatalf("zeroed entry still yielded (%d, %d) from RowNZ", s, v)
		})
		m.ColNZ(4, func(r int32, v int64) {
			t.Fatalf("zeroed entry still yielded (%d, %d) from ColNZ", r, v)
		})
		if !m.Equal(NewMatrix(c)) {
			t.Fatal("matrix with only zeroed entries not Equal to a fresh one")
		}
	})
}

func TestCloneThenMutateIndependence(t *testing.T) {
	bothModes(t, func(t *testing.T, c int) {
		m := NewMatrix(c)
		m.Add(0, 1, 2)
		m.Add(6, 6, 9)
		cl := m.Clone()
		// Diverge both copies.
		m.Add(0, 1, 5)
		cl.Add(6, 6, -9)
		cl.Add(3, 2, 1)
		if got := cl.Get(0, 1); got != 2 {
			t.Fatalf("clone saw source mutation: M[0][1] = %d, want 2", got)
		}
		if got := m.Get(6, 6); got != 9 {
			t.Fatalf("source saw clone mutation: M[6][6] = %d, want 9", got)
		}
		if got := m.Get(3, 2); got != 0 {
			t.Fatalf("source saw clone insertion: M[3][2] = %d, want 0", got)
		}
		if m.Equal(cl) {
			t.Fatal("diverged matrices still Equal")
		}
		// Column indices must have diverged too, not just rows.
		if got, want := m.ColSum(6), int64(9); got != want {
			t.Fatalf("source ColSum(6) = %d, want %d", got, want)
		}
		if got := cl.ColSum(6); got != 0 {
			t.Fatalf("clone ColSum(6) = %d, want 0", got)
		}
	})
}

func TestUnderflowPanicsBothModes(t *testing.T) {
	bothModes(t, func(t *testing.T, c int) {
		m := NewMatrix(c)
		m.Add(1, 1, 1)
		defer func() {
			if recover() == nil {
				t.Fatal("Add below zero did not panic")
			}
		}()
		m.Add(1, 1, -2)
	})
}
