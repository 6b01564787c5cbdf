package sparse

// FuzzSparseOps drives random operation sequences against a plain
// map-based reference matrix and checks every read path of Matrix
// (Get, RowNZ/ColNZ, row/column sums, Total, NonZeros, Clone, Equal)
// against it, in both dense and sparse representations. The transposed
// column index is the part most likely to drift — it is updated
// separately from the row index on every Add. One op rebuilds the
// matrix through FromColumns from the reference's entries, so later
// Adds grow and shrink lists carved from one backing array.

import (
	"testing"
)

// refMatrix is the obviously-correct reference: one map, no transpose
// index, no representation switch.
type refMatrix struct {
	c int
	m map[[2]int]int64
}

func newRef(c int) *refMatrix { return &refMatrix{c: c, m: make(map[[2]int]int64)} }

func (r *refMatrix) get(i, j int) int64 { return r.m[[2]int{i, j}] }

func (r *refMatrix) add(i, j int, d int64) {
	k := [2]int{i, j}
	v := r.m[k] + d
	if v == 0 {
		delete(r.m, k)
	} else {
		r.m[k] = v
	}
}

func (r *refMatrix) rowSum(i int) int64 {
	var s int64
	for k, v := range r.m {
		if k[0] == i {
			s += v
		}
	}
	return s
}

func (r *refMatrix) colSum(j int) int64 {
	var s int64
	for k, v := range r.m {
		if k[1] == j {
			s += v
		}
	}
	return s
}

func (r *refMatrix) total() int64 {
	var s int64
	for _, v := range r.m {
		s += v
	}
	return s
}

// compareFull checks every read path of m against ref.
func compareFull(t *testing.T, m *Matrix, ref *refMatrix) {
	t.Helper()
	for i := 0; i < ref.c; i++ {
		for j := 0; j < ref.c; j++ {
			if got, want := m.Get(i, j), ref.get(i, j); got != want {
				t.Fatalf("M[%d][%d] = %d, want %d", i, j, got, want)
			}
		}
		if got, want := m.RowSum(i), ref.rowSum(i); got != want {
			t.Fatalf("RowSum(%d) = %d, want %d", i, got, want)
		}
		if got, want := m.ColSum(i), ref.colSum(i); got != want {
			t.Fatalf("ColSum(%d) = %d, want %d (transposed index drift)", i, got, want)
		}
		// Row and column iteration must visit each nonzero once, in
		// ascending order.
		prev := int32(-1)
		m.RowNZ(i, func(s int32, v int64) {
			if s <= prev {
				t.Fatalf("RowNZ(%d) visited column %d after %d", i, s, prev)
			}
			if want := ref.get(i, int(s)); v == 0 || v != want {
				t.Fatalf("RowNZ(%d) yielded M[%d][%d]=%d, want %d", i, i, s, v, want)
			}
			prev = s
		})
		prev = -1
		m.ColNZ(i, func(r int32, v int64) {
			if r <= prev {
				t.Fatalf("ColNZ(%d) visited row %d after %d", i, r, prev)
			}
			if want := ref.get(int(r), i); v == 0 || v != want {
				t.Fatalf("ColNZ(%d) yielded M[%d][%d]=%d, want %d", i, r, i, v, want)
			}
			prev = r
		})
	}
	if got, want := m.Total(), ref.total(); got != want {
		t.Fatalf("Total() = %d, want %d", got, want)
	}
	if got, want := m.NonZeros(), len(ref.m); got != want {
		t.Fatalf("NonZeros() = %d, want %d", got, want)
	}
}

// fromRef rebuilds ref through FromColumns. Each column lists its rows
// round-robin from the highest down, one unit at a time, so rows come
// unsorted and repeated rows are not adjacent.
func fromRef(ref *refMatrix) *Matrix {
	start := []int{0}
	var rows []int32
	left := make([]int64, ref.c)
	for s := 0; s < ref.c; s++ {
		n := int64(0)
		for r := range left {
			left[r] = ref.get(r, s)
			n += left[r]
		}
		for n > 0 {
			for r := ref.c - 1; r >= 0; r-- {
				if left[r] > 0 {
					rows = append(rows, int32(r))
					left[r]--
					n--
				}
			}
		}
		start = append(start, len(rows))
	}
	return FromColumns(ref.c, start, rows)
}

func FuzzSparseOps(f *testing.F) {
	f.Add([]byte("\x04\x00" + "\x00\x01\x02\x05\x01\x02\x10\x02\x01\x03\x00\x00"))
	f.Add([]byte("\x03\x01" + "abcdefghijklmnopqrstuvwxyz"))
	f.Add([]byte("0123456789abcdefghij"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			t.Skip()
		}
		c := 1 + int(data[0]%6)
		if data[1]&1 == 1 {
			// Push past DenseThreshold to exercise the hash-map
			// representation with the same op sequence.
			c += DenseThreshold
		}
		m := NewMatrix(c)
		if wantDense := c <= DenseThreshold; m.IsDense() != wantDense {
			t.Fatalf("IsDense() = %v for c=%d", m.IsDense(), c)
		}
		ref := newRef(c)
		var clone *Matrix
		var cloneRef *refMatrix

		ops := data[2:]
		for i := 0; i+2 < len(ops) && i < 90; i += 3 {
			r := int(ops[i+1]) % c
			s := int(ops[i+2]) % c
			switch ops[i] % 5 {
			case 0, 1: // add a small delta, clipped to keep counts non-negative
				d := int64(ops[i]>>2) - 16
				if ref.get(r, s)+d < 0 {
					d = -ref.get(r, s)
				}
				m.Add(r, s, d)
				ref.add(r, s, d)
			case 2: // point reads
				if got, want := m.Get(r, s), ref.get(r, s); got != want {
					t.Fatalf("Get(%d,%d) = %d, want %d", r, s, got, want)
				}
			case 3: // snapshot a clone mid-sequence
				clone = m.Clone()
				cloneRef = newRef(c)
				for k, v := range ref.m {
					cloneRef.m[k] = v
				}
				if !m.Equal(clone) {
					t.Fatal("fresh clone not Equal to source")
				}
			case 4: // rebuild in bulk; the later ops apply to the new matrix
				m = fromRef(ref)
				if m.IsDense() != (c <= DenseThreshold) {
					t.Fatalf("FromColumns IsDense() = %v for c=%d", m.IsDense(), c)
				}
				compareFull(t, m, ref)
			}
		}
		compareFull(t, m, ref)
		if clone != nil {
			// The clone must have stayed frozen at its snapshot even
			// though the original kept mutating.
			compareFull(t, clone, cloneRef)
		}
	})
}
