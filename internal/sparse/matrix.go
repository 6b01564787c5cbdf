// Package sparse implements the block matrix M used by the degree-
// corrected stochastic blockmodel: a C×C matrix of non-negative edge
// counts where M[r][s] is the number of edges from community r to
// community s.
//
// Early SBP iterations have C on the order of the vertex count (every
// vertex starts in its own block), so a dense C×C array is infeasible; M
// is extremely sparse there. Late iterations have small C where dense
// storage is far faster. The Matrix therefore switches representation:
// sorted nonzero lists per row and per column above DenseThreshold
// blocks, one dense array below. Both row and column iteration are
// O(nonzeros) because the proposal distribution samples from row t and
// column t, a merge's edit list walks row r and column r, and move
// evaluation loads rows and columns r, s as lookup tables.
//
// Iteration order is ascending index in BOTH modes. This is a hard
// guarantee, not an implementation detail: float accumulations over
// RowNZ/ColNZ (log-likelihood, a merge's ΔMDL) must associate
// identically across runs and across checkpoint/resume for same-seed
// results to be bit-identical. A hash-map representation would
// randomize the order.
package sparse

import (
	"fmt"
	"sort"
)

// DenseThreshold is the block count at or below which a freshly created
// Matrix uses dense storage.
const DenseThreshold = 256

// nzlist is one sparse row (or column): the nonzero entries as parallel
// key/value slices kept sorted by key. Rows of the block matrix hold
// around average-degree entries, so binary search plus memmove beats a
// hash map while giving canonical iteration order.
type nzlist struct {
	keys []int32
	vals []int64
}

// find returns the position of k, or the insertion point and false.
func (l *nzlist) find(k int32) (int, bool) {
	i := sort.Search(len(l.keys), func(i int) bool { return l.keys[i] >= k })
	return i, i < len(l.keys) && l.keys[i] == k
}

func (l *nzlist) get(k int32) int64 {
	if i, ok := l.find(k); ok {
		return l.vals[i]
	}
	return 0
}

// add applies delta to key k, inserting or removing the entry as needed,
// and returns the new value (which may be negative; the caller owns
// range checking).
func (l *nzlist) add(k int32, delta int64) int64 {
	i, ok := l.find(k)
	if !ok {
		if delta == 0 {
			return 0
		}
		l.keys = append(l.keys, 0)
		l.vals = append(l.vals, 0)
		copy(l.keys[i+1:], l.keys[i:])
		copy(l.vals[i+1:], l.vals[i:])
		l.keys[i], l.vals[i] = k, delta
		return delta
	}
	v := l.vals[i] + delta
	if v == 0 {
		l.keys = append(l.keys[:i], l.keys[i+1:]...)
		l.vals = append(l.vals[:i], l.vals[i+1:]...)
		return 0
	}
	l.vals[i] = v
	return v
}

func (l *nzlist) clone() nzlist {
	if len(l.keys) == 0 {
		return nzlist{}
	}
	return nzlist{
		keys: append([]int32(nil), l.keys...),
		vals: append([]int64(nil), l.vals...),
	}
}

// Matrix is a C×C matrix of int64 edge counts.
// It is not safe for concurrent mutation; concurrent reads are safe.
type Matrix struct {
	c     int
	dense []int64  // len c*c when in dense mode, nil otherwise
	rows  []nzlist // per-row nonzeros when in sparse mode
	cols  []nzlist // transpose index (same counts, keyed by row)
}

// NewMatrix returns a zero C×C matrix, choosing dense or sparse storage
// by DenseThreshold.
func NewMatrix(c int) *Matrix {
	if c < 0 {
		panic(fmt.Sprintf("sparse: negative block count %d", c))
	}
	m := &Matrix{c: c}
	if c <= DenseThreshold {
		m.dense = make([]int64, c*c)
	} else {
		m.rows = make([]nzlist, c)
		m.cols = make([]nzlist, c)
	}
	return m
}

// FromColumns returns the C×C matrix of unit entries grouped by column:
// rows[start[s]:start[s+1]] lists the row of every unit entry in column
// s, in any order and with repeats, so M[r][s] is the number of times r
// appears there. start has c+1 offsets. The storage mode is the one
// NewMatrix picks for c.
//
// Sparse mode sorts nothing: a counting pass scatters the entries into
// rows, visiting the columns in ascending order, so each row's columns
// come out ascending with repeats adjacent, and the column lists are
// the transpose of the finished rows. Each side's lists are carved from
// one backing array sized to the nonzeros, with capacity capped at each
// list's end, so an Add that grows a list reallocates it instead of
// writing into the next.
func FromColumns(c int, start []int, rows []int32) *Matrix {
	m := NewMatrix(c)
	if m.dense != nil {
		for s := 0; s < c; s++ {
			for _, r := range rows[start[s]:start[s+1]] {
				m.dense[int(r)*c+s]++
			}
		}
		return m
	}

	// at[r] starts as the offset of row r in byRow and ends as the offset
	// of row r+1.
	at := make([]int, c+1)
	for _, r := range rows[start[0]:start[c]] {
		at[r+1]++
	}
	for r := 1; r <= c; r++ {
		at[r] += at[r-1]
	}
	byRow := make([]int32, at[c])
	for s := 0; s < c; s++ {
		for _, r := range rows[start[s]:start[s+1]] {
			byRow[at[r]] = int32(s)
			at[r]++
		}
	}

	// Each run of equal columns in a row is one nonzero. Count them
	// first, so both sides are sized to the nonzeros; colAt[s+1] counts
	// column s's.
	colAt := make([]int, c+1)
	nnz, lo := 0, 0
	for r := 0; r < c; r++ {
		for i := lo; i < at[r]; i++ {
			if i == lo || byRow[i] != byRow[i-1] {
				colAt[byRow[i]+1]++
				nnz++
			}
		}
		lo = at[r]
	}
	keys := make([]int32, nnz)
	vals := make([]int64, nnz)
	k := 0
	lo = 0
	for r := 0; r < c; r++ {
		a := k
		for i := lo; i < at[r]; i++ {
			if i == lo || byRow[i] != byRow[i-1] {
				keys[k] = byRow[i]
				k++
			}
			vals[k-1]++
		}
		m.rows[r] = nzlist{keys: keys[a:k:k], vals: vals[a:k:k]}
		lo = at[r]
	}

	// colAt[s] starts as the offset of column s and ends as the offset
	// of column s+1.
	for s := 1; s <= c; s++ {
		colAt[s] += colAt[s-1]
	}
	colKeys := make([]int32, nnz)
	colVals := make([]int64, nnz)
	for r := range m.rows {
		row := &m.rows[r]
		for i, s := range row.keys {
			colKeys[colAt[s]] = int32(r)
			colVals[colAt[s]] = row.vals[i]
			colAt[s]++
		}
	}
	lo = 0
	for s := 0; s < c; s++ {
		hi := colAt[s]
		m.cols[s] = nzlist{keys: colKeys[lo:hi:hi], vals: colVals[lo:hi:hi]}
		lo = hi
	}
	return m
}

// NumBlocks returns C.
func (m *Matrix) NumBlocks() int { return m.c }

// IsDense reports whether the matrix currently uses dense storage.
func (m *Matrix) IsDense() bool { return m.dense != nil }

// Get returns M[r][s].
func (m *Matrix) Get(r, s int) int64 {
	if m.dense != nil {
		return m.dense[r*m.c+s]
	}
	return m.rows[r].get(int32(s))
}

// Add adds delta to M[r][s]. Counts must remain non-negative; Add panics
// on underflow, which indicates a bookkeeping bug in the caller.
func (m *Matrix) Add(r, s int, delta int64) {
	if delta == 0 {
		return
	}
	if m.dense != nil {
		v := m.dense[r*m.c+s] + delta
		if v < 0 {
			panic(fmt.Sprintf("sparse: M[%d][%d] underflow to %d", r, s, v))
		}
		m.dense[r*m.c+s] = v
		return
	}
	if v := m.rows[r].add(int32(s), delta); v < 0 {
		panic(fmt.Sprintf("sparse: M[%d][%d] underflow to %d", r, s, v))
	}
	m.cols[s].add(int32(r), delta)
}

// RowNZ calls fn(s, count) for every nonzero M[r][s] in ascending s
// order (both modes — the deterministic-accumulation guarantee).
// fn must not mutate the matrix.
func (m *Matrix) RowNZ(r int, fn func(s int32, count int64)) {
	if m.dense != nil {
		base := r * m.c
		for s := 0; s < m.c; s++ {
			if v := m.dense[base+s]; v != 0 {
				fn(int32(s), v)
			}
		}
		return
	}
	row := &m.rows[r]
	for i, s := range row.keys {
		fn(s, row.vals[i])
	}
}

// ColNZ calls fn(r, count) for every nonzero M[r][s] in ascending r
// order (both modes).
func (m *Matrix) ColNZ(s int, fn func(r int32, count int64)) {
	if m.dense != nil {
		for r := 0; r < m.c; r++ {
			if v := m.dense[r*m.c+s]; v != 0 {
				fn(int32(r), v)
			}
		}
		return
	}
	col := &m.cols[s]
	for i, r := range col.keys {
		fn(r, col.vals[i])
	}
}

// RowNZUntil is RowNZ with early exit: iteration stops when fn returns
// false. Returns false if iteration was stopped early.
func (m *Matrix) RowNZUntil(r int, fn func(s int32, count int64) bool) bool {
	if m.dense != nil {
		base := r * m.c
		for s := 0; s < m.c; s++ {
			if v := m.dense[base+s]; v != 0 {
				if !fn(int32(s), v) {
					return false
				}
			}
		}
		return true
	}
	row := &m.rows[r]
	for i, s := range row.keys {
		if !fn(s, row.vals[i]) {
			return false
		}
	}
	return true
}

// ColNZUntil is ColNZ with early exit: iteration stops when fn returns
// false. Returns false if iteration was stopped early.
func (m *Matrix) ColNZUntil(s int, fn func(r int32, count int64) bool) bool {
	if m.dense != nil {
		for r := 0; r < m.c; r++ {
			if v := m.dense[r*m.c+s]; v != 0 {
				if !fn(int32(r), v) {
					return false
				}
			}
		}
		return true
	}
	col := &m.cols[s]
	for i, r := range col.keys {
		if !fn(r, col.vals[i]) {
			return false
		}
	}
	return true
}

// RowView returns row r's nonzero entries as parallel key/value slices
// sorted ascending by key, the zero-overhead form of RowNZ for kernel
// loops that cannot afford a callback per entry. ok is false in dense
// mode (use DenseData there). The slices alias the matrix: the caller
// must not mutate them, and any Add invalidates the view.
func (m *Matrix) RowView(r int) (keys []int32, vals []int64, ok bool) {
	if m.dense != nil {
		return nil, nil, false
	}
	row := &m.rows[r]
	return row.keys, row.vals, true
}

// ColView is RowView for column s; keys are row indices, ascending.
func (m *Matrix) ColView(s int) (keys []int32, vals []int64, ok bool) {
	if m.dense != nil {
		return nil, nil, false
	}
	col := &m.cols[s]
	return col.keys, col.vals, true
}

// DenseData returns the row-major C×C backing array in dense mode; ok
// is false in sparse mode. Same aliasing contract as RowView: read
// only, invalidated by Add.
func (m *Matrix) DenseData() (data []int64, ok bool) {
	return m.dense, m.dense != nil
}

// RowSum returns the sum of row r (the out-degree of block r).
func (m *Matrix) RowSum(r int) int64 {
	var sum int64
	m.RowNZ(r, func(_ int32, v int64) { sum += v })
	return sum
}

// ColSum returns the sum of column s (the in-degree of block s).
func (m *Matrix) ColSum(s int) int64 {
	var sum int64
	m.ColNZ(s, func(_ int32, v int64) { sum += v })
	return sum
}

// Total returns the sum of all entries (the edge count E).
func (m *Matrix) Total() int64 {
	var sum int64
	if m.dense != nil {
		for _, v := range m.dense {
			sum += v
		}
		return sum
	}
	for r := range m.rows {
		for _, v := range m.rows[r].vals {
			sum += v
		}
	}
	return sum
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{c: m.c}
	if m.dense != nil {
		out.dense = make([]int64, len(m.dense))
		copy(out.dense, m.dense)
		return out
	}
	out.rows = make([]nzlist, m.c)
	out.cols = make([]nzlist, m.c)
	for r := range m.rows {
		out.rows[r] = m.rows[r].clone()
	}
	for s := range m.cols {
		out.cols[s] = m.cols[s].clone()
	}
	return out
}

// NonZeros returns the number of nonzero entries.
func (m *Matrix) NonZeros() int {
	n := 0
	if m.dense != nil {
		for _, v := range m.dense {
			if v != 0 {
				n++
			}
		}
		return n
	}
	for r := range m.rows {
		n += len(m.rows[r].keys)
	}
	return n
}

// Equal reports whether m and o hold identical counts (representation-
// independent).
func (m *Matrix) Equal(o *Matrix) bool {
	if m.c != o.c {
		return false
	}
	equal := true
	for r := 0; r < m.c && equal; r++ {
		m.RowNZ(r, func(s int32, v int64) {
			if o.Get(r, int(s)) != v {
				equal = false
			}
		})
		o.RowNZ(r, func(s int32, v int64) {
			if m.Get(r, int(s)) != v {
				equal = false
			}
		})
	}
	return equal
}
