// Package blockmodel implements the degree-corrected stochastic
// blockmodel (DCSBM) state that stochastic block partitioning performs
// inference over: the community assignment vector, the C×C block matrix
// of edge counts, per-block degree totals, and the minimum description
// length (MDL) objective together with its incremental deltas for vertex
// moves and block merges.
package blockmodel

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// Blockmodel is the full inference state for one graph. All counts are
// derivable from (G, Assignment); the matrix and degree vectors are
// maintained incrementally for speed and can be revalidated with Validate.
//
// A Blockmodel is not safe for concurrent mutation. The asynchronous
// Gibbs engines read a Blockmodel concurrently while writing only their
// private membership copies, then rebuild.
type Blockmodel struct {
	G *graph.Graph

	// C is the number of blocks, counting blocks that have become empty
	// through vertex moves (blocks are only renumbered by merges).
	C int

	// Assignment[v] is the block of vertex v, in [0, C).
	Assignment []int32

	// M[r][s] is the number of edges from block r to block s.
	M *sparse.Matrix

	// DOut[r], DIn[r], DTot[r] are the out-, in- and total degree of
	// block r (sums over member vertices; DTot = DOut + DIn).
	DOut, DIn, DTot []int64

	// Sizes[r] is the number of vertices in block r.
	Sizes []int32
}

// FromAssignment builds a consistent Blockmodel for g with the given
// assignment into c blocks. workers controls build parallelism (<=0 means
// GOMAXPROCS).
func FromAssignment(g *graph.Graph, assignment []int32, c int, workers int) (*Blockmodel, error) {
	if len(assignment) != g.NumVertices() {
		return nil, fmt.Errorf("blockmodel: assignment length %d != vertex count %d", len(assignment), g.NumVertices())
	}
	for v, b := range assignment {
		if b < 0 || int(b) >= c {
			return nil, fmt.Errorf("blockmodel: vertex %d assigned to block %d outside [0,%d)", v, b, c)
		}
	}
	bm := &Blockmodel{
		G:          g,
		C:          c,
		Assignment: append([]int32(nil), assignment...),
		M:          sparse.NewMatrix(c),
		DOut:       make([]int64, c),
		DIn:        make([]int64, c),
		DTot:       make([]int64, c),
		Sizes:      make([]int32, c),
	}
	bm.rebuildCounts(workers)
	return bm, nil
}

// FromCheckpoint rebuilds a blockmodel from a checkpointed membership
// and verifies the rebuilt description length equals the stored one
// bit-for-bit. Edge counts are integers, so the MDL recomputation is
// exact regardless of rebuild parallelism — any mismatch means the
// membership does not belong to this graph (wrong file, wrong graph,
// or corruption the container checksum cannot see), and resuming from
// it would silently diverge.
func FromCheckpoint(g *graph.Graph, membership []int32, c int, wantMDL float64, workers int) (*Blockmodel, error) {
	bm, err := FromAssignment(g, membership, c, workers)
	if err != nil {
		return nil, err
	}
	if got := bm.MDL(); got != wantMDL {
		return nil, fmt.Errorf("blockmodel: checkpoint MDL mismatch: rebuilt %v, stored %v (membership does not match this graph)", got, wantMDL)
	}
	return bm, nil
}

// Identity returns the trivial blockmodel with every vertex in its own
// block — the starting state of SBP.
func Identity(g *graph.Graph, workers int) *Blockmodel {
	n := g.NumVertices()
	assignment := make([]int32, n)
	for v := range assignment {
		assignment[v] = int32(v)
	}
	bm, err := FromAssignment(g, assignment, n, workers)
	if err != nil {
		panic(err) // identity assignment is always valid
	}
	return bm
}

// rebuildCounts recomputes M, degrees and sizes from Assignment.
// The degree and size accumulation is parallelised over vertex ranges
// with per-worker partial vectors; the matrix fill is parallelised over
// source-vertex ranges with per-worker partial matrices that are merged,
// mirroring the paper's parallel reconstruction of B after each
// asynchronous sweep.
func (bm *Blockmodel) rebuildCounts(workers int) {
	n := bm.G.NumVertices()
	c := bm.C
	workers = parallel.DefaultWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	type partial struct {
		m     *sparse.Matrix
		dOut  []int64
		dIn   []int64
		sizes []int32
	}
	parts := make([]partial, workers)
	parallel.ForChunked(n, workers, func(lo, hi, w int) {
		p := partial{
			m:     sparse.NewMatrix(c),
			dOut:  make([]int64, c),
			dIn:   make([]int64, c),
			sizes: make([]int32, c),
		}
		for v := lo; v < hi; v++ {
			r := bm.Assignment[v]
			p.sizes[r]++
			out := bm.G.OutNeighbors(v)
			p.dOut[r] += int64(len(out))
			p.dIn[r] += int64(bm.G.InDegree(v))
			for _, u := range out {
				p.m.Add(int(r), int(bm.Assignment[u]), 1)
			}
		}
		parts[w] = p
	})

	m := sparse.NewMatrix(c)
	dOut := make([]int64, c)
	dIn := make([]int64, c)
	sizes := make([]int32, c)
	for _, p := range parts {
		if p.m == nil {
			continue
		}
		for r := 0; r < c; r++ {
			dOut[r] += p.dOut[r]
			dIn[r] += p.dIn[r]
			sizes[r] += p.sizes[r]
			p.m.RowNZ(r, func(s int32, count int64) {
				m.Add(r, int(s), count)
			})
		}
	}
	bm.M = m
	bm.DOut = dOut
	bm.DIn = dIn
	bm.Sizes = sizes
	bm.DTot = make([]int64, c)
	for r := 0; r < c; r++ {
		bm.DTot[r] = dOut[r] + dIn[r]
	}
}

// recountShare is the share of the 2E edge endpoints, counted at the
// vertices whose block changed, above which RebuildFrom recounts every
// count in parallel instead of re-bucketing the moved vertices' edges.
// BenchmarkRebuild times both paths with 1%, 10% and 50% of vertices
// moved. On a 2-vCPU linux-amd64 host (5,000 vertices, a 2-worker
// recount) they cross near 18% moved in dense mode (C=32, where a
// recount takes about 0.2 ms) and near 50% in sparse mode (C=V/2, about
// 11 ms). One constant serves both, so it sits nearer the sparse
// crossing, where the wrong path costs fifty times more.
const recountShare = 0.4

// RebuildFrom replaces the assignment with membership and brings every
// count up to date: the "rebuild B from community_membership" step at
// the end of each asynchronous Gibbs sweep (Algorithms 3 and 4). When
// the vertices whose block changed hold at most recountShare of the
// edge endpoints, only their edges are re-bucketed, on the calling
// goroutine and without allocating once the sparse rows have grown;
// otherwise every count is recounted over workers. M holds integer
// counts and sparse rows stay sorted, so both paths leave the identical
// state. It reports whether it recounted.
func (bm *Blockmodel) RebuildFrom(membership []int32, workers int) (recounted bool) {
	var moved int64
	for v, b := range membership {
		if b != bm.Assignment[v] {
			moved += int64(bm.G.Degree(v))
		}
	}
	if float64(moved) > recountShare*float64(2*bm.G.NumEdges()) {
		copy(bm.Assignment, membership)
		bm.rebuildCounts(workers)
		return true
	}
	bm.moveVertices(membership)
	return false
}

// moveVertices is RebuildFrom's incremental path. Each moved vertex
// takes its size and degrees from its old block to its new one, and
// each edge is re-bucketed once: from its tail's side when the tail
// moved (self-loops included), else from its head's side.
func (bm *Blockmodel) moveVertices(membership []int32) {
	old := bm.Assignment
	for v, s := range membership {
		r := old[v]
		if r == s {
			continue
		}
		out, in := bm.G.OutNeighbors(v), bm.G.InNeighbors(v)
		bm.Sizes[r]--
		bm.Sizes[s]++
		bm.DOut[r] -= int64(len(out))
		bm.DOut[s] += int64(len(out))
		bm.DIn[r] -= int64(len(in))
		bm.DIn[s] += int64(len(in))
		bm.DTot[r] = bm.DOut[r] + bm.DIn[r]
		bm.DTot[s] = bm.DOut[s] + bm.DIn[s]
		for _, u := range out {
			bm.M.Add(int(r), int(old[u]), -1)
			bm.M.Add(int(s), int(membership[u]), 1)
		}
		for _, u := range in {
			if t := old[u]; t == membership[u] {
				bm.M.Add(int(t), int(r), -1)
				bm.M.Add(int(t), int(s), 1)
			}
		}
	}
	copy(bm.Assignment, membership)
}

// Clone returns a deep copy of bm (sharing the immutable graph).
func (bm *Blockmodel) Clone() *Blockmodel {
	return &Blockmodel{
		G:          bm.G,
		C:          bm.C,
		Assignment: append([]int32(nil), bm.Assignment...),
		M:          bm.M.Clone(),
		DOut:       append([]int64(nil), bm.DOut...),
		DIn:        append([]int64(nil), bm.DIn...),
		DTot:       append([]int64(nil), bm.DTot...),
		Sizes:      append([]int32(nil), bm.Sizes...),
	}
}

// NumNonEmptyBlocks returns the number of blocks with at least one vertex.
func (bm *Blockmodel) NumNonEmptyBlocks() int {
	n := 0
	for _, s := range bm.Sizes {
		if s > 0 {
			n++
		}
	}
	return n
}

// Compact renumbers blocks to remove empty ones, returning the mapping
// from old to new block ids (-1 for removed blocks). Used after the merge
// phase and after MCMC phases that empty blocks.
func (bm *Blockmodel) Compact(workers int) []int32 {
	remap, kept := keepNonEmpty(bm.Sizes)
	if kept < bm.C {
		bm.renumber(remap, kept, workers)
	}
	return remap
}

// Relabel moves every vertex of block r to block to[r], drops the
// blocks this leaves empty with Compact's renumbering, and recounts once
// at the new block count. The merge phase applies its merges this way.
func (bm *Blockmodel) Relabel(to []int32, workers int) {
	sizes := make([]int32, bm.C)
	for r, t := range to {
		sizes[t] += bm.Sizes[r]
	}
	keep, kept := keepNonEmpty(sizes)
	remap := make([]int32, bm.C)
	for r, t := range to {
		remap[r] = keep[t]
	}
	bm.renumber(remap, kept, workers)
}

// keepNonEmpty is Compact's renumbering rule: the blocks of nonzero size
// are numbered 0, 1, … in ascending old id, and empty blocks map to -1.
// It returns the map and the number of blocks kept.
func keepNonEmpty(sizes []int32) (remap []int32, kept int) {
	remap = make([]int32, len(sizes))
	for r, n := range sizes {
		if n > 0 {
			remap[r] = int32(kept)
			kept++
		} else {
			remap[r] = -1
		}
	}
	return remap, kept
}

// renumber maps every vertex's block through remap, shrinks C to c and
// recounts.
func (bm *Blockmodel) renumber(remap []int32, c, workers int) {
	for v, b := range bm.Assignment {
		bm.Assignment[v] = remap[b]
	}
	bm.C = c
	bm.rebuildCounts(workers)
}

// Validate recomputes all counts from scratch and reports the first
// inconsistency found, or nil. Used by tests and failure-injection
// checks; O(V + E).
func (bm *Blockmodel) Validate() error {
	fresh, err := FromAssignment(bm.G, bm.Assignment, bm.C, 1)
	if err != nil {
		return err
	}
	if !bm.M.Equal(fresh.M) {
		return fmt.Errorf("blockmodel: block matrix inconsistent with assignment")
	}
	for r := 0; r < bm.C; r++ {
		if bm.DOut[r] != fresh.DOut[r] {
			return fmt.Errorf("blockmodel: DOut[%d]=%d, want %d", r, bm.DOut[r], fresh.DOut[r])
		}
		if bm.DIn[r] != fresh.DIn[r] {
			return fmt.Errorf("blockmodel: DIn[%d]=%d, want %d", r, bm.DIn[r], fresh.DIn[r])
		}
		if bm.DTot[r] != fresh.DTot[r] {
			return fmt.Errorf("blockmodel: DTot[%d]=%d, want %d", r, bm.DTot[r], fresh.DTot[r])
		}
		if bm.Sizes[r] != fresh.Sizes[r] {
			return fmt.Errorf("blockmodel: Sizes[%d]=%d, want %d", r, bm.Sizes[r], fresh.Sizes[r])
		}
	}
	return nil
}
