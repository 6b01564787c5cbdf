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
// assignment into c blocks. workers no longer changes anything: the
// count runs on the calling goroutine.
func FromAssignment(g *graph.Graph, assignment []int32, c int, workers int) (*Blockmodel, error) {
	if len(assignment) != g.NumVertices() {
		return nil, fmt.Errorf("blockmodel: assignment length %d != vertex count %d", len(assignment), g.NumVertices())
	}
	for v, b := range assignment {
		if b < 0 || int(b) >= c {
			return nil, fmt.Errorf("blockmodel: vertex %d assigned to block %d outside [0,%d)", v, b, c)
		}
	}
	bm := &Blockmodel{G: g, C: c, Assignment: append([]int32(nil), assignment...)}
	bm.rebuildCounts(nil)
	return bm, nil
}

// FromCheckpoint rebuilds a blockmodel from a checkpointed membership
// and verifies the rebuilt description length equals the stored one
// bit-for-bit. Edge counts are integers, so the MDL recomputation is
// exact — any mismatch means the membership does not belong to this
// graph (wrong file, wrong graph, or corruption the container checksum
// cannot see), and resuming from it would silently diverge.
func FromCheckpoint(g *graph.Graph, membership []int32, c int, wantMDL float64) (*Blockmodel, error) {
	bm, err := FromAssignment(g, membership, c, 1)
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
func Identity(g *graph.Graph) *Blockmodel {
	n := g.NumVertices()
	assignment := make([]int32, n)
	for v := range assignment {
		assignment[v] = int32(v)
	}
	bm, err := FromAssignment(g, assignment, n, 1)
	if err != nil {
		panic(err) // identity assignment is always valid
	}
	return bm
}

// rebuildCounts recomputes M, degrees and sizes from Assignment on one
// goroutine, in O(V + E + C) time: one pass over the vertices sums the
// degrees and sizes, and a counting pass lists, for each block s, the
// tail's block of every edge whose head is in s. Those lists are the
// columns of M.
//
// Given a Scratch (ApplyMoves' recount, at an unchanged C) it refills
// the degrees, sizes and M in place and takes its lists from sc, so a
// warmed recount in dense storage allocates nothing. Without one
// (FromAssignment, and renumber at a new C) it allocates them all, a
// fixed number of allocations.
func (bm *Blockmodel) rebuildCounts(sc *Scratch) {
	g, c := bm.G, bm.C
	inPlace := sc != nil
	if inPlace {
		clear(bm.DOut)
		clear(bm.DIn)
		clear(bm.Sizes)
	} else {
		sc = &Scratch{}
		bm.DOut = make([]int64, c)
		bm.DIn = make([]int64, c)
		bm.DTot = make([]int64, c)
		bm.Sizes = make([]int32, c)
	}
	for v, r := range bm.Assignment {
		bm.Sizes[r]++
		bm.DOut[r] += int64(g.OutDegree(v))
		bm.DIn[r] += int64(g.InDegree(v))
	}
	// at[s] starts as the end of column s and is counted down to its
	// start while the column is filled.
	sc.at = resize(sc.at, c+1)
	at := sc.at
	e := 0
	for s := 0; s < c; s++ {
		bm.DTot[s] = bm.DOut[s] + bm.DIn[s]
		e += int(bm.DIn[s])
		at[s] = e
	}
	at[c] = e
	sc.tails = resize(sc.tails, e)
	tails := sc.tails
	for v, s := range bm.Assignment {
		in := g.InNeighbors(v)
		at[s] -= len(in)
		col := tails[at[s] : at[s]+len(in)]
		for i, u := range in {
			col[i] = bm.Assignment[u]
		}
	}
	if inPlace {
		bm.M.Refill(at, tails)
	} else {
		bm.M = sparse.FromColumns(c, at, tails)
	}
}

// resize returns s with length n, reusing its array when it is large
// enough. The contents are left as they were.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// recountShare is the share of the 2E edge endpoints, counted at the
// vertices whose block changed, above which ApplyMoves recounts every
// count instead of applying the moves one by one.
// BenchmarkRebuild times both paths with 1% to 50% of the vertices
// moved. On a 2-vCPU linux-amd64 host (medians of six runs at -cpu 1)
// they cross near 5% moved in sparse mode (5,000 vertices at C=V/2: a
// recount takes about 1.6 ms, the update 0.29 ms at 1% and 3.9 ms at
// 10%) and near 20% in dense mode (the planted C=32 partition: about
// 0.27 ms, against 0.13 ms at 10% and 0.26 ms at 20%). At the top of
// dense storage, C=512 with 10% of the cells nonzero, they cross near
// 27% (a recount 0.30–0.34 ms, the update 7.5 µs at 1%, 0.20 ms at 20%
// and 0.68 ms at 50%); one block above it, in sparse storage, near 3%
// (0.57–0.65 ms, against 0.16 ms at 1% and 0.95 ms at 5%). One constant
// serves both modes, so it sits just above the sparse crossing, where
// the wrong path costs the most. Summed over whole A-SBP and B-SBP
// searches and D-H-SBP phases, rebuild time at 6% was within about 5% of
// its minimum over thresholds, and 4% to 60% lower than at 40%, when
// dense storage ended at 256 blocks. Since it ends at 512, a share of
// 0.27 in dense storage was no faster on either search workload of the
// end-to-end benchmark (3 pairs each).
const recountShare = 0.06

// ApplyMoves brings the model up to date with accepted moves: the
// "rebuild B from community_membership" step after each asynchronous
// pass (Algorithms 3 and 4), and a rank's update from its peers' moves.
// Each list holds flat (vertex, block) pairs, applied in order, so a
// vertex listed twice ends in its last block.
//
// When the moved vertices hold at most recountShare of the edge
// endpoints, each move goes through ApplyMove's update, one pair of
// Adds per distinct neighbour block, without allocating once sc and
// the sparse rows have grown; otherwise every count is recounted in
// place, without allocating in dense storage once sc has grown. Both
// paths run on the calling goroutine. M holds integer counts and sparse
// rows stay sorted, so both leave the identical state. It reports
// whether it recounted.
func (bm *Blockmodel) ApplyMoves(lists [][]int32, sc *Scratch) (recounted bool) {
	var moved int64
	for _, l := range lists {
		for i := 0; i < len(l); i += 2 {
			if v := l[i]; bm.Assignment[v] != l[i+1] {
				moved += int64(bm.G.Degree(int(v)))
			}
		}
	}
	if float64(moved) <= recountShare*float64(2*bm.G.NumEdges()) {
		bm.applyEach(lists, sc)
		return false
	}
	for _, l := range lists {
		for i := 0; i < len(l); i += 2 {
			bm.Assignment[l[i]] = l[i+1]
		}
	}
	bm.rebuildCounts(sc)
	return true
}

// applyEach is ApplyMoves' incremental path: every move that changes a
// vertex's block is tallied against the current assignment and applied
// as ApplyMove applies it.
func (bm *Blockmodel) applyEach(lists [][]int32, sc *Scratch) {
	for _, l := range lists {
		for i := 0; i < len(l); i += 2 {
			v, s := int(l[i]), l[i+1]
			if r := bm.Assignment[v]; r != s {
				bm.apply(v, r, s, bm.CountVertex(v, bm.Assignment, sc))
			}
		}
	}
}

// RebuildFrom replaces the assignment with membership and brings every
// count up to date: ApplyMoves with the vertices whose block differs as
// the move list. It allocates nothing when nothing moved, and workers
// no longer changes anything. It reports whether it recounted.
func (bm *Blockmodel) RebuildFrom(membership []int32, workers int) (recounted bool) {
	var moves []int32
	for v, b := range membership {
		if b != bm.Assignment[v] {
			moves = append(moves, int32(v), b)
		}
	}
	if moves == nil {
		return false
	}
	return bm.ApplyMoves([][]int32{moves}, NewScratch())
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
func (bm *Blockmodel) Compact() []int32 {
	remap, kept := keepNonEmpty(bm.Sizes)
	if kept < bm.C {
		bm.renumber(remap, kept)
	}
	return remap
}

// Relabel moves every vertex of block r to block to[r], drops the
// blocks this leaves empty with Compact's renumbering, and recounts once
// at the new block count. The merge phase applies its merges this way.
func (bm *Blockmodel) Relabel(to []int32) {
	sizes := make([]int32, bm.C)
	for r, t := range to {
		sizes[t] += bm.Sizes[r]
	}
	keep, kept := keepNonEmpty(sizes)
	remap := make([]int32, bm.C)
	for r, t := range to {
		remap[r] = keep[t]
	}
	bm.renumber(remap, kept)
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
func (bm *Blockmodel) renumber(remap []int32, c int) {
	for v, b := range bm.Assignment {
		bm.Assignment[v] = remap[b]
	}
	bm.C = c
	bm.rebuildCounts(nil)
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
