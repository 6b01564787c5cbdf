package check

// Native fuzz targets that drive random move/merge sequences through the
// incremental bookkeeping and cross-check every step against the dense
// oracle. A crasher input encodes a (graph, membership, op sequence)
// triple; reproduce one with
//
//	go test -run FuzzDeltaMDL/SEEDNAME ./internal/check
//
// after `go test -fuzz` writes it to testdata/fuzz/<Target>/.

import (
	"testing"

	"repro/internal/blockmodel"
	"repro/internal/graph"
)

// fuzzModel decodes a byte string into a small blockmodel plus the
// remaining op bytes. Layout:
//
//	data[0] → vertex count n in [3, 12]
//	data[1] → block count c in [2, 5]
//	data[2] → edge count target (capped by remaining bytes)
//	2 bytes per edge (src, dst — self-loops and multi-edges allowed)
//	n bytes of membership
//	rest: ops for the fuzz target
//
// Returns ok=false when data is too short to decode a model.
func fuzzModel(data []byte) (bm *blockmodel.Blockmodel, ops []byte, ok bool) {
	if len(data) < 8 {
		return nil, nil, false
	}
	n := 3 + int(data[0]%10)
	c := 2 + int(data[1]%4)
	ne := int(data[2]) % (4 * n)
	pos := 3
	edges := make([]graph.Edge, 0, ne)
	for len(edges) < ne && pos+1 < len(data) {
		edges = append(edges, graph.Edge{
			Src: int32(int(data[pos]) % n),
			Dst: int32(int(data[pos+1]) % n),
		})
		pos += 2
	}
	g := graph.MustNew(n, edges)
	b := make([]int32, n)
	for v := range b {
		if pos < len(data) {
			b[v] = int32(int(data[pos]) % c)
			pos++
		} else {
			b[v] = int32(v % c)
		}
	}
	m, err := blockmodel.FromAssignment(g, b, c, 1)
	if err != nil {
		return nil, nil, false
	}
	return m, data[pos:], true
}

// FuzzDeltaMDL drives a random vertex-move sequence: every EvalMove's ΔS
// and HastingsCorrection must match the oracle's apply-and-recompute
// values, every move is then applied, and the final state must satisfy
// all blockmodel invariants.
func FuzzDeltaMDL(f *testing.F) {
	f.Add([]byte("\x05\x02\x10" + "\x01\x02\x03\x04\x05\x06\x00\x01" + "\x00\x01\x00\x01\x01" + "\x02\x01\x04\x00"))
	f.Add([]byte("0123456789abcdef0123456789abcdef"))
	f.Add([]byte("\x09\x03\x20graphgraphgraphgraphmoves!"))
	f.Fuzz(func(t *testing.T, data []byte) {
		bm, ops, ok := fuzzModel(data)
		if !ok {
			t.Skip()
		}
		n := bm.G.NumVertices()
		sc := blockmodel.NewScratch()
		steps := 0
		for i := 0; i+1 < len(ops) && steps < 48; i, steps = i+2, steps+1 {
			v := int(ops[i]) % n
			s := int32(int(ops[i+1]) % bm.C)
			md := bm.EvalMove(v, s, bm.Assignment, sc)
			if err := CheckMoveDelta(bm, bm.Assignment, v, s, md.DeltaS); err != nil {
				t.Fatal(err)
			}
			h := bm.HastingsCorrection(&md)
			if err := CheckHastings(bm, bm.Assignment, v, s, h); err != nil {
				t.Fatal(err)
			}
			bm.ApplyMove(md)
		}
		if err := Invariants(bm); err != nil {
			t.Fatalf("invariants after %d moves: %v", steps, err)
		}
	})
}

// FuzzMergeDelta drives random merge sequences: every EvalMerge ΔS must
// match the oracle, and each applied merge (relabel + rebuild, as the
// merge phase does it) must leave a consistent state.
func FuzzMergeDelta(f *testing.F) {
	f.Add([]byte("\x06\x03\x14" + "\x01\x02\x02\x03\x03\x04\x04\x05\x05\x00" + "\x00\x01\x02\x00\x01\x02" + "\x00\x01\x02\x00"))
	f.Add([]byte("fedcba9876543210fedcba9876543210"))
	f.Fuzz(func(t *testing.T, data []byte) {
		bm, ops, ok := fuzzModel(data)
		if !ok {
			t.Skip()
		}
		sc := blockmodel.NewScratch()
		steps := 0
		for i := 0; i+1 < len(ops) && steps < 12; i, steps = i+2, steps+1 {
			r := int32(int(ops[i]) % bm.C)
			s := int32(int(ops[i+1]) % bm.C)
			d := bm.EvalMerge(r, s, sc)
			if err := CheckMergeDelta(bm, r, s, d); err != nil {
				t.Fatal(err)
			}
			if r == s {
				continue
			}
			// Move the whole block with RebuildFrom, then revalidate
			// everything.
			membership := append([]int32(nil), bm.Assignment...)
			for v, b := range membership {
				if b == r {
					membership[v] = s
				}
			}
			bm.RebuildFrom(membership, 1)
			if err := Invariants(bm); err != nil {
				t.Fatalf("invariants after merge %d→%d: %v", r, s, err)
			}
		}
	})
}

// FuzzRebuildFrom drives random small membership rewrites through
// RebuildFrom — a few vertices at a time, so both its incremental
// update and its recount run — and requires a consistent state after
// every rewrite. Op layout: one byte picks how many vertices move (1–3),
// then one (vertex, block) byte pair per move.
func FuzzRebuildFrom(f *testing.F) {
	f.Add([]byte("\x05\x03\x0a" + "\x00\x01\x01\x00\x00\x00\x02\x03\x03\x04\x04\x02\x05\x06\x06\x07\x07\x05\x01\x05" +
		"\x00\x00\x01\x01\x01\x02\x02\x02" + "\x00\x00\x03" + "\x01\x00\x01\x01\x01" + "\x02\x02\x00\x03\x00\x04\x00" + "\x01\x05\x04\x02\x01"))
	f.Add([]byte("0123456789abcdef0123456789abcdef"))
	f.Add([]byte("\x0b\x04\x30rebuildrebuildrebuildrebuildmovesmoves"))
	f.Fuzz(func(t *testing.T, data []byte) {
		bm, ops, ok := fuzzModel(data)
		if !ok {
			t.Skip()
		}
		n := bm.G.NumVertices()
		membership := append([]int32(nil), bm.Assignment...)
		steps := 0
		for i := 0; i < len(ops) && steps < 16; steps++ {
			k := 1 + int(ops[i])%3
			i++
			for ; k > 0 && i+1 < len(ops); k, i = k-1, i+2 {
				membership[int(ops[i])%n] = int32(int(ops[i+1]) % bm.C)
			}
			bm.RebuildFrom(membership, 1)
			if err := Invariants(bm); err != nil {
				t.Fatalf("invariants after rewrite %d: %v", steps, err)
			}
		}
	})
}
