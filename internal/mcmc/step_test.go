package mcmc

import (
	"math"
	"testing"

	"repro/internal/blockmodel"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// stepKind classifies one visit by the branch step's decision takes.
type stepKind int

const (
	notProposed   stepKind = iota
	singleton              // a move out of a one-vertex block
	boundRejected          // e·bound < 1 and u ≥ e·bound: rejected without H
	walkedAccept           // e·bound < 1, u < e·bound, H walked, accepted
	walkedReject           // e·bound < 1, u < e·bound, H walked, rejected
	boundAbove             // e·bound ≥ 1: the full rule
	numStepKinds
)

// fullRuleStep is the rule step must reproduce: it always walks for
// the Hastings correction and accepts iff a ≥ 1 or u < a, drawing u
// only when a < 1. It also classifies the visit by the branch step
// takes.
func fullRuleStep(bm *blockmodel.Blockmodel, v int, beta float64, rn *rng.RNG, sc *blockmodel.Scratch) (proposed, accepted bool, to int32, kind stepKind) {
	s := bm.ProposeVertexMove(v, bm.Assignment, rn)
	if s == bm.Assignment[v] {
		return false, false, s, notProposed
	}
	md := bm.EvalMove(v, s, bm.Assignment, sc)
	if md.EmptiesSrc {
		return true, false, s, singleton
	}
	e := math.Exp(-beta * md.DeltaS)
	a := e * bm.HastingsCorrection(&md)
	eb := e * bm.HastingsBound()
	if eb >= 1 {
		kind = boundAbove
	} else if peek := *rn; peek.Float64() >= eb {
		kind = boundRejected
	} else {
		kind = walkedReject
	}
	accepted = a >= 1 || rn.Float64() < a
	if accepted && kind == walkedReject {
		kind = walkedAccept
	}
	return true, accepted, s, kind
}

// TestStepMatchesFullHastingsRule requires step to decide every visit
// as the full rule does: the same (proposed, accepted, target) and the
// same RNG state afterwards, so every later draw is the same too. It
// drives the four engines' schedules — serial moves applied live, async
// passes rebuilt after each pass — from random partitions in dense and
// sparse storage at C = V/2, where many blocks are singletons, and on
// tiny graphs, whose bound is small enough that walking for H often
// accepts. Each branch of step's decision must be reached at least
// 1,000 times.
func TestStepMatchesFullHastingsRule(t *testing.T) {
	var hits [numStepKinds]int
	for _, tc := range []struct {
		name     string
		vertices int
	}{{"dense", 600}, {"sparse", 1400}} {
		g, _, err := gen.Generate(gen.Spec{
			Name: tc.name, Vertices: tc.vertices, Communities: 8, MinDegree: 1, MaxDegree: 40,
			Exponent: 2.1, Ratio: 4, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{SerialMH, AsyncGibbs, Hybrid, BatchedGibbs} {
			bm := randomPartition(t, g, tc.vertices/2, uint64(alg)+3)
			if bm.M.IsDense() != (tc.name == "dense") {
				t.Fatalf("%s: C=%d has the wrong storage mode", tc.name, bm.C)
			}
			driveSteps(t, bm, alg, 4, &hits)
		}
	}
	// A walk for H accepts with probability H/bound, a few percent
	// even on tiny graphs, so they take most of the visits.
	rr := rng.New(5)
	for i := 0; i < 1500; i++ {
		edges := make([]graph.Edge, 12)
		for j := range edges {
			edges[j] = graph.Edge{Src: int32(rr.Intn(12)), Dst: int32(rr.Intn(12))}
		}
		alg := Algorithm(i % 4)
		driveSteps(t, randomPartition(t, graph.MustNew(12, edges), 6, uint64(i)), alg, 40, &hits)
	}
	t.Logf("visits by branch: %v", hits)
	for kind, name := range map[stepKind]string{
		singleton:     "singleton skip",
		boundRejected: "rejected by the bound",
		walkedAccept:  "H walked, accepted",
		walkedReject:  "H walked, rejected",
		boundAbove:    "bound ≥ 1",
	} {
		if hits[kind] < 1000 {
			t.Errorf("branch %q reached %d times, want at least 1,000", name, hits[kind])
		}
	}
}

// randomPartition returns a blockmodel of g with every vertex in a
// uniformly random one of c blocks.
func randomPartition(t *testing.T, g *graph.Graph, c int, seed uint64) *blockmodel.Blockmodel {
	t.Helper()
	rr := rng.New(seed)
	assign := make([]int32, g.NumVertices())
	for v := range assign {
		assign[v] = int32(rr.Intn(c))
	}
	bm, err := blockmodel.FromAssignment(g, assign, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

// driveSteps runs sweeps of alg's schedule on bm at one worker, as
// schedule.run does, checking every visit's step against fullRuleStep
// and counting the visits by branch.
func driveSteps(t *testing.T, bm *blockmodel.Blockmodel, alg Algorithm, sweeps int, hits *[numStepKinds]int) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = 1
	sched := newSchedule(bm, alg, cfg)
	sc, refSc := blockmodel.NewScratch(), blockmodel.NewScratch()
	key := rng.New(uint64(alg)).Uint64()
	visit := func(sweep, v int) (blockmodel.MoveDelta, bool) {
		rn := rng.At(key, uint64(sweep), uint64(v))
		ref := rn
		md, proposed, accepted := step(bm, v, &cfg, &rn, sc)
		wantProposed, wantAccepted, wantTo, kind := fullRuleStep(bm, v, cfg.Beta, &ref, refSc)
		if proposed != wantProposed || accepted != wantAccepted || (accepted && md.To != wantTo) || rn != ref {
			t.Fatalf("%v C=%d sweep %d v=%d: step (proposed %v, accepted %v, to %d) != full rule (%v, %v, %d), or the RNG states differ (branch %d)",
				alg, bm.C, sweep, v, proposed, accepted, md.To, wantProposed, wantAccepted, wantTo, kind)
		}
		hits[kind]++
		return md, accepted
	}
	n := bm.G.NumVertices()
	for sweep := 0; sweep < sweeps; sweep++ {
		for _, v := range sched.serial {
			if md, ok := visit(sweep, int(v)); ok {
				bm.ApplyMove(md)
			}
		}
		for _, plan := range sched.plans {
			var moves []int32
			for i := 0; i < n && (plan.vertices == nil || i < len(plan.vertices)); i++ {
				v := i
				if plan.vertices != nil {
					v = int(plan.vertices[i])
				}
				if md, ok := visit(sweep, v); ok {
					moves = append(moves, int32(v), md.To)
				}
			}
			bm.ApplyMoves([][]int32{moves}, sc)
		}
	}
	if err := bm.Validate(); err != nil {
		t.Fatalf("%v C=%d: %v", alg, bm.C, err)
	}
}
