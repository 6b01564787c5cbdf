package sbp

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/mcmc"
	"repro/internal/metrics"
	"repro/internal/snapshot"
)

func TestBracketInsertOrdering(t *testing.T) {
	br := &bracket{}
	br.insert(&bracketEntry{mdl: 100, c: 64})
	if br.mid == nil || br.mid.c != 64 {
		t.Fatal("first insert should become mid")
	}
	// Better state at lower C: new mid, old mid becomes hi.
	br.insert(&bracketEntry{mdl: 90, c: 32})
	if br.mid.c != 32 || br.hi == nil || br.hi.c != 64 {
		t.Fatalf("after better-lower insert: mid=%v hi=%v", br.mid, br.hi)
	}
	// Worse state at lower C: becomes lo, bracket established.
	br.insert(&bracketEntry{mdl: 95, c: 16})
	if br.lo == nil || br.lo.c != 16 {
		t.Fatal("worse-lower insert should become lo")
	}
	if !br.established() {
		t.Fatal("bracket should be established")
	}
}

func TestBracketBetterHigherC(t *testing.T) {
	br := &bracket{}
	br.insert(&bracketEntry{mdl: 100, c: 32})
	br.insert(&bracketEntry{mdl: 90, c: 64}) // better at HIGHER c
	if br.mid.c != 64 || br.lo == nil || br.lo.c != 32 {
		t.Fatalf("mid=%+v lo=%+v", br.mid, br.lo)
	}
}

func TestBracketEstablishedWithoutHi(t *testing.T) {
	// First reduction already worsens MDL: mid stays at the top (C = V)
	// and the bracket is still considered established (mid bounds the
	// upper side).
	br := &bracket{}
	br.insert(&bracketEntry{mdl: 100, c: 64})
	br.insert(&bracketEntry{mdl: 120, c: 32})
	if !br.established() {
		t.Fatal("bracket with worse first reduction should be established")
	}
	if br.upperC() != 64 {
		t.Fatalf("upperC = %d", br.upperC())
	}
}

func TestBracketDone(t *testing.T) {
	br := &bracket{}
	br.insert(&bracketEntry{mdl: 100, c: 10})
	br.insert(&bracketEntry{mdl: 90, c: 9})
	br.insert(&bracketEntry{mdl: 95, c: 8})
	if !br.done() {
		t.Fatalf("gap hi−lo = 2 should be done: hi=%d mid=%d lo=%d", br.hi.c, br.mid.c, br.lo.c)
	}
}

func TestNextTargetReductionPhase(t *testing.T) {
	br := &bracket{}
	br.insert(&bracketEntry{mdl: 100, c: 100})
	from, target := nextTarget(br)
	if from.c != 100 || target != 50 {
		t.Fatalf("reduction target = %d from C=%d, want 50", target, from.c)
	}
}

func TestNextTargetGoldenSection(t *testing.T) {
	if goldenRatio != 2/(1+math.Sqrt(5)) {
		t.Fatalf("goldenRatio %v is not the float64 value of 2/(1+√5)", goldenRatio)
	}
	br := &bracket{
		hi:  &bracketEntry{mdl: 100, c: 100},
		mid: &bracketEntry{mdl: 80, c: 50},
		lo:  &bracketEntry{mdl: 90, c: 10},
	}
	from, target := nextTarget(br)
	// Upper interval (50,100) is larger: probe there from hi.
	if from != br.hi {
		t.Fatal("should probe from hi")
	}
	if target <= 50 || target >= 100 {
		t.Fatalf("target %d outside (50,100)", target)
	}

	// Shrink the upper side; the probe must move to the lower interval.
	br.hi = &bracketEntry{mdl: 85, c: 52}
	from, target = nextTarget(br)
	if from != br.mid {
		t.Fatal("should probe from mid into the lower interval")
	}
	if target <= 10 || target >= 50 {
		t.Fatalf("target %d outside (10,50)", target)
	}
}

func TestNextTargetExhausted(t *testing.T) {
	br := &bracket{
		hi:  &bracketEntry{mdl: 100, c: 5},
		mid: &bracketEntry{mdl: 80, c: 4},
		lo:  &bracketEntry{mdl: 90, c: 3},
	}
	from, _ := nextTarget(br)
	if from != nil {
		t.Fatal("exhausted bracket should yield no target")
	}
}

func endToEnd(t *testing.T, alg mcmc.Algorithm) {
	t.Helper()
	g, truth, err := gen.Generate(gen.Spec{
		Name: "e2e", Vertices: 150, Communities: 4, MinDegree: 5, MaxDegree: 20,
		Exponent: 2.5, Ratio: 5, SizeSkew: 0.3, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(alg)
	opts.Seed = 44
	opts.MCMC.Workers = 2
	opts.Merge.Workers = 2
	res := Run(g, opts)
	if res.Best == nil {
		t.Fatal("no result")
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("result model inconsistent: %v", err)
	}
	nmi, err := metrics.NMI(truth, res.Best.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if nmi < 0.85 {
		t.Fatalf("%s end-to-end NMI %.3f < 0.85 (C=%d)", alg, nmi, res.NumCommunities)
	}
	if res.NormalizedMDL >= 1 {
		t.Fatalf("structured graph got normalized MDL %v", res.NormalizedMDL)
	}
	if res.NumCommunities < 2 || res.NumCommunities > 10 {
		t.Fatalf("found %d communities, planted 4", res.NumCommunities)
	}
	if res.TotalMCMCSweeps < 1 || len(res.Iterations) < 2 {
		t.Fatal("missing iteration statistics")
	}
	if res.MCMCTime <= 0 || res.TotalTime < res.MCMCTime {
		t.Fatal("timing accounting inconsistent")
	}
}

func TestEndToEndSerial(t *testing.T) { endToEnd(t, mcmc.SerialMH) }
func TestEndToEndAsync(t *testing.T)  { endToEnd(t, mcmc.AsyncGibbs) }
func TestEndToEndHybrid(t *testing.T) { endToEnd(t, mcmc.Hybrid) }

func TestRunDeterministic(t *testing.T) {
	g, _, err := gen.Generate(gen.Spec{
		Name: "det", Vertices: 80, Communities: 3, MinDegree: 4, MaxDegree: 15,
		Exponent: 2.5, Ratio: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(mcmc.Hybrid)
	opts.MCMC.Workers = 2
	opts.Merge.Workers = 2
	a := Run(g, opts)
	b := Run(g, opts)
	if a.MDL != b.MDL || a.NumCommunities != b.NumCommunities {
		t.Fatalf("runs differ: MDL %v vs %v", a.MDL, b.MDL)
	}
}

// TestDeterminismWorkerCount: a whole search is bit-identical at 1, 2
// and 4 MCMC and merge workers for every engine, and a search
// checkpointed inside an MCMC phase at 4 workers resumes at 1 worker to
// the same result.
func TestDeterminismWorkerCount(t *testing.T) {
	g := ckptGraph(t)
	for _, alg := range []mcmc.Algorithm{mcmc.SerialMH, mcmc.AsyncGibbs, mcmc.Hybrid, mcmc.BatchedGibbs} {
		t.Run(alg.String(), func(t *testing.T) {
			withWorkers := func(w int) Options {
				opts := ckptOptions(alg)
				opts.MCMC.Workers, opts.Merge.Workers = w, w
				return opts
			}
			want := Run(g, withWorkers(1))
			for _, w := range []int{2, 4} {
				sameResult(t, fmt.Sprintf("workers=%d", w), want, Run(g, withWorkers(w)))
			}

			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := withWorkers(4)
			opts.Ctx = ctx
			writes := 0
			opts.Checkpoint = snapshot.Policy{Dir: dir, Every: 1, OnWrite: func(string) {
				if writes++; writes == 2 {
					cancel()
				}
			}}
			if res := Run(g, opts); !res.Interrupted {
				t.Fatal("search completed before its second checkpoint write")
			}
			if rs, err := (snapshot.Policy{Dir: dir}).LoadSearch(); err != nil || rs.Phase == nil {
				t.Fatalf("the kill did not leave an MCMC phase checkpoint (err %v)", err)
			}
			ropts := withWorkers(1)
			ropts.Checkpoint = snapshot.Policy{Dir: dir}
			resumed, err := Resume(g, ropts)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "checkpointed at 4 workers, resumed at 1", want, resumed)
		})
	}
}

func TestCostAccountsPopulated(t *testing.T) {
	g, _, err := gen.Generate(gen.Spec{
		Name: "cost", Vertices: 80, Communities: 3, MinDegree: 4, MaxDegree: 15,
		Exponent: 2.5, Ratio: 5, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(g, DefaultOptions(mcmc.AsyncGibbs))
	if res.MCMCCost.ParallelWork <= 0 {
		t.Fatal("A-SBP run recorded no parallel MCMC work")
	}
	if res.MergeCost.ParallelWork <= 0 {
		t.Fatal("merge phase recorded no parallel work")
	}
	serial := Run(g, DefaultOptions(mcmc.SerialMH))
	if serial.MCMCCost.SerialWork <= 0 || serial.MCMCCost.ParallelWork != 0 {
		t.Fatal("SBP MCMC work accounting wrong")
	}
}

func TestBits64(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9}
	for x, want := range cases {
		if got := bits64(x); got != want {
			t.Fatalf("bits64(%d) = %d, want %d", x, got, want)
		}
	}
}

// checkBracketInvariant asserts the strict ordering hi.c > mid.c > lo.c
// that done() and nextTarget rely on.
func checkBracketInvariant(t *testing.T, br *bracket, ctx string) {
	t.Helper()
	if br.mid == nil {
		return
	}
	if br.hi != nil && br.hi.c <= br.mid.c {
		t.Fatalf("%s: hi.c=%d <= mid.c=%d", ctx, br.hi.c, br.mid.c)
	}
	if br.lo != nil && br.lo.c >= br.mid.c {
		t.Fatalf("%s: lo.c=%d >= mid.c=%d", ctx, br.lo.c, br.mid.c)
	}
}

// TestBracketDuplicateMidCount is the regression test for the bracket
// freeze: MCMC compaction landing on mid's community count must merge
// into mid, not demote to an endpoint where it pins upperC()-lo.c.
func TestBracketDuplicateMidCount(t *testing.T) {
	br := &bracket{}
	br.insert(&bracketEntry{mdl: 100, c: 64})
	br.insert(&bracketEntry{mdl: 90, c: 32})
	br.insert(&bracketEntry{mdl: 95, c: 16})
	checkBracketInvariant(t, br, "setup")

	// Worse duplicate of mid's count: before the fix this overwrote lo
	// (c=16) with a c=32 entry, freezing the lower interval at width 0.
	br.insert(&bracketEntry{mdl: 93, c: 32})
	checkBracketInvariant(t, br, "worse duplicate")
	if br.mid.mdl != 90 {
		t.Fatalf("worse duplicate replaced mid: mdl=%v", br.mid.mdl)
	}
	if br.lo == nil || br.lo.c != 16 {
		t.Fatalf("duplicate of mid's count clobbered lo: %+v", br.lo)
	}

	// Better duplicate: replaces mid in place, endpoints untouched.
	br.insert(&bracketEntry{mdl: 85, c: 32})
	checkBracketInvariant(t, br, "better duplicate")
	if br.mid.mdl != 85 || br.mid.c != 32 {
		t.Fatalf("better duplicate should become mid: %+v", br.mid)
	}
	if br.hi == nil || br.hi.c != 64 || br.lo == nil || br.lo.c != 16 {
		t.Fatalf("endpoints moved: hi=%+v lo=%+v", br.hi, br.lo)
	}
}

// TestBracketEndpointDuplicatesMerge checks that repeated worse probes
// at the same endpoint count tighten rather than loosen the bracket.
func TestBracketEndpointDuplicatesMerge(t *testing.T) {
	br := &bracket{}
	br.insert(&bracketEntry{mdl: 100, c: 64})
	br.insert(&bracketEntry{mdl: 90, c: 32})
	br.insert(&bracketEntry{mdl: 95, c: 16})
	br.insert(&bracketEntry{mdl: 97, c: 48}) // tightens hi from 64 to 48
	checkBracketInvariant(t, br, "tighten hi")
	if br.hi.c != 48 {
		t.Fatalf("hi not tightened: %+v", br.hi)
	}
	br.insert(&bracketEntry{mdl: 96, c: 56}) // looser than current hi: ignored
	if br.hi.c != 48 {
		t.Fatalf("hi loosened by stale probe: %+v", br.hi)
	}
	br.insert(&bracketEntry{mdl: 94, c: 48}) // same count, better mdl: merged
	if br.hi.c != 48 || br.hi.mdl != 94 {
		t.Fatalf("hi duplicate not merged by MDL: %+v", br.hi)
	}
	br.insert(&bracketEntry{mdl: 93, c: 20}) // tightens lo from 16 to 20
	checkBracketInvariant(t, br, "tighten lo")
	if br.lo.c != 20 {
		t.Fatalf("lo not tightened: %+v", br.lo)
	}
}

// TestBracketSearchTerminatesOnDuplicateCounts simulates the full
// golden-section loop against an MDL landscape where every other MCMC
// phase "compacts" onto mid's already-probed count. Before the fix the
// duplicate clobbered lo, the search never probed below mid, and the
// loop burned iterations without converging on the optimum.
func TestBracketSearchTerminatesOnDuplicateCounts(t *testing.T) {
	f := func(c int) float64 { return 50 + 5*math.Abs(float64(c)-10) } // optimum at c=10
	br := &bracket{}
	br.insert(&bracketEntry{mdl: f(64), c: 64})
	maxIter := 16 + 4*bits64(64+1)
	iter := 0
	for ; !br.done() && iter < maxIter; iter++ {
		from, target := nextTarget(br)
		if from == nil || target < 1 || target >= from.c {
			break
		}
		c := target
		if iter%2 == 1 {
			c = br.mid.c // compaction collides with an already-probed count
		}
		br.insert(&bracketEntry{mdl: f(c), c: c})
		checkBracketInvariant(t, br, "during search")
	}
	if iter >= maxIter {
		t.Fatalf("bracket search burned all %d iterations", maxIter)
	}
	if br.mid.c < 8 || br.mid.c > 12 {
		t.Fatalf("search stopped at c=%d, optimum is 10", br.mid.c)
	}
}
