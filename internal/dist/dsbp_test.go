package dist

import (
	"math"
	"sync"
	"testing"

	"repro/internal/blockmodel"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mcmc"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// distModel builds a structured blockmodel perturbed away from truth so
// the distributed phase has real work to do.
func distModel(t *testing.T, seed uint64) (*blockmodel.Blockmodel, []int32) {
	t.Helper()
	g, truth, err := gen.Generate(gen.Spec{
		Name: "dist", Vertices: 200, Communities: 4, MinDegree: 5, MaxDegree: 20,
		Exponent: 2.5, Ratio: 6, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed + 1)
	perturbed := append([]int32(nil), truth...)
	for v := range perturbed {
		if r.Float64() < 0.3 {
			perturbed[v] = int32(r.Intn(4))
		}
	}
	bm, err := blockmodel.FromAssignment(g, perturbed, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return bm, truth
}

func testCfg(ranks int) Config {
	cfg := DefaultConfig()
	cfg.Ranks = ranks
	cfg.MaxSweeps = 40
	return cfg
}

func TestDistributedAsyncReducesMDL(t *testing.T) {
	for _, ranks := range []int{1, 2, 4, 7} {
		bm, _ := distModel(t, 3)
		st, err := RunMCMCPhase(bm, ModeAsync, testCfg(ranks))
		if err != nil {
			t.Fatal(err)
		}
		if st.FinalS >= st.InitialS {
			t.Fatalf("ranks=%d: MDL did not improve: %v -> %v", ranks, st.InitialS, st.FinalS)
		}
		if err := bm.Validate(); err != nil {
			t.Fatalf("ranks=%d: inconsistent model: %v", ranks, err)
		}
	}
}

func TestDistributedHybridReducesMDL(t *testing.T) {
	bm, _ := distModel(t, 5)
	st, err := RunMCMCPhase(bm, ModeHybrid, testCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if st.FinalS >= st.InitialS {
		t.Fatalf("MDL did not improve: %v -> %v", st.InitialS, st.FinalS)
	}
	if err := bm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedQualityMatchesTruthNeighborhood(t *testing.T) {
	bm, truth := distModel(t, 7)
	if _, err := RunMCMCPhase(bm, ModeHybrid, testCfg(4)); err != nil {
		t.Fatal(err)
	}
	nmi, err := metrics.NMI(truth, bm.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if nmi < 0.8 {
		t.Fatalf("distributed hybrid NMI %.3f < 0.8", nmi)
	}
}

func TestDistributedTrafficGrowsWithRanks(t *testing.T) {
	traffic := func(ranks int) int64 {
		bm, _ := distModel(t, 9)
		cfg := testCfg(ranks)
		cfg.MaxSweeps = 5
		cfg.Threshold = 0 // fixed sweep count for a fair comparison
		st, err := RunMCMCPhase(bm, ModeAsync, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st.TrafficBytes
	}
	if t2, t8 := traffic(2), traffic(8); t8 <= t2 {
		t.Fatalf("traffic at 8 ranks (%d) not above 2 ranks (%d)", t8, t2)
	}
	if t1 := traffic(1); t1 != 0 {
		t.Fatalf("single rank exchanged %d bytes", t1)
	}
}

func TestDistributedDeterministicPerRankCount(t *testing.T) {
	run := func() []int32 {
		bm, _ := distModel(t, 11)
		if _, err := RunMCMCPhase(bm, ModeAsync, testCfg(4)); err != nil {
			t.Fatal(err)
		}
		return append([]int32(nil), bm.Assignment...)
	}
	a, b := run(), run()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("distributed phase not deterministic at vertex %d", v)
		}
	}
}

func TestDistributedRejectsBadRanks(t *testing.T) {
	bm, _ := distModel(t, 13)
	cfg := testCfg(0)
	if _, err := RunMCMCPhase(bm, ModeAsync, cfg); err == nil {
		t.Fatal("zero ranks accepted")
	}
}

func TestDistributedMoreRanksThanVertices(t *testing.T) {
	bm, _ := distModel(t, 15)
	cfg := testCfg(1000) // clamped to V
	st, err := RunMCMCPhase(bm, ModeAsync, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ranks > bm.G.NumVertices() {
		t.Fatalf("ranks %d exceed vertices", st.Ranks)
	}
	if err := bm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if ModeAsync.String() != "D-A-SBP" || ModeHybrid.String() != "D-H-SBP" {
		t.Fatal("mode names changed")
	}
}

// degreeSortedGraph returns a power-law graph whose vertex ids are in
// descending degree order — the layout degree-sorted graph files have,
// and the adversarial case for an equal-count vertex split (all hubs
// land on rank 0).
func degreeSortedGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, _, err := gen.Generate(gen.Spec{
		Name: "plaw", Vertices: 600, Communities: 6, MinDegree: 2, MaxDegree: 120,
		Exponent: 2.1, Ratio: 5, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	order := g.VerticesByDegreeDesc()
	relabel := make([]int32, g.NumVertices())
	for newID, oldID := range order {
		relabel[oldID] = int32(newID)
	}
	var edges []graph.Edge
	for _, e := range g.Edges() {
		edges = append(edges, graph.Edge{Src: relabel[e.Src], Dst: relabel[e.Dst]})
	}
	return graph.MustNew(g.NumVertices(), edges)
}

// Regression for the equal-count vertex split: on a degree-sorted graph it
// concentrates all hubs on low ranks, serialising the bulk-synchronous
// sweep behind them. The degree-aware split must keep every rank's
// degree load within 1.5x of the ideal share.
func TestPartitionRangesDegreeBalanced(t *testing.T) {
	g := degreeSortedGraph(t)
	const ranks = 8
	load := func(rs []parallel.Range) (max, total int64) {
		for _, r := range rs {
			var w int64
			for v := r.Lo; v < r.Hi; v++ {
				w += int64(g.Degree(v))
			}
			if w > max {
				max = w
			}
			total += w
		}
		return
	}

	balanced := PartitionRanges(g, ranks)
	if len(balanced) != ranks {
		t.Fatalf("%d ranges for %d ranks", len(balanced), ranks)
	}
	covered := 0
	prevHi := 0
	for _, r := range balanced {
		if r.Lo != prevHi {
			t.Fatalf("ranges not contiguous at %d", r.Lo)
		}
		covered += r.Len()
		prevHi = r.Hi
	}
	if covered != g.NumVertices() || prevHi != g.NumVertices() {
		t.Fatalf("ranges cover %d of %d vertices", covered, g.NumVertices())
	}

	maxBal, total := load(balanced)
	ideal := float64(total) / float64(ranks)
	if imb := float64(maxBal) / ideal; imb > 1.5 {
		t.Fatalf("degree-aware split imbalance %.2f > 1.5", imb)
	}
	// And the equal-count split really is the bug being fixed: on this
	// layout its heaviest rank carries well above the balanced load.
	maxUni, _ := load(parallel.StaticRanges(g.NumVertices(), ranks))
	if maxUni <= maxBal {
		t.Fatalf("equal-count split (max %d) not worse than balanced (max %d) on degree-sorted layout", maxUni, maxBal)
	}
}

func TestPartitionRangesMoreRanksThanVertices(t *testing.T) {
	g := degreeSortedGraph(t)
	n := g.NumVertices()
	rs := PartitionRanges(g, n+5)
	if len(rs) != n+5 {
		t.Fatalf("%d ranges", len(rs))
	}
	covered := 0
	for _, r := range rs {
		covered += r.Len()
	}
	if covered != n {
		t.Fatalf("ranges cover %d of %d vertices", covered, n)
	}
	for _, r := range rs[n:] {
		if r.Len() != 0 {
			t.Fatalf("trailing range %v not empty", r)
		}
	}
}

func TestPhaseStatsCommAccounting(t *testing.T) {
	bm, _ := distModel(t, 25)
	st, err := RunMCMCPhase(bm, ModeAsync, testCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if st.TrafficBytes <= 0 {
		t.Fatal("no traffic recorded")
	}
	if st.CommTime <= 0 || st.CommPerSweep() <= 0 {
		t.Fatalf("comm time not recorded: total %v, per sweep %v", st.CommTime, st.CommPerSweep())
	}
	if st.CommPerSweep() > st.CommTime {
		t.Fatal("per-sweep comm time exceeds total")
	}
}

func TestDistributedHybridBroadcastConsistency(t *testing.T) {
	// After a hybrid phase, the result must validate and match what the
	// same membership rebuild produces — i.e. the V* broadcast kept all
	// replicas aligned (a divergent replica would change the sweep
	// count or final MDL between rank counts nondeterministically).
	for _, ranks := range []int{2, 3, 5} {
		bm, _ := distModel(t, 17)
		st, err := RunMCMCPhase(bm, ModeHybrid, testCfg(ranks))
		if err != nil {
			t.Fatal(err)
		}
		if err := bm.Validate(); err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if st.FinalS != bm.MDL() {
			t.Fatalf("ranks=%d: reported final MDL %v != model MDL %v", ranks, st.FinalS, bm.MDL())
		}
	}
}

// TestOnSweepObservesWithoutPerturbing: the heartbeat hook sees every
// completed sweep except the terminal one, on every rank, and its
// presence cannot change the search (it runs outside the RNG stream).
func TestOnSweepObservesWithoutPerturbing(t *testing.T) {
	const ranks = 3
	bm, _ := distModel(t, 17)
	clean, err := RunMCMCPhase(bm, ModeHybrid, testCfg(ranks))
	if err != nil {
		t.Fatal(err)
	}
	cleanAssign := append([]int32(nil), bm.Assignment...)

	bm2, _ := distModel(t, 17)
	cfg := testCfg(ranks)
	var mu sync.Mutex
	calls := 0
	lastSweep := -1
	cfg.OnSweep = func(sweep int, mdl float64) {
		mu.Lock()
		calls++
		if sweep > lastSweep {
			lastSweep = sweep
		}
		if math.IsNaN(mdl) {
			t.Errorf("OnSweep saw NaN MDL at sweep %d", sweep)
		}
		mu.Unlock()
	}
	st, err := RunMCMCPhase(bm2, ModeHybrid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.FinalS != clean.FinalS {
		t.Errorf("observed run MDL %v, clean %v", st.FinalS, clean.FinalS)
	}
	for v := range bm2.Assignment {
		if bm2.Assignment[v] != cleanAssign[v] {
			t.Fatalf("membership diverges at vertex %d", v)
		}
	}
	// The hook fires for sweeps 0..Sweeps-2 on each rank: the terminal
	// sweep (converged or interrupted) is not observed.
	if want := ranks * (st.Sweeps - 1); calls != want {
		t.Errorf("OnSweep fired %d times, want %d (ranks × (sweeps-1))", calls, want)
	}
	if lastSweep != st.Sweeps-2 {
		t.Errorf("last observed sweep %d, want %d", lastSweep, st.Sweeps-2)
	}
}

// TestHybridRankListsMatchInProcessVStar is the regression test for the
// D-H-SBP V*-rounding bug: ranks sized V* as floor(f·V) while H-SBP
// takes ceil(f·V), so at V=10 and f=0.15 rank 0's serial pass visited
// one vertex instead of the two H-SBP picks.
func TestHybridRankListsMatchInProcessVStar(t *testing.T) {
	g := graph.MustNew(10, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 0, Dst: 4},
		{Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 4, Dst: 5}, {Src: 5, Dst: 6},
		{Src: 6, Dst: 7}, {Src: 7, Dst: 8}, {Src: 8, Dst: 9},
	})
	bm := blockmodel.Identity(g)
	vStar, _ := mcmc.SplitByDegree(bm, 0.15)
	inStar := map[int32]bool{}
	for _, v := range vStar {
		inStar[v] = true
	}
	// Vertices 0 (degree 4) and 2 (degree 3) are the two highest.
	if len(inStar) != 2 || !inStar[0] || !inStar[2] {
		t.Fatalf("in-process V* = %v, want {0, 2}", vStar)
	}

	visits := make([]int, g.NumVertices())
	for r, owned := range PartitionRanges(g, 2) {
		serial, async, _ := rankLists(bm, ModeHybrid, 0.15, r, owned)
		if r == 0 && len(serial) != 2 {
			t.Fatalf("rank 0 serial pass visits %d vertices, want 2", len(serial))
		}
		if r != 0 && len(serial) != 0 {
			t.Fatalf("rank %d has serial list %v", r, serial)
		}
		for _, v := range serial {
			if !inStar[v] {
				t.Fatalf("rank 0 serial vertex %d not in in-process V* %v", v, vStar)
			}
			visits[v]++
		}
		for i, v := range async {
			if inStar[v] || int(v) < owned.Lo || int(v) >= owned.Hi || (i > 0 && v <= async[i-1]) {
				t.Fatalf("rank %d async list %v is not its range %v minus V*, ascending", r, async, owned)
			}
			visits[v]++
		}
	}
	for v, n := range visits {
		if n != 1 {
			t.Fatalf("vertex %d visited %d times per sweep, want 1", v, n)
		}
	}
}

// TestDeterminismRanksMatchWorkers asserts that a distributed phase is
// the in-process chain: A-SBP at 1 and 4 workers and D-A-SBP at 1, 2
// and 3 ranks end with one membership, one MDL and the same counts, and
// so do H-SBP and D-H-SBP at 2 and 3 ranks.
func TestDeterminismRanksMatchWorkers(t *testing.T) {
	cases := []struct {
		alg   mcmc.Algorithm
		mode  Mode
		ranks []int
	}{
		{mcmc.AsyncGibbs, ModeAsync, []int{1, 2, 3}},
		{mcmc.Hybrid, ModeHybrid, []int{2, 3}},
	}
	for _, c := range cases {
		t.Run(c.mode.String(), func(t *testing.T) {
			cfg := testCfg(1)
			var want fingerprint
			for i, workers := range []int{1, 4} {
				bm, _ := distModel(t, 61)
				mcfg := mcmc.DefaultConfig()
				mcfg.Beta, mcfg.Threshold, mcfg.MaxSweeps = cfg.Beta, cfg.Threshold, cfg.MaxSweeps
				mcfg.HybridFraction, mcfg.Workers = cfg.HybridFraction, workers
				st := mcmc.Run(bm, c.alg, mcfg, rng.New(cfg.Seed))
				got := fingerprintOf(PhaseStats{Sweeps: st.Sweeps, Proposals: st.Proposals, Accepts: st.Accepts, FinalS: st.FinalS}, bm.Assignment)
				if i == 0 {
					want = got
				} else if got != want {
					t.Fatalf("%s at %d workers: %+v, want the 1-worker chain %+v", c.alg, workers, got, want)
				}
			}
			for _, ranks := range c.ranks {
				bm, _ := distModel(t, 61)
				st, err := RunMCMCPhase(bm, c.mode, testCfg(ranks))
				if err != nil {
					t.Fatal(err)
				}
				got := fingerprintOf(st, bm.Assignment)
				got.TrafficBytes = 0
				if got != want {
					t.Fatalf("%s at %d ranks: %+v, want the %s chain %+v", c.mode, ranks, got, c.alg, want)
				}
			}
		})
	}
}
