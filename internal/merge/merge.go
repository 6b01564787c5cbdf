// Package merge implements the block-merge phase of stochastic block
// partitioning (paper Algorithm 1): for every community, several merge
// candidates are proposed and evaluated in parallel; the best merges are
// then sorted by ΔMDL and applied greedily until the community count has
// been reduced by the requested amount.
//
// This phase is embarrassingly parallel up to the sort (the paper runs it
// in parallel in *all* experiments so that runtime differences are
// attributable solely to the MCMC phase).
package merge

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/blockmodel"
	"repro/internal/check"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// Config holds the merge-phase tunables.
type Config struct {
	// Candidates is x in Algorithm 1: the number of merge proposals
	// evaluated per community. The Graph Challenge baseline uses 10.
	Candidates int

	// Workers is the parallel width (<= 0 means GOMAXPROCS).
	Workers int

	// Verify cross-checks every evaluated merge ΔS against the dense
	// oracle (internal/check) and revalidates blockmodel invariants
	// after the rebuild/compact, panicking with a *check.Failure on the
	// first divergence. O(C² + E) per proposal — small graphs only.
	Verify bool

	// Obs carries the run's telemetry handles (internal/obs). The zero
	// value disables all instrumentation; metrics and spans never touch
	// the RNG, so results are bit-identical with telemetry on or off.
	Obs obs.Obs

	// Ctx, when non-nil, makes the phase cancellable. It is checked at
	// phase entry and again after the proposal stage, before any merge
	// is applied — a cancelled phase returns with Stats.Interrupted set
	// and the blockmodel untouched, so the caller's iteration-boundary
	// checkpoint remains the exact resume point.
	Ctx context.Context
}

// DefaultConfig returns the merge configuration used by the reference
// SBP implementations.
func DefaultConfig() Config {
	return Config{Candidates: 10, Workers: 0}
}

// Stats reports one merge phase.
type Stats struct {
	Requested int // merges requested
	Applied   int // merges actually applied
	Proposals int64
	Cost      parallel.CostModel

	// Interrupted reports that Config.Ctx was cancelled and the phase
	// returned before mutating the blockmodel.
	Interrupted bool
}

// candidate is the best merge found for one source block.
type candidate struct {
	from, to int32
	delta    float64
	valid    bool
}

// Phase merges numToMerge communities of bm (Algorithm 1), rebuilding and
// compacting the blockmodel. It returns phase statistics. bm must have
// more than numToMerge non-empty blocks. The phase draws one key from
// rn, and block r's candidates draw from rng.At(key, 0, r), so the
// merges do not depend on cfg.Workers.
func Phase(bm *blockmodel.Blockmodel, numToMerge int, cfg Config, rn *rng.RNG) Stats {
	st := Stats{Requested: numToMerge}
	if numToMerge <= 0 || bm.C < 2 {
		return st
	}
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		st.Interrupted = true
		return st
	}
	reg := cfg.Obs.Metrics
	mProposals := reg.Counter("merge_proposals_total", "merge proposals evaluated")
	mApplied := reg.Counter("merge_applied_total", "block merges applied")
	mPhases := reg.Counter("merge_phases_total", "merge phases executed")
	span := cfg.Obs.StartSpan("merge",
		obs.F("blocks", bm.NumNonEmptyBlocks()), obs.F("requested", numToMerge))
	workers := parallel.DefaultWorkers(cfg.Workers)
	key := rn.Uint64()

	// Parallel proposal stage: the best of cfg.Candidates merges per
	// non-empty block.
	best := make([]candidate, bm.C)
	var proposals atomic.Int64
	workTimes := make([]float64, workers)
	parallel.ForChunked(bm.C, workers, func(lo, hi, w int) {
		start := time.Now()
		sc := blockmodel.NewScratch()
		targets := make([]int32, max(cfg.Candidates, 0))
		deltas := make([]float64, len(targets))
		var local int64
		for r := lo; r < hi; r++ {
			if bm.Sizes[r] == 0 {
				continue
			}
			rr := rng.At(key, 0, uint64(r))
			for i := range targets {
				targets[i] = bm.ProposeMerge(int32(r), &rr)
			}
			local += int64(len(targets))
			bm.EvalMerges(int32(r), targets, deltas, sc)
			c := candidate{from: int32(r)}
			for i, s := range targets {
				d := deltas[i]
				if cfg.Verify {
					check.MustMergeDelta(bm, int32(r), s, d)
				}
				if !c.valid || d < c.delta {
					c.to, c.delta, c.valid = s, d, true
				}
			}
			best[r] = c
		}
		proposals.Add(local)
		workTimes[w] = float64(time.Since(start).Nanoseconds())
	})
	st.Proposals = proposals.Load()
	var totalWork float64
	for _, t := range workTimes {
		totalWork += t
	}
	st.Cost.AddParallel(totalWork)

	// Last cancellation point: past here the blockmodel is mutated, so a
	// checkpointed caller could no longer resume from the iteration
	// boundary. The proposal work above only drew the key from rn — a
	// resumed phase draws it again from the restored master and replays
	// identically.
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		st.Interrupted = true
		return st
	}

	// Serial stage: sort by ΔMDL and apply greedily, chasing earlier
	// merges with a union-find so that "merge r into s" still works after
	// s itself has been merged away.
	serialStart := time.Now()
	order := make([]int, 0, len(best))
	for r := range best {
		if best[r].valid {
			order = append(order, r)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := best[order[a]].delta, best[order[b]].delta
		if da != db {
			return da < db
		}
		return order[a] < order[b] // deterministic tie-break
	})

	uf := newUnionFind(bm.C)
	for _, r := range order {
		if st.Applied >= numToMerge {
			break
		}
		from := uf.find(best[r].from)
		to := uf.find(best[r].to)
		if from == to {
			continue
		}
		uf.merge(from, to)
		st.Applied++
	}

	// Relabel every block through the union-find; the blockmodel drops
	// the emptied blocks and recounts once, on this goroutine, at the new
	// block count.
	to := make([]int32, bm.C)
	for r := range to {
		to[r] = uf.find(int32(r))
	}
	bm.Relabel(to)
	st.Cost.AddSerial(float64(time.Since(serialStart).Nanoseconds()))
	if cfg.Verify {
		check.MustInvariants(bm, "merge post-phase invariants")
	}
	mProposals.Add(st.Proposals)
	mApplied.Add(int64(st.Applied))
	mPhases.Inc()
	if span != nil {
		span.End(obs.F("applied", st.Applied), obs.F("proposals", st.Proposals),
			obs.F("blocks", bm.NumNonEmptyBlocks()))
	}
	return st
}

// unionFind is a plain disjoint-set forest with path halving. merge makes
// the target block the representative, matching "merge c into c'".
type unionFind struct {
	parent []int32
}

func newUnionFind(n int) *unionFind {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// merge attaches root from under root to. Callers pass roots.
func (u *unionFind) merge(from, to int32) {
	u.parent[from] = to
}
