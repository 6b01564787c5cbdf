// Package sbp implements the outer loop of stochastic block partitioning:
// alternating block-merge and MCMC phases wrapped in the Fibonacci
// (golden-section) search over the number of communities described in
// §2.2 and Fig 1 of the paper. The MCMC phase runs one of the three
// engines — serial Metropolis-Hastings (SBP), asynchronous Gibbs (A-SBP)
// or the hybrid (H-SBP) — selected by the caller; the merge phase is
// always parallel, so runtime differences between variants are
// attributable solely to the MCMC phase, as in the paper's experiments.
package sbp

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/blockmodel"
	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/mcmc"
	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/snapshot"
)

// Options configures a full SBP run.
type Options struct {
	// Algorithm selects the MCMC engine (SBP, A-SBP or H-SBP).
	Algorithm mcmc.Algorithm

	// MCMC holds the MCMC-phase tunables.
	MCMC mcmc.Config

	// Merge holds the merge-phase tunables.
	Merge merge.Config

	// Seed seeds the deterministic RNG tree for the whole run.
	Seed uint64

	// Sample, when enabled (Fraction > 0), runs the SamBaS pipeline
	// instead of starting the search from the identity partition: detect
	// communities with a nested search on a sampled subgraph, extend the
	// memberships to the full graph, and fine-tune from the extended
	// state with the regular engines. Orders of magnitude faster on
	// large graphs at a small, quality-floor-tested NMI cost (see
	// internal/sample). The sampler's stream is seeded by Sample.Seed
	// and detection by Seed^salt, so sampled runs are bit-identical at
	// fixed seeds just like full runs.
	Sample sample.Options

	// Verify runs the whole search in oracle-verified mode: it enables
	// MCMC.Verify and Merge.Verify (every incremental ΔS and Hastings
	// correction is cross-checked against the dense reference in
	// internal/check) and revalidates blockmodel invariants after every
	// merge phase, MCMC phase and compaction. The first divergence
	// panics with a *check.Failure naming the divergent quantity.
	// Verification is orders of magnitude slower than a plain run; use
	// it on small graphs to certify engine correctness.
	Verify bool

	// Progress, when non-nil, is invoked after every outer iteration
	// with that iteration's statistics — the hook CLI tools use for
	// verbose output. It must not retain the stats' blockmodel.
	Progress func(IterationStats)

	// Obs carries the run's telemetry handles (internal/obs): the live
	// metrics registry and the trace sink. Run threads it — scoped under
	// the run and iteration spans — into every merge and MCMC phase.
	// The zero value disables all instrumentation. Telemetry never
	// touches the RNG tree, so a run's results are bit-identical with
	// telemetry on or off.
	Obs obs.Obs

	// Ctx, when non-nil, makes the whole search cancellable: it is
	// threaded into the merge phase and the MCMC engines' worker pools,
	// and on cancellation the run stops at the nearest clean boundary
	// (an outer-iteration top or an MCMC sweep boundary), writes a final
	// checkpoint when Checkpoint is enabled, and returns the best state
	// found so far with Result.Interrupted set.
	Ctx context.Context

	// Checkpoint configures durable checkpoints of the search state
	// (see internal/snapshot). The zero value disables checkpointing.
	// Checkpoint writes never touch the RNG tree, so a checkpointed
	// run's results are bit-identical with checkpointing on or off —
	// and a resumed run is bit-identical to an uninterrupted one.
	Checkpoint snapshot.Policy
}

// DefaultOptions returns options matching the paper's setup with the
// given engine.
func DefaultOptions(alg mcmc.Algorithm) Options {
	return Options{
		Algorithm: alg,
		MCMC:      mcmc.DefaultConfig(),
		Merge:     merge.DefaultConfig(),
		Seed:      1,
	}
}

// reductionFactor is the fraction of communities merged away per outer
// iteration while searching downward; the paper halves the community
// count.
const reductionFactor = 0.5

// goldenRatio is the interior division point of the golden-section
// search once the MDL bracket is established: the float64 value of
// 2/(1+math.Sqrt(5)), one ulp below (math.Sqrt(5)-1)/2. A different
// last bit could round a probe to a different community count.
const goldenRatio = 0.6180339887498948

// IterationStats records one outer iteration (one merge phase + one MCMC
// phase) for the timing-breakdown and iteration-count figures.
type IterationStats struct {
	StartBlocks  int // non-empty blocks before the merge phase
	TargetBlocks int // requested block count after merging
	Merge        merge.Stats
	MCMC         mcmc.Stats
	MDL          float64
	MergeTime    time.Duration
	MCMCTime     time.Duration
}

// Result is the outcome of a full SBP run.
type Result struct {
	Best           *blockmodel.Blockmodel
	MDL            float64
	NormalizedMDL  float64
	NumCommunities int

	Iterations []IterationStats

	// Totals for the paper's figures.
	TotalMCMCSweeps int           // Fig 8
	MCMCTime        time.Duration // Figs 2, 4b, 6
	MergeTime       time.Duration
	TotalTime       time.Duration

	// Work/span accounts for modelling speedup at arbitrary thread
	// counts (Figs 4b, 6, 7).
	MCMCCost  parallel.CostModel
	MergeCost parallel.CostModel

	// Load-balance observability, aggregated from the per-sweep records
	// of every MCMC phase (see mcmc.SweepRecord). MaxImbalance is the
	// worst per-sweep max/mean worker-time ratio seen during the run;
	// MeanImbalance averages over all sweeps that ran a parallel pass.
	// Both are 0 when no parallel pass ran (serial engine).
	MaxImbalance  float64
	MeanImbalance float64

	// Interrupted reports that Options.Ctx was cancelled before the
	// search converged: Best is the best state found so far, and — when
	// checkpointing was enabled — the on-disk checkpoint resumes the
	// search bit-identically.
	Interrupted bool

	// Resumed reports that this result continued from a checkpoint; its
	// Iterations and time totals cover only the post-resume portion.
	Resumed bool

	// Sample describes the sampling pipeline when the run was seeded
	// through Options.Sample; nil for full-graph runs and for resumed
	// runs (the pipeline ran before the checkpoint being resumed).
	Sample *SampleStats
}

// bracketEntry is one endpoint of the golden-section search: a blockmodel
// snapshot at a given community count with its MDL.
type bracketEntry struct {
	bm  *blockmodel.Blockmodel
	mdl float64
	c   int
}

// bracket holds up to three states ordered by decreasing community
// count: hi.c > mid.c > lo.c, with mid the best MDL seen. The search is
// "established" once states on both sides of the optimum exist.
type bracket struct {
	hi, mid, lo *bracketEntry
}

// insert places a new state into the bracket, keeping the invariants
// that mid has the lowest MDL and that hi.c > mid.c > lo.c strictly.
// MCMC compaction can land on an already-probed community count; such
// duplicates are merged (the better MDL wins) rather than demoted to an
// endpoint, where a duplicate of mid's count would freeze the bracket
// width and burn iterations until the maxIter cap.
func (b *bracket) insert(e *bracketEntry) {
	switch {
	case b.mid == nil:
		b.mid = e
	case e.c == b.mid.c:
		// Duplicate of mid's count: keep the better state, never an
		// endpoint.
		if e.mdl < b.mid.mdl {
			b.mid = e
		}
	case e.mdl < b.mid.mdl:
		if e.c > b.mid.c {
			b.lo = b.mid
		} else {
			b.hi = b.mid
		}
		b.mid = e
	case e.c > b.mid.c:
		// Worse state above mid: tighten hi, but never loosen it, and
		// merge a duplicate count by MDL.
		if b.hi == nil || e.c < b.hi.c || (e.c == b.hi.c && e.mdl < b.hi.mdl) {
			b.hi = e
		}
	default:
		// Worse state below mid: tighten lo symmetrically.
		if b.lo == nil || e.c > b.lo.c || (e.c == b.lo.c && e.mdl < b.lo.mdl) {
			b.lo = e
		}
	}
	// When mid moved onto an endpoint's community count the endpoint no
	// longer bounds anything strictly outside mid; drop it so done() and
	// nextTarget see the true remaining interval.
	if b.hi != nil && b.hi.c <= b.mid.c {
		b.hi = nil
	}
	if b.lo != nil && b.lo.c >= b.mid.c {
		b.lo = nil
	}
}

// established reports whether the optimum is bounded from below: a state
// with a smaller community count and worse MDL than mid exists. The
// upper side is always bounded — by hi when set, otherwise by mid itself
// (the search starts from C = V, so nothing lies above the first mid).
func (b *bracket) established() bool { return b.mid != nil && b.lo != nil }

// upperC returns the largest bracketed community count.
func (b *bracket) upperC() int {
	if b.hi != nil {
		return b.hi.c
	}
	return b.mid.c
}

// done reports whether no untested community count remains strictly
// inside the bracket.
func (b *bracket) done() bool {
	return b.established() && b.upperC()-b.lo.c <= 2
}

// Run performs community detection on g and returns the best blockmodel
// found (lowest MDL over the whole search). Invalid sampling options
// (Options.Sample) panic; every other fresh-run configuration succeeds.
func Run(g *graph.Graph, opts Options) *Result {
	res, err := run(g, opts, nil)
	if err != nil {
		panic(fmt.Sprintf("sbp: %v", err))
	}
	return res
}

// run is the shared body of Run and Resume: a fresh search when rs is
// nil, a continuation of the checkpointed one otherwise. It errors only
// on the resume path (checkpoint/graph mismatch); a fresh run always
// returns a result.
func run(g *graph.Graph, opts Options, rs *snapshot.SearchState) (*Result, error) {
	start := time.Now()
	rn := rng.New(opts.Seed)
	res := &Result{}

	if opts.Verify {
		opts.MCMC.Verify = true
		opts.Merge.Verify = true
	}

	// Run-level telemetry. Iteration gauges track the search live; the
	// phase-time counters are the merge-vs-MCMC split as the registry
	// sees it (Result repeats the same totals post hoc).
	reg := opts.Obs.Metrics
	gMDL := reg.Gauge("sbp_mdl", "best description length found so far")
	gBlocks := reg.Gauge("sbp_blocks", "community count of the latest iteration's state")
	cIters := reg.Counter("sbp_iterations_total", "outer iterations executed")
	cMCMCNS := reg.Counter("sbp_mcmc_ns_total", "wall nanoseconds in MCMC phases")
	cMergeNS := reg.Counter("sbp_merge_ns_total", "wall nanoseconds in merge phases")
	runSpan := opts.Obs.StartSpan("run",
		obs.F("engine", opts.Algorithm.String()),
		obs.F("vertices", g.NumVertices()), obs.F("edges", g.NumEdges()),
		obs.F("seed", opts.Seed))

	var imbSum float64
	var imbSweeps int
	br := &bracket{}
	iterStart := 0
	var pending *snapshot.PhaseState
	if rs == nil {
		if opts.Sample.Enabled() {
			// SamBaS pipeline: seed the bracket from a sampled
			// detect-extend-refine instead of the identity partition.
			st, interrupted, err := seedFromSample(g, &opts, rn, br, opts.Obs.WithSpan(runSpan))
			if err != nil {
				if runSpan != nil {
					runSpan.End(obs.F("error", err.Error()))
				}
				return nil, err
			}
			res.Sample = st
			if interrupted {
				res.Interrupted = true
			}
		} else {
			cur := blockmodel.Identity(g)
			if opts.Verify {
				check.MustInvariants(cur, "initial identity state")
			}
			br.insert(&bracketEntry{bm: cur.Clone(), mdl: cur.MDL(), c: cur.NumNonEmptyBlocks()})
		}
	} else {
		if err := restoreBracket(br, rs, g); err != nil {
			return nil, err
		}
		if err := rn.UnmarshalBinary(rs.MasterRNG); err != nil {
			return nil, fmt.Errorf("sbp: checkpoint master RNG: %w", err)
		}
		iterStart = int(rs.Iter)
		pending = rs.Phase
		res.Resumed = true
	}
	ck := newCheckpointer(g, &opts, rs)

	// The reduction phase takes O(log V) iterations and the golden-section
	// phase O(log V) more; the cap only guards against non-convergence
	// when MCMC compaction keeps landing on already-probed counts.
	maxIter := 16 + 4*bits64(uint64(g.NumVertices())+1)
	iter := iterStart
	for ; !(rs != nil && rs.Done) && !br.done() && iter < maxIter; iter++ {
		// Iteration boundary: the clean cancellation point and the
		// default checkpoint granularity. Nothing this iteration will
		// consume has been touched yet, so the written state resumes
		// bit-identically.
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			ck.writeIteration(br, rn, iter, false)
			res.Interrupted = true
			break
		}

		var (
			fromC, target int
			work          *blockmodel.Blockmodel
			ms            merge.Stats
			mergeTime     time.Duration
			resume        *mcmc.Resume
		)
		if pending != nil {
			// Mid-iteration resume: the merge phase already ran before
			// the checkpoint; rebuild the working state at the recorded
			// sweep boundary and hand the engine its chain position.
			p := pending
			pending = nil
			var err error
			fromC, target, work, ms, resume, err = restorePhase(g, &opts, p)
			if err != nil {
				return nil, err
			}
		} else {
			ck.writeIteration(br, rn, iter, false)
			from, t := nextTarget(br)
			if from == nil || t < 1 || t >= from.c {
				break
			}
			fromC, target = from.c, t
			work = from.bm.Clone()
		}

		iterSpan := opts.Obs.WithSpan(runSpan).StartSpan("iteration",
			obs.F("iter", iter), obs.F("from_blocks", fromC), obs.F("target_blocks", target))
		iterObs := opts.Obs.WithSpan(iterSpan)

		if resume == nil {
			// Merge phase: reduce to the target community count.
			mergeCfg := opts.Merge
			mergeCfg.Obs = iterObs
			mergeCfg.Ctx = opts.Ctx
			mergeStart := time.Now()
			ms = merge.Phase(work, fromC-target, mergeCfg, rn)
			mergeTime = time.Since(mergeStart)
			if ms.Interrupted {
				// The blockmodel is untouched; the iteration checkpoint
				// written above is the exact resume point.
				if iterSpan != nil {
					iterSpan.End(obs.F("interrupted", true))
				}
				res.Interrupted = true
				break
			}
		}

		// MCMC phase: refine vertex memberships at this community count.
		mcmcCfg := opts.MCMC
		mcmcCfg.Obs = iterObs
		mcmcCfg.Ctx = opts.Ctx
		mcmcCfg.Resume = resume
		if ck != nil {
			itc, fc, tc, msc := iter, fromC, target, ms
			mcmcCfg.CheckpointEvery = ck.pol.Every
			mcmcCfg.OnCheckpoint = func(r *mcmc.Resume) {
				ck.writePhase(br, itc, fc, tc, work, msc, r)
			}
		}
		mcmcStart := time.Now()
		cs := mcmc.Run(work, opts.Algorithm, mcmcCfg, rn)
		mcmcTime := time.Since(mcmcStart)
		if cs.Interrupted {
			// The engine already delivered its sweep-boundary checkpoint
			// through OnCheckpoint; work may be mid-sweep, so it is
			// discarded rather than inserted.
			if iterSpan != nil {
				iterSpan.End(obs.F("interrupted", true), obs.F("sweeps", cs.Sweeps))
			}
			res.Interrupted = true
			break
		}
		work.Compact()
		if opts.Verify {
			check.MustInvariants(work, "post-compaction invariants")
		}

		// Compact drops only empty blocks, which leaves the MDL's bits
		// as they were, so the phase's final MDL is the compacted model's.
		mdl := cs.FinalS
		it := IterationStats{
			StartBlocks:  fromC,
			TargetBlocks: target,
			Merge:        ms,
			MCMC:         cs,
			MDL:          mdl,
			MergeTime:    mergeTime,
			MCMCTime:     mcmcTime,
		}
		res.Iterations = append(res.Iterations, it)
		cIters.Inc()
		cMCMCNS.Add(mcmcTime.Nanoseconds())
		cMergeNS.Add(mergeTime.Nanoseconds())
		gBlocks.Set(float64(work.NumNonEmptyBlocks()))
		gMDL.Set(math.Min(mdl, br.mid.mdl))
		if iterSpan != nil {
			iterSpan.End(obs.F("mdl", mdl), obs.F("blocks", work.NumNonEmptyBlocks()),
				obs.F("sweeps", cs.Sweeps), obs.F("merged", ms.Applied))
		}
		if opts.Progress != nil {
			opts.Progress(it)
		}
		res.TotalMCMCSweeps += cs.Sweeps
		res.MCMCTime += mcmcTime
		res.MergeTime += mergeTime
		res.MCMCCost.Merge(cs.Cost)
		res.MergeCost.Merge(ms.Cost)
		if m := cs.MaxImbalance(); m > res.MaxImbalance {
			res.MaxImbalance = m
		}
		for _, rec := range cs.PerSweep {
			if rec.Imbalance > 0 {
				imbSum += rec.Imbalance
				imbSweeps++
			}
		}

		br.insert(&bracketEntry{bm: work, mdl: mdl, c: work.NumNonEmptyBlocks()})
	}

	if imbSweeps > 0 {
		res.MeanImbalance = imbSum / float64(imbSweeps)
	}
	if !res.Interrupted {
		// Final checkpoint: marks the search done, so a resume after
		// completion reconstructs the result instead of searching again.
		ck.writeIteration(br, rn, iter, true)
	}
	best := br.mid
	res.Best = best.bm
	res.MDL = best.mdl
	res.NormalizedMDL = best.bm.NormalizedMDL()
	res.NumCommunities = best.c
	res.TotalTime = time.Since(start)
	if res.Sample != nil {
		// Everything not spent sampling/detecting/extending is fine-tune:
		// the seeded refinement pass plus the continued outer search.
		res.Sample.FinetuneTime = res.TotalTime -
			res.Sample.SampleTime - res.Sample.DetectTime - res.Sample.ExtendTime
		reg.Counter("sbp_finetune_ns_total", "wall nanoseconds fine-tuning sampled runs").
			Add(res.Sample.FinetuneTime.Nanoseconds())
	}
	gMDL.Set(res.MDL)
	gBlocks.Set(float64(res.NumCommunities))
	if runSpan != nil {
		runSpan.End(obs.F("mdl", res.MDL), obs.F("blocks", res.NumCommunities),
			obs.F("iterations", len(res.Iterations)), obs.F("sweeps", res.TotalMCMCSweeps))
	}
	return res, nil
}

// bits64 returns the number of bits needed to represent x (≈ log2).
func bits64(x uint64) int {
	n := 0
	for x > 0 {
		n++
		x >>= 1
	}
	return n
}

// nextTarget picks the state to continue from and the community count to
// merge down to. While the bracket is not established the search
// agglomerates from the best state by reductionFactor; afterwards it
// probes the golden-section point of the larger remaining interval.
func nextTarget(br *bracket) (*bracketEntry, int) {
	if !br.established() {
		from := br.mid
		target := int(float64(from.c) * (1 - reductionFactor))
		if target < 1 {
			target = 1
		}
		if target >= from.c {
			target = from.c - 1
		}
		return from, target
	}
	upper := 0
	if br.hi != nil {
		upper = br.hi.c - br.mid.c
	}
	lower := br.mid.c - br.lo.c
	if upper >= lower && upper > 1 {
		// Probe inside (mid, hi): start from hi and merge down.
		target := br.mid.c + int(math.Round(goldenRatio*float64(upper)))
		if target >= br.hi.c {
			target = br.hi.c - 1
		}
		if target <= br.mid.c {
			target = br.mid.c + 1
		}
		return br.hi, target
	}
	if lower > 1 {
		// Probe inside (lo, mid): start from mid and merge down.
		target := br.lo.c + int(math.Round(goldenRatio*float64(lower)))
		if target >= br.mid.c {
			target = br.mid.c - 1
		}
		if target <= br.lo.c {
			target = br.lo.c + 1
		}
		return br.mid, target
	}
	return nil, 0
}
