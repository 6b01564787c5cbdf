package sbp

import (
	"fmt"
	"time"

	"repro/internal/blockmodel"
	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/mcmc"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/snapshot"
)

// sampleDetectSeedSalt separates the detection sub-search's RNG tree
// from the fine-tune search's: detect runs under Seed^salt, so the two
// stages never share streams even though both derive from Options.Seed.
const sampleDetectSeedSalt = 0x53616d4261537631 // "SamBaSv1"

// SampleStats records the sampling pipeline's work when a run was
// seeded through Options.Sample (Result.Sample; nil for full-graph
// runs and for resumed runs, whose pipeline ran before the checkpoint).
type SampleStats struct {
	Kind     sample.Kind
	Fraction float64

	// Vertices and Edges are the realised size of the sampled subgraph.
	Vertices, Edges int

	// DetectMDL and DetectBlocks describe the sub-search's best state
	// on the sampled subgraph (MDL in subgraph units, not comparable to
	// the full-graph MDL).
	DetectMDL    float64
	DetectBlocks int

	// Anchored and Fallback split the unsampled vertices by extension
	// rule: assigned via sampled neighbors vs the degree-prior fallback.
	Anchored, Fallback int

	// Phase wall-times. FinetuneTime covers everything after extension:
	// the seeded refinement pass plus the outer search to convergence.
	SampleTime   time.Duration
	DetectTime   time.Duration
	ExtendTime   time.Duration
	FinetuneTime time.Duration
}

// seedFromSample seeds the golden-section bracket via the SamBaS
// pipeline: draw the sampled subgraph, run a full nested SBP search on
// it (detection), extend the detected memberships to the unsampled
// vertices, then run one membership-seeded MCMC refinement pass on the
// full graph and insert the refined state as the bracket's starting
// mid. The outer search continues from there exactly as if the state
// had come from a regular iteration.
//
// The sampler uses its own seed (Options.Sample.Seed) and detection
// runs a nested search under Seed^sampleDetectSeedSalt, so the caller's
// master RNG rn is consumed only by the refinement pass — the fine-tune
// therefore has the same stream discipline as any other MCMC phase and
// checkpoints written later resume bit-identically.
func seedFromSample(g *graph.Graph, opts *Options, rn *rng.RNG, br *bracket, runObs obs.Obs) (*SampleStats, bool, error) {
	reg := opts.Obs.Metrics
	cVerts := reg.Counter("sample_vertices", "vertices in sampled subgraphs")
	cEdges := reg.Counter("sample_edges", "edges in sampled subgraphs")
	cExt := reg.Counter("extend_assignments", "unsampled vertices assigned by membership extension")
	cSampleNS := reg.Counter("sbp_sample_ns_total", "wall nanoseconds drawing sampled subgraphs")
	cDetectNS := reg.Counter("sbp_detect_ns_total", "wall nanoseconds detecting on sampled subgraphs")
	cExtendNS := reg.Counter("sbp_extend_ns_total", "wall nanoseconds extending memberships")

	st := &SampleStats{Kind: opts.Sample.Kind, Fraction: opts.Sample.Fraction}
	span := runObs.StartSpan("sample-pipeline",
		obs.F("kind", opts.Sample.Kind.String()), obs.F("fraction", opts.Sample.Fraction))
	pipeObs := opts.Obs.WithSpan(span)

	// Stage 1: draw the sampled subgraph.
	sampleStart := time.Now()
	sub, err := sample.Draw(g, opts.Sample)
	if err != nil {
		return nil, false, err
	}
	st.SampleTime = time.Since(sampleStart)
	st.Vertices = sub.G.NumVertices()
	st.Edges = sub.G.NumEdges()
	cVerts.Add(int64(st.Vertices))
	cEdges.Add(int64(st.Edges))
	cSampleNS.Add(st.SampleTime.Nanoseconds())

	// Stage 2: detect communities on the subgraph with a nested full
	// search. The sub-run inherits engine, tunables, Ctx, Verify and
	// (span-scoped) telemetry, but never the sampler, checkpointing or
	// progress hook: it is an internal stage, not a user-visible search.
	detectStart := time.Now()
	dOpts := *opts
	dOpts.Sample = sample.Options{}
	dOpts.Checkpoint = snapshot.Policy{}
	dOpts.Progress = nil
	dOpts.Seed = opts.Seed ^ sampleDetectSeedSalt
	dOpts.Obs = pipeObs
	det, err := run(sub.G, dOpts, nil)
	if err != nil {
		return nil, false, fmt.Errorf("sbp: sample detection: %w", err)
	}
	st.DetectTime = time.Since(detectStart)
	st.DetectMDL = det.MDL
	st.DetectBlocks = det.NumCommunities
	cDetectNS.Add(st.DetectTime.Nanoseconds())
	// Stage 3: extend the detected membership to the full graph.
	extendStart := time.Now()
	membership, ext, err := sample.Extend(g, sub, det.Best.Assignment, det.NumCommunities, opts.MCMC.Workers)
	if err != nil {
		return nil, false, fmt.Errorf("sbp: membership extension: %w", err)
	}
	work, err := blockmodel.FromAssignment(g, membership, det.NumCommunities, opts.MCMC.Workers)
	if err != nil {
		return nil, false, fmt.Errorf("sbp: extended blockmodel: %w", err)
	}
	work.Compact()
	st.ExtendTime = time.Since(extendStart)
	st.Anchored = ext.Anchored
	st.Fallback = ext.Fallback
	cExt.Add(int64(ext.Anchored + ext.Fallback))
	cExtendNS.Add(st.ExtendTime.Nanoseconds())
	if opts.Verify {
		check.MustInvariants(work, "extended sampled state")
	}
	if det.Interrupted {
		// Cancelled mid-detection: extend already ran from the best
		// state found so far, so the caller still holds a full-graph
		// state; its cancellation check finishes the run.
		br.insert(&bracketEntry{bm: work, mdl: work.MDL(), c: work.NumNonEmptyBlocks()})
		span.End(obs.F("interrupted", true))
		return st, true, nil
	}

	// Stage 4 (start of fine-tune): one membership-seeded refinement
	// pass at the extended community count. This is the first consumer
	// of the master RNG, so from here on the run is stream-for-stream a
	// normal search. The continued golden-section iterations — also part
	// of fine-tune — happen in the caller's loop.
	mcmcCfg := opts.MCMC
	mcmcCfg.Obs = pipeObs
	mcmcCfg.Ctx = opts.Ctx
	pre := work.Clone()
	cs := mcmc.Run(work, opts.Algorithm, mcmcCfg, rn)
	if cs.Interrupted {
		// work may be mid-sweep; fall back to the unrefined state.
		br.insert(&bracketEntry{bm: pre, mdl: pre.MDL(), c: pre.NumNonEmptyBlocks()})
		span.End(obs.F("interrupted", true))
		return st, true, nil
	}
	work.Compact()
	if opts.Verify {
		check.MustInvariants(work, "refined sampled state")
	}
	br.insert(&bracketEntry{bm: work, mdl: work.MDL(), c: work.NumNonEmptyBlocks()})
	if span != nil {
		span.End(obs.F("sub_vertices", st.Vertices), obs.F("sub_edges", st.Edges),
			obs.F("detect_blocks", st.DetectBlocks), obs.F("anchored", st.Anchored),
			obs.F("fallback", st.Fallback), obs.F("seed_mdl", br.mid.mdl),
			obs.F("seed_blocks", br.mid.c))
	}
	return st, false, nil
}
