package main

import (
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mcmc"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sbp"
	"repro/internal/snapshot"
)

// searchFloor: the S5 graphs have strong planted structure; every seed
// recovers it (NMI 1) at mdl_norm ≈ 0.88.
var searchFloor = floor{nmi: 0.9, mdlNorm: 0.95}

type searchInput struct {
	g     *graph.Graph
	truth []int32
}

// s5Graph realizes Table-1 graph S5 at the vertex budget with the given
// generator seed offset (seed 1, input 0 is internal/benchmark's
// table1-s5 shape).
func s5Graph(budget int, seed uint64, i int) (*graph.Graph, []int32, error) {
	spec, err := gen.TableOneSpec(5, float64(budget)/200000)
	if err != nil {
		return nil, nil, err
	}
	spec.Seed = inputSeed(spec.Seed, seed, i)
	return gen.Generate(spec)
}

func genSearchInputs(seed uint64, p params) ([]searchInput, error) {
	out := make([]searchInput, p.Inputs)
	for i := range out {
		g, truth, err := s5Graph(p.Budget, seed, i)
		if err != nil {
			return nil, err
		}
		out[i] = searchInput{g, truth}
	}
	return out, nil
}

// searchWorkload is search-dense-asbp (A-SBP) or search-dense-bsbp
// (B-SBP): whole sbp.Run searches, one per input.
func searchWorkload(alg mcmc.Algorithm) func(r *run) error {
	return func(r *run) error {
		inputs, err := setupInputs(r, func() ([]searchInput, error) { return genSearchInputs(r.seed, r.p) })
		if err != nil {
			return err
		}
		var traced *sbp.Result
		op := func(i, workers int, t *tracing) (opResult, error) {
			rep, o := repSpan(t, obs.F("workload", r.name), obs.F("input", i), obs.F("workers", workers))
			opts := sbp.DefaultOptions(alg)
			opts.Seed = chainSeed
			opts.MCMC.Workers, opts.Merge.Workers = workers, workers
			opts.Obs = o
			var res *sbp.Result
			var out opResult
			out.allocMB, out.gcCycles = memDelta(func() {
				t0 := time.Now()
				res = sbp.Run(inputs[i].g, opts)
				out.wall = time.Since(t0)
			})
			rep.End()
			if t != nil {
				traced = res
			}
			r.checkSearch(inputs[i], res, &out)
			return out, nil
		}
		if !r.trace {
			r.timedOps(len(inputs), op)
			return nil
		}
		layers := func(t *tracing) error {
			rep, err := rootSpan(t, "bench.rep")
			if err != nil {
				return err
			}
			r.searchLayers(traced, rep.dur)
			return nil
		}
		mrng, err := rng.New(chainSeed).MarshalBinary()
		if err != nil {
			return err
		}
		ckpt := func(p snapshot.Policy) error {
			return p.WriteSearch(&snapshot.SearchState{
				Seed: chainSeed, Algorithm: int32(alg), NumVertices: int64(inputs[0].g.NumVertices()), MasterRNG: mrng,
				Mid: &snapshot.BracketEntry{C: int32(traced.Best.C), MDL: traced.MDL, Membership: traced.Best.Assignment},
			})
		}
		r.recordAbsent("dist.bytes", "dist.vstar_wait_share", "stream.full_searches", "stream.escalations",
			"serve.query_slow_frac", "loadgen.late_frac")
		return r.traceOps(len(inputs), op, layers, inputs[0].g, ckpt)
	}
}

// checkSearch checks one search result and fills out's quality and
// fingerprint.
func (r *run) checkSearch(in searchInput, res *sbp.Result, out *opResult) {
	out.ok = r.checkModel("search", res.Best, res.MDL)
	nmi, err := metrics.NMI(in.truth, res.Best.Assignment)
	out.ok = r.op(err, "search NMI") && out.ok
	out.ok = r.checkQuality("search", nmi, res.NormalizedMDL, searchFloor) && out.ok
	out.nmi, out.mdlNorm = nmi, res.NormalizedMDL
	out.fp = fingerprint{MDL: res.MDL, Blocks: res.NumCommunities, Sweeps: res.TotalMCMCSweeps,
		Hash: hashMembership(res.Best.Assignment)}
	for _, it := range res.Iterations {
		out.fp.Proposals += it.MCMC.Proposals
	}
}

// searchLayers splits a traced search from the records sbp.Run
// publishes: merge phases, and per sweep the serial pass, the async
// pass's slowest worker and the rebuild. The rest of each MCMC phase is
// its set-up and per-sweep bookkeeping (mcmc.other); the rest of the run
// — identity build, compaction, MDL, the bracket — is the residual.
func (r *run) searchLayers(res *sbp.Result, wall float64) {
	b := newBreakdown(wall)
	var ct chainTally
	var mcmcTime float64
	for _, it := range res.Iterations {
		b.add("merge.phase", it.MergeTime.Seconds())
		mcmcTime += it.MCMCTime.Seconds()
		ct.proposals += it.MCMC.Proposals
		ct.accepts += it.MCMC.Accepts
		r.layers["merge.proposals"] += float64(it.Merge.Proposals)
		for _, rec := range it.MCMC.PerSweep {
			ct.sweep(rec.SerialNS, rec.WorkerNS, rec.RebuildNS)
		}
	}
	ct.addTo(b)
	b.add("mcmc.other", mcmcTime-ct.serial-ct.async-ct.rebuild)
	r.recordBreakdown(b)
	r.recordChain(ct)
	r.layers["sbp.iterations"] = float64(len(res.Iterations))
}
