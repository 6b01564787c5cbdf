package main

import (
	"fmt"
	"time"

	"repro/internal/blockmodel"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// hubFloor: one fixed-C phase from a random membership lowers the MDL
// but stays above the null model (mdl_norm ≈ 1.1 at C=512); it recovers
// a good part of the planted structure (NMI ≈ 0.43).
var hubFloor = floor{nmi: 0.2, mdlNorm: 1.5}

type hubInput struct {
	g          *graph.Graph
	truth      []int32
	membership []int32
}

// genHubInputs realizes internal/benchmark's powerlaw-hub shape and
// cmd/dsbp's seeded random starting membership.
func genHubInputs(seed uint64, p params) ([]hubInput, error) {
	out := make([]hubInput, p.Inputs)
	for i := range out {
		s := inputSeed(41, seed, i)
		g, truth, err := gen.Generate(gen.Spec{
			Name: "plaw-hub", Vertices: p.HubVertices, Communities: 8, MinDegree: 1,
			MaxDegree: p.HubVertices / 4, Exponent: 1.8, Ratio: 4, Seed: s,
		})
		if err != nil {
			return nil, err
		}
		init := rng.New(s ^ 0xD5B9_1217)
		m := make([]int32, g.NumVertices())
		for v := range m {
			m[v] = int32(init.Intn(p.HubBlocks))
		}
		out[i] = hubInput{g, truth, m}
	}
	return out, nil
}

// dsbpWorkload is dsbp-hub-hybrid: one D-H-SBP phase per input over an
// in-process cluster.
func dsbpWorkload(r *run) error {
	inputs, err := setupInputs(r, func() ([]hubInput, error) { return genHubInputs(r.seed, r.p) })
	if err != nil {
		return err
	}
	var traced dist.PhaseStats
	var final *blockmodel.Blockmodel
	op := func(i, ranks int, t *tracing) (opResult, error) {
		in := inputs[i]
		// Building the starting blockmodel is not part of the phase.
		bm, err := blockmodel.FromAssignment(in.g, in.membership, r.p.HubBlocks, 1)
		if err != nil {
			return opResult{}, err
		}
		rep, o := repSpan(t, obs.F("workload", r.name), obs.F("input", i), obs.F("ranks", ranks))
		cfg := dist.DefaultConfig()
		cfg.Ranks, cfg.Seed, cfg.Obs = ranks, chainSeed, o
		var st dist.PhaseStats
		var out opResult
		out.allocMB, out.gcCycles = memDelta(func() {
			t0 := time.Now()
			st, err = dist.RunMCMCPhase(bm, dist.ModeHybrid, cfg)
			out.wall = time.Since(t0)
		})
		rep.End()
		if err != nil {
			return out, err
		}
		if t != nil {
			traced, final = st, bm
		}
		r.checkPhase(in, bm, st, &out)
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
		return r.dsbpLayers(rep, traced)
	}
	mrng, err := rng.New(chainSeed).MarshalBinary()
	if err != nil {
		return err
	}
	ckpt := func(p snapshot.Policy) error {
		return p.WriteRank(&snapshot.RankState{
			Seed: chainSeed, Ranks: pinnedWorkers, Mode: int32(dist.ModeHybrid),
			NumVertices: int64(final.G.NumVertices()), Blocks: int32(final.C), Sweep: int32(traced.Sweeps),
			PrevMDL: traced.FinalS, InitialS: traced.InitialS, RNG: mrng, Membership: final.Assignment,
		})
	}
	r.recordAbsent("merge.proposals", "sbp.iterations", "stream.full_searches", "stream.escalations",
		"serve.query_slow_frac", "loadgen.late_frac")
	return r.traceOps(len(inputs), op, layers, inputs[0].g, ckpt)
}

// checkPhase checks one phase result and fills out's quality and
// fingerprint.
func (r *run) checkPhase(in hubInput, bm *blockmodel.Blockmodel, st dist.PhaseStats, out *opResult) {
	out.ok = r.checkModel("phase", bm, st.FinalS)
	out.ok = r.check(st.FinalS < st.InitialS, "phase: MDL %v did not drop below %v", st.FinalS, st.InitialS) && out.ok
	nmi, err := metrics.NMI(in.truth, bm.Assignment)
	out.ok = r.op(err, "phase NMI") && out.ok
	out.nmi, out.mdlNorm = nmi, bm.NormalizedMDL()
	out.ok = r.checkQuality("phase", out.nmi, out.mdlNorm, hubFloor) && out.ok
	out.fp = fingerprint{MDL: st.FinalS, Blocks: bm.NumNonEmptyBlocks(), Sweeps: st.Sweeps, Proposals: st.Proposals,
		Bytes: st.TrafficBytes, Hash: hashMembership(bm.Assignment)}
}

// dsbpLayers splits a traced phase along its critical path. Per sweep,
// rank 0's serial V* pass comes first, then the slowest rank's async
// pass, then the slowest rank's rebuild (the sweep span's self time);
// what remains of rank 0's sweep is communication and synchronization.
// Replica set-up, the final reductions and the caller's last rebuild
// fall outside the sweeps, in the residual.
func (r *run) dsbpLayers(root *span, st dist.PhaseStats) error {
	ranks := root.kids("rank")
	if len(ranks) != pinnedWorkers {
		return fmt.Errorf("trace has %d rank spans, want %d", len(ranks), pinnedWorkers)
	}
	byRank := make([][]*span, len(ranks))
	for _, rs := range ranks {
		id := int(num(rs.get("rank")))
		if id < 0 || id >= len(ranks) {
			return fmt.Errorf("rank span with rank %d", id)
		}
		byRank[id] = rs.kids("sweep")
	}
	b := newBreakdown(root.dur)
	var ct chainTally
	var vstarWait float64
	for s, sw0 := range byRank[0] {
		var serial0, rebuild float64
		async := make([]float64, len(byRank))
		for rk, sweeps := range byRank {
			if s >= len(sweeps) {
				return fmt.Errorf("rank %d has %d sweep spans, rank 0 has %d", rk, len(sweeps), len(byRank[0]))
			}
			sw := sweeps[s]
			for _, c := range sw.children {
				switch {
				case c.name == "mcmc" && c.get("pass") == "serial" && rk == 0:
					serial0 += c.dur
				case c.name == "mcmc" && c.get("pass") == "async":
					async[rk] += c.dur * 1e9
				case c.name == "comm" && c.get("op") == "allgather_vstar" && rk > 0:
					vstarWait += c.dur
				}
			}
			rebuild = max(rebuild, sw.self())
		}
		before := ct.async
		ct.sweep(serial0*1e9, async, rebuild*1e9)
		b.add("dist.comm", max(0, sw0.dur-serial0-(ct.async-before)-rebuild))
	}
	ct.addTo(b)
	ct.proposals, ct.accepts = st.Proposals, st.Accepts
	r.check(ct.sweeps == st.Sweeps, "trace has %d sweeps, PhaseStats %d", ct.sweeps, st.Sweeps)
	r.recordBreakdown(b)
	r.recordChain(ct)
	r.layers["dist.bytes"] = float64(st.TrafficBytes)
	r.layers["dist.vstar_wait_share"] = vstarWait / root.dur
	return nil
}
