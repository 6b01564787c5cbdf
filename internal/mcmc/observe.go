package mcmc

import (
	"strconv"
	"time"

	"repro/internal/obs"
)

// This file is the single instrumentation path of the MCMC phase.
// Engines observe through a phaseObs/sweepProbe pair; the probe both
// updates the live obs registry and assembles the SweepRecord that
// lands in Stats.PerSweep. Because the post-hoc record is *derived
// from* the same probe calls that feed the live metrics — not filled
// in by parallel bookkeeping code — the two accounting paths cannot
// drift apart.
//
// Hot-path discipline: nothing here runs per proposal. Probe calls
// happen at pass and sweep granularity, and every live instrument is
// nil (a no-op) when telemetry is disabled, so an uninstrumented run
// pays a handful of nil-compares per sweep.

// phaseObs carries one MCMC phase's instrument handles. All handles
// are nil when cfg.Obs has no registry; the probe methods still
// assemble SweepRecords, so observability output is identical with
// telemetry on or off.
type phaseObs struct {
	span *obs.Span // phase span (nil when tracing is disabled)

	sweeps, proposals, accepts *obs.Counter
	serialNS, rebuildNS, mdlNS *obs.Counter
	workerBusy, workerIdle     []*obs.Counter // indexed by worker id
	sweepDur, propEval         *obs.Histogram
	mdl, acceptRate, imbalance *obs.Gauge
}

// newPhaseObs registers (or re-attaches to) the engine-labeled phase
// instruments and opens the phase span. workers sizes the per-worker
// series; pass 0 for the serial engine.
func newPhaseObs(o obs.Obs, alg Algorithm, workers int, initialS float64, blocks int) *phaseObs {
	reg := o.Metrics // nil registry hands out nil no-op instruments
	eng := obs.L("engine", alg.String())
	po := &phaseObs{
		sweeps:    reg.Counter("mcmc_sweeps_total", "MCMC sweeps executed", eng),
		proposals: reg.Counter("mcmc_proposals_total", "vertex move proposals evaluated", eng),
		accepts:   reg.Counter("mcmc_accepts_total", "vertex move proposals accepted", eng),
		serialNS:  reg.Counter("mcmc_serial_ns_total", "wall nanoseconds in serial (V*) passes", eng),
		rebuildNS: reg.Counter("mcmc_rebuild_ns_total", "wall nanoseconds rebuilding the blockmodel", eng),
		mdlNS:     reg.Counter("mcmc_mdl_ns_total", "wall nanoseconds scoring the description length after each sweep", eng),
		sweepDur: reg.Histogram("mcmc_sweep_duration_ns", "wall nanoseconds per sweep",
			obs.NanosBuckets, eng),
		propEval: reg.Histogram("mcmc_proposal_eval_ns", "mean proposal-evaluation nanoseconds per sweep",
			obs.NanosBuckets, eng),
		mdl:        reg.Gauge("mcmc_mdl", "description length after the latest sweep", eng),
		acceptRate: reg.Gauge("mcmc_acceptance_rate", "accepted/evaluated proposals of the running phase", eng),
		imbalance:  reg.Gauge("mcmc_imbalance_max", "worst per-sweep worker busy-time max/mean ratio", eng),
	}
	if workers > 0 {
		po.workerBusy = make([]*obs.Counter, workers)
		po.workerIdle = make([]*obs.Counter, workers)
		for w := 0; w < workers; w++ {
			wl := obs.L("worker", strconv.Itoa(w))
			po.workerBusy[w] = reg.Counter("mcmc_worker_busy_ns_total",
				"async-pass busy nanoseconds per worker", eng, wl)
			po.workerIdle[w] = reg.Counter("mcmc_worker_idle_ns_total",
				"nanoseconds a worker waited on its pass's critical path", eng, wl)
		}
	}
	po.span = o.StartSpan("mcmc",
		obs.F("engine", alg.String()), obs.F("mdl", initialS),
		obs.F("blocks", blocks), obs.F("workers", workers))
	return po
}

// endPhase closes the phase span with the chain's outcome.
func (po *phaseObs) endPhase(st *Stats) {
	if po.span == nil {
		return
	}
	po.span.End(
		obs.F("sweeps", st.Sweeps), obs.F("mdl", st.FinalS),
		obs.F("proposals", st.Proposals), obs.F("accepts", st.Accepts),
		obs.F("converged", st.Converged))
}

// sweepProbe accumulates one sweep. Engines feed it pass timings; at
// finish it derives the SweepRecord, publishes the sweep's deltas to
// the live instruments, and emits the sweep trace event.
type sweepProbe struct {
	po                    *phaseObs
	rec                   SweepRecord
	start                 time.Time
	startProps, startAccs int64
}

// sweep opens a probe for one sweep. workers sizes rec.WorkerNS (0
// leaves it nil, as in the serial engine).
func (po *phaseObs) sweep(sweep, workers int, st *Stats) *sweepProbe {
	sp := &sweepProbe{po: po, start: time.Now(), startProps: st.Proposals, startAccs: st.Accepts}
	sp.rec.Sweep = sweep
	if workers > 0 {
		sp.rec.WorkerNS = make([]float64, workers)
	}
	return sp
}

// serial records a serial (V*) pass's wall time.
func (sp *sweepProbe) serial(ns float64) {
	sp.rec.SerialNS += ns
	sp.po.serialNS.Add(int64(ns))
}

// pass records the per-worker busy times of one parallel pass and
// returns the pass's total busy time (the caller charges it to the
// parallel cost account). Idle time is each worker's gap to the
// pass's critical path — the live per-worker busy/idle split.
func (sp *sweepProbe) pass(workTimes []float64) float64 {
	var max, total float64
	for _, t := range workTimes {
		if t > max {
			max = t
		}
		total += t
	}
	for w, t := range workTimes {
		sp.rec.WorkerNS[w] += t
		if w < len(sp.po.workerBusy) {
			sp.po.workerBusy[w].Add(int64(t))
			sp.po.workerIdle[w].Add(int64(max - t))
		}
	}
	return total
}

// rebuild records a blockmodel rebuild's wall time.
func (sp *sweepProbe) rebuild(ns float64) {
	sp.rec.RebuildNS += ns
	sp.po.rebuildNS.Add(int64(ns))
}

// score records the wall time of the description length pass that ends
// the sweep.
func (sp *sweepProbe) score(ns float64) {
	sp.rec.MDLNS += ns
	sp.po.mdlNS.Add(int64(ns))
}

// finish completes the sweep: the record's MDL and count deltas, the
// derived imbalance ratio, the live-registry updates, and the sweep
// trace event. The returned record is what engines append to
// Stats.PerSweep.
func (sp *sweepProbe) finish(st *Stats, mdl float64) SweepRecord {
	sp.rec.MDL = mdl
	sp.rec.Proposals = st.Proposals - sp.startProps
	sp.rec.Accepts = st.Accepts - sp.startAccs
	sp.rec.finish()

	po := sp.po
	po.sweeps.Inc()
	po.proposals.Add(sp.rec.Proposals)
	po.accepts.Add(sp.rec.Accepts)
	po.mdl.Set(mdl)
	if st.Proposals > 0 {
		po.acceptRate.Set(float64(st.Accepts) / float64(st.Proposals))
	}
	po.imbalance.SetMax(sp.rec.Imbalance)
	durNS := time.Since(sp.start).Nanoseconds()
	po.sweepDur.Observe(float64(durNS))
	if sp.rec.Proposals > 0 {
		var busy float64
		for _, t := range sp.rec.WorkerNS {
			busy += t
		}
		po.propEval.Observe((sp.rec.SerialNS + busy) / float64(sp.rec.Proposals))
	}
	if po.span != nil {
		po.span.Event("sweep",
			obs.F("sweep", sp.rec.Sweep), obs.F("mdl", mdl),
			obs.F("proposals", sp.rec.Proposals), obs.F("accepts", sp.rec.Accepts),
			obs.F("serial_ns", sp.rec.SerialNS), obs.F("rebuild_ns", sp.rec.RebuildNS),
			obs.F("mdl_ns", sp.rec.MDLNS),
			obs.F("worker_ns", sp.rec.WorkerNS), obs.F("imbalance", sp.rec.Imbalance),
			obs.F("dur_ns", durNS))
	}
	return sp.rec
}
