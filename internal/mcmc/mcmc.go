// Package mcmc implements the MCMC phase of stochastic block partitioning.
// The paper's engines are one Metropolis-Hastings chain run under
// different schedules, and one sweep loop runs them all. A sweep is a
// live serial pass over a vertex list (every accepted move updates the
// blockmodel, so each proposal sees the exact current state), then
// zero or more asynchronous passes (all listed vertices proposed in
// parallel against a frozen blockmodel, accepted moves recorded in a
// private membership), each followed by a rebuild of the blockmodel
// from the vertices the pass moved:
//
//   - SBP (Algorithm 2): every vertex serial, no async pass.
//   - A-SBP (Algorithm 3): one async pass over every vertex, so
//     proposals are at most one sweep stale.
//   - H-SBP (Algorithm 4): the top fraction of vertices by degree (V*)
//     serial, then one async pass over the rest (V⁻).
//   - B-SBP (the batched A-SBP of the paper's conclusion): Batches async
//     passes over contiguous vertex groups, so proposals are at most
//     1/Batches of a sweep stale.
//
// All passes use the exact-asynchronous-Gibbs acceptance rule: every
// proposal is decided by the Metropolis-Hastings ratio exp(−β·ΔS)·H
// rather than accepted unconditionally (H is walked for only when it
// could change the decision; see accept). The passes are exported so
// the distributed rank (internal/dist) runs the same code.
package mcmc

import (
	"context"
	"fmt"
	"math"

	"repro/internal/blockmodel"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// Algorithm selects the MCMC engine.
type Algorithm int

const (
	// SerialMH is the baseline sequential Metropolis-Hastings chain (SBP).
	SerialMH Algorithm = iota
	// AsyncGibbs is the fully parallel asynchronous Gibbs chain (A-SBP).
	AsyncGibbs
	// Hybrid processes influential vertices serially and the rest
	// asynchronously (H-SBP).
	Hybrid
	// BatchedGibbs is batched asynchronous Gibbs (B-SBP), the extension
	// sketched in the paper's conclusion: the blockmodel is rebuilt
	// after each of Config.Batches vertex groups per sweep, bounding
	// staleness to a fraction of a sweep without any serial pass.
	BatchedGibbs
)

// DefaultBatches is the batch count used by BatchedGibbs when
// Config.Batches is unset.
const DefaultBatches = 4

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case SerialMH:
		return "SBP"
	case AsyncGibbs:
		return "A-SBP"
	case Hybrid:
		return "H-SBP"
	case BatchedGibbs:
		return "B-SBP"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Valid reports whether a names one of the four engines. Run panics
// on any other value, so an Algorithm read from outside the program is
// checked with Valid first.
func (a Algorithm) Valid() bool {
	return a >= SerialMH && a <= BatchedGibbs
}

// Config holds the tunables of the MCMC phase. The zero value is not
// usable; call DefaultConfig.
type Config struct {
	// Beta is the inverse temperature in the acceptance probability
	// exp(−β·ΔS)·H. The Graph Challenge reference implementation the
	// paper builds on uses 3.
	Beta float64

	// Threshold is t in Algorithms 2–4: the phase stops when the
	// absolute MDL change of a sweep falls below Threshold·|MDL|.
	Threshold float64

	// MaxSweeps is x in Algorithms 2–4: the hard cap on sweeps.
	MaxSweeps int

	// HybridFraction is the share of vertices (by descending degree)
	// processed serially by the Hybrid engine. The paper reserves 15%.
	HybridFraction float64

	// Workers is the parallel width of the asynchronous passes; <= 0
	// means GOMAXPROCS. Every vertex draws from its own stream, so the
	// width never changes the chain.
	Workers int

	// Batches is the number of rebuild batches per sweep for the
	// BatchedGibbs engine (<= 0 selects DefaultBatches). Ignored by the
	// other engines.
	Batches int

	// Obs attaches live telemetry (internal/obs): engine-labeled
	// counters, gauges and histograms in Obs.Metrics, and a phase span
	// with per-sweep events through Obs.Tracer. The zero value
	// disables both. Telemetry never touches the RNG or the chain
	// state, so enabling it leaves results bit-identical.
	Obs obs.Obs

	// Ctx, when non-nil, makes the phase cancellable: it is polled at
	// every sweep boundary and inside the parallel worker pools, and on
	// cancellation the engine stops at (or rolls back to) the current
	// sweep's boundary, marks Stats.Interrupted, and — when OnCheckpoint
	// is set — delivers a final boundary checkpoint. Nil disables all
	// polling.
	Ctx context.Context

	// CheckpointEvery asks for a periodic OnCheckpoint delivery at the
	// top of every CheckpointEvery-th sweep (<= 0 disables periodic
	// captures; cancellation captures still fire).
	CheckpointEvery int

	// OnCheckpoint, when non-nil, receives sweep-boundary Resume
	// records. The record and everything it references is owned by the
	// callee; engines never touch it again. Called synchronously from
	// the engine goroutine.
	OnCheckpoint func(*Resume)

	// Resume, when non-nil, continues a phase from a checkpoint instead
	// of starting fresh: the blockmodel must already hold the boundary
	// state and the master RNG must already be restored to the record's
	// MasterRNG, its phase-start position. Workers may differ from the
	// interrupted run's.
	Resume *Resume

	// Verify enables oracle cross-checking (internal/check): every
	// evaluated proposal's incremental ΔS and Hastings correction are
	// compared against a dense apply-and-recompute reference, and the
	// blockmodel's invariants (matrix vs membership, row/column sums vs
	// block degrees, MDL vs dense recomputation) are revalidated after
	// every sweep and every mid-sweep rebuild. The first divergence
	// fails fast with a panic carrying a *check.Failure that names the
	// divergent quantity. Verification costs O(V + E + C²) per proposal
	// — use it on small graphs only.
	Verify bool
}

// DefaultConfig returns the configuration used in the paper's
// experiments.
func DefaultConfig() Config {
	return Config{
		Beta:           3,
		Threshold:      1e-4,
		MaxSweeps:      100,
		HybridFraction: 0.15,
		Workers:        0,
	}
}

// Stats reports what one MCMC phase did. Work accounting feeds the
// strong-scaling cost model (see internal/parallel).
type Stats struct {
	Algorithm Algorithm
	Sweeps    int     // sweeps executed
	Proposals int64   // proposals evaluated
	Accepts   int64   // proposals accepted
	InitialS  float64 // MDL before the phase
	FinalS    float64 // MDL after the phase
	Converged bool    // threshold reached before MaxSweeps

	// Interrupted reports that Config.Ctx was cancelled and the phase
	// stopped at a sweep boundary before converging. When checkpointing
	// was configured, the boundary state went to OnCheckpoint.
	Interrupted bool

	// PerSweep holds one record per executed sweep: the MDL trajectory,
	// proposal counts, and the per-worker busy times the imbalance
	// ratio is derived from.
	PerSweep []SweepRecord

	// Cost is the work/span account of the phase, in counted work: the
	// serial passes are serial work, the asynchronous passes are
	// parallel work, and a blockmodel rebuild and the MDL pass that ends
	// each sweep are serial work. PerSweep keeps the measured times.
	Cost parallel.CostModel
}

// MaxImbalance returns the worst per-sweep worker-imbalance ratio of
// the phase (1 = perfectly balanced; 0 = no parallel pass ran).
func (s Stats) MaxImbalance() float64 {
	var m float64
	for _, r := range s.PerSweep {
		if r.Imbalance > m {
			m = r.Imbalance
		}
	}
	return m
}

// MeanImbalance averages the imbalance ratio over the sweeps that ran a
// parallel pass (0 when none did).
func (s Stats) MeanImbalance() float64 {
	var sum float64
	n := 0
	for _, r := range s.PerSweep {
		if r.Imbalance > 0 {
			sum += r.Imbalance
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// SweepRecord captures one sweep of an MCMC phase for observability:
// what the chain did (MDL, proposals, accepts) and where the time went
// (serial pass, per-worker async pass, rebuild, MDL pass). All
// durations are nanoseconds of wall-clock busy time.
type SweepRecord struct {
	Sweep     int     `json:"sweep"`     // sweep index within the phase
	MDL       float64 `json:"mdl"`       // description length at sweep end
	Proposals int64   `json:"proposals"` // proposals evaluated this sweep
	Accepts   int64   `json:"accepts"`   // proposals accepted this sweep

	SerialNS  float64   `json:"serial_ns,omitempty"`  // serial (V*) pass time
	WorkerNS  []float64 `json:"worker_ns,omitempty"`  // async-pass busy time per worker
	RebuildNS float64   `json:"rebuild_ns,omitempty"` // blockmodel rebuild time
	MDLNS     float64   `json:"mdl_ns,omitempty"`     // end-of-sweep MDL pass time

	// Imbalance is the load-balance quality of the sweep's parallel
	// passes: max over mean of the per-worker busy times. 1 means every
	// worker finished together; 2 means the slowest worker did twice
	// the mean and the pass wasted half its parallel capacity. 1 when a
	// single worker ran; 0 when the sweep ran no parallel pass at all
	// (serial engine).
	Imbalance float64 `json:"imbalance,omitempty"`
}

// finish derives the imbalance ratio from the recorded worker times.
func (r *SweepRecord) finish() {
	var max, sum float64
	n := 0
	for _, t := range r.WorkerNS {
		if t <= 0 {
			continue
		}
		if t > max {
			max = t
		}
		sum += t
		n++
	}
	switch {
	case n > 1 && sum > 0:
		r.Imbalance = max * float64(n) / sum
	case n == 1:
		r.Imbalance = 1
	}
}

// Run executes the MCMC phase of the selected algorithm on bm in place
// and returns phase statistics. rn is the master RNG: the phase draws
// one key from it, and vertex v's proposal in sweep t draws from
// rng.At(key, t, v), so the chain depends on rn and cfg's algorithm
// settings but not on Workers.
func Run(bm *blockmodel.Blockmodel, alg Algorithm, cfg Config, rn *rng.RNG) Stats {
	sched := newSchedule(bm, alg, cfg)
	s0 := bm.MDL()
	po := newPhaseObs(cfg.Obs, alg, sched.workers, s0, bm.NumNonEmptyBlocks())
	st := sched.run(bm, cfg, rn, po, s0)
	po.endPhase(&st)
	return st
}

// accept decides a Metropolis-Hastings acceptance for an evaluated
// move: with a = e·H, e = exp(−β·ΔS), it accepts when a ≥ 1 and
// otherwise iff a draw u < a. The Hastings correction H never exceeds
// bm.HastingsBound(), so when e·bound < 1, a < 1 too and the rule draws
// u; every u ≥ e·bound then rejects without walking for H. Rounding is
// monotone, so fl(e·H) ≤ fl(e·bound): every decision and every draw is
// the full rule's (TestStepMatchesFullHastingsRule).
func accept(bm *blockmodel.Blockmodel, md *blockmodel.MoveDelta, beta float64, rn *rng.RNG) bool {
	e := math.Exp(-beta * md.DeltaS)
	if eb := e * bm.HastingsBound(); eb < 1 {
		u := rn.Float64()
		return u < eb && u < e*bm.HastingsCorrection(md)
	}
	a := e * bm.HastingsCorrection(md)
	return a >= 1 || rn.Float64() < a
}

// converged implements the loop exit test "ΔMDL < t × MDL". The
// comparison is non-strict so that an exactly unchanged MDL (e.g. an
// edgeless graph, where the description length is identically zero)
// still terminates the phase.
func converged(prev, cur, threshold float64) bool {
	return math.Abs(prev-cur) <= threshold*math.Abs(cur)
}
