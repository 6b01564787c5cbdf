package mcmc

import (
	"repro/internal/blockmodel"
	"repro/internal/rng"
)

// Resume carries the exact chain position of an MCMC phase at a sweep
// boundary: everything an engine needs to continue the phase
// bit-identically to an uninterrupted run. A record is produced by the
// Config.OnCheckpoint hook and consumed via Config.Resume.
type Resume struct {
	// Sweep is the next sweep index to execute.
	Sweep int
	// PrevMDL is the convergence baseline: the description length after
	// sweep Sweep-1, which is also exactly the MDL of the boundary
	// membership.
	PrevMDL float64
	// InitialS is the description length at the original phase start
	// (not at the resume point), so resumed Stats report the true delta.
	InitialS float64
	// Proposals and Accepts are the phase accumulators at the boundary.
	Proposals int64
	Accepts   int64

	// Membership is the boundary membership when it differs from the
	// blockmodel the engine currently holds — set when a cancelled sweep
	// had already mutated the blockmodel and the checkpoint rolls back
	// to the sweep's start. Nil means the blockmodel's own assignment is
	// the boundary state.
	Membership []int32
	// MasterRNG is the marshaled master stream at phase start: the
	// phase draws its key from it first, so a resumed phase draws the
	// same key again. Always set on capture; ignored on resume (the
	// caller restores the master stream before invoking Run).
	MasterRNG []byte
}

// guard coordinates cancellation and sweep-boundary checkpointing for
// one engine run. The sweep loop calls enter at the top of every sweep and
// abort when a cancelled worker pool unwound mid-sweep; the guard then
// rolls the phase back to the state it saved before the sweep started
// mutating anything, so every checkpoint — periodic or cancellation —
// is a clean sweep boundary. When neither a context nor a checkpoint
// hook is configured every method is a cheap no-op.
type guard struct {
	cfg *Config
	bm  *blockmodel.Blockmodel
	st  *Stats

	master     []byte // the master stream at phase start, which every checkpoint carries
	startSweep int

	// saveMembership reports that the engine mutates bm.Assignment
	// before the boundary rebuild, so the sweep top must save it to roll
	// a cancelled sweep back.
	saveMembership bool

	savedPrev       float64
	savedMembership []int32
	savedProposals  int64
	savedAccepts    int64
}

// newGuard must run before the phase draws its key from rn, so that the
// master it records is the phase-start position.
func newGuard(cfg *Config, bm *blockmodel.Blockmodel, rn *rng.RNG, st *Stats, saveMembership bool) *guard {
	g := &guard{cfg: cfg, bm: bm, st: st, saveMembership: saveMembership}
	if g.active() {
		g.master, _ = rn.MarshalBinary()
	}
	return g
}

// start applies a resume record (if any) and returns the first sweep
// index with the convergence baseline for the engine loop.
func (g *guard) start() (startSweep int, prev float64) {
	r := g.cfg.Resume
	if r == nil {
		return 0, g.st.InitialS
	}
	g.st.InitialS = r.InitialS
	g.st.Sweeps = r.Sweep
	g.st.Proposals = r.Proposals
	g.st.Accepts = r.Accepts
	g.startSweep = r.Sweep
	return r.Sweep, r.PrevMDL
}

// active reports whether sweep-boundary checkpoints are being captured.
func (g *guard) active() bool { return g.cfg.OnCheckpoint != nil }

// done exposes the cancellation channel for worker-pool polling (nil
// when no context is configured, which disables polling entirely).
func (g *guard) done() <-chan struct{} {
	if g.cfg.Ctx == nil {
		return nil
	}
	return g.cfg.Ctx.Done()
}

// enter runs the top-of-sweep protocol: emit a checkpoint and stop if
// the context is cancelled; emit a periodic checkpoint if the sweep
// hits the configured interval; save the rollback state a mid-sweep
// abort would need. It returns true when the phase must stop.
func (g *guard) enter(sweep int, prev float64) (stop bool) {
	if isClosed(g.done()) {
		g.emit(sweep, prev)
		g.st.Interrupted = true
		g.st.FinalS = prev
		return true
	}
	if g.active() && g.cfg.CheckpointEvery > 0 && sweep > g.startSweep && sweep%g.cfg.CheckpointEvery == 0 {
		g.emit(sweep, prev)
	}
	if g.cfg.Ctx != nil {
		g.savedPrev = prev
		g.savedProposals, g.savedAccepts = g.st.Proposals, g.st.Accepts
	}
	if g.active() && g.cfg.Ctx != nil && g.saveMembership {
		if cap(g.savedMembership) < len(g.bm.Assignment) {
			g.savedMembership = make([]int32, len(g.bm.Assignment))
		}
		copy(g.savedMembership, g.bm.Assignment)
	}
	return false
}

// abort finalizes a sweep that was cancelled after it started mutating
// state: the checkpoint is taken from the rollback snapshot enter
// saved, so it lands on the boundary of the aborted sweep.
func (g *guard) abort(sweep int) {
	var membership []int32
	if g.saveMembership {
		membership = g.savedMembership[:len(g.bm.Assignment)]
	}
	if g.active() && g.cfg.Ctx != nil {
		g.emitSaved(sweep, membership)
	}
	g.st.Interrupted = true
	g.st.FinalS = g.savedPrev
}

// emitSaved emits a checkpoint from the pre-sweep rollback snapshot.
func (g *guard) emitSaved(sweep int, membership []int32) {
	r := &Resume{
		Sweep:     sweep,
		PrevMDL:   g.savedPrev,
		InitialS:  g.st.InitialS,
		Proposals: g.savedProposals,
		Accepts:   g.savedAccepts,
		MasterRNG: append([]byte(nil), g.master...),
	}
	if membership != nil {
		r.Membership = append([]int32(nil), membership...)
	}
	g.cfg.OnCheckpoint(r)
}

// emit captures a checkpoint from live state at a clean boundary: the
// blockmodel's own assignment is the boundary membership.
func (g *guard) emit(sweep int, prev float64) {
	if !g.active() {
		return
	}
	g.cfg.OnCheckpoint(&Resume{
		Sweep:     sweep,
		PrevMDL:   prev,
		InitialS:  g.st.InitialS,
		Proposals: g.st.Proposals,
		Accepts:   g.st.Accepts,
		MasterRNG: append([]byte(nil), g.master...),
	})
}
