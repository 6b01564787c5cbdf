package sbp

import (
	"fmt"

	"repro/internal/blockmodel"
	"repro/internal/graph"
	"repro/internal/mcmc"
	"repro/internal/merge"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// Resume continues the search persisted in opts.Checkpoint.Dir. The
// deterministic configuration — seed, engine, every tunable that shapes
// the chain — is taken from the checkpoint, not from opts, so the
// continuation is bit-identical to the uninterrupted run; opts
// contributes the rest: the worker widths (which never change the
// chain), Ctx, Obs, Progress, Verify and the Checkpoint policy itself.
// It fails with the typed snapshot errors on damaged checkpoints, an
// unknown engine included, and with fs.ErrNotExist when none has been
// written yet.
func Resume(g *graph.Graph, opts Options) (*Result, error) {
	if !opts.Checkpoint.Enabled() {
		return nil, fmt.Errorf("sbp: Resume requires Checkpoint.Dir")
	}
	rs, err := opts.Checkpoint.LoadSearch()
	if err != nil {
		return nil, fmt.Errorf("sbp: load checkpoint: %w", err)
	}
	if rs.NumVertices != int64(g.NumVertices()) {
		return nil, fmt.Errorf("sbp: checkpoint is for %d vertices, graph has %d", rs.NumVertices, g.NumVertices())
	}
	opts.Algorithm = mcmc.Algorithm(rs.Algorithm)
	if !opts.Algorithm.Valid() {
		return nil, fmt.Errorf("sbp: checkpoint algorithm %d: %w", rs.Algorithm, snapshot.ErrCorrupt)
	}
	opts.Seed = rs.Seed
	opts.MCMC.Beta = rs.Beta
	opts.MCMC.Threshold = rs.Threshold
	opts.MCMC.MaxSweeps = int(rs.MaxSweeps)
	opts.MCMC.HybridFraction = rs.HybridFraction
	opts.MCMC.Batches = int(rs.Batches)
	opts.Merge.Candidates = int(rs.MergeCandidates)
	opts.Checkpoint.NoteResume()
	return run(g, opts, rs)
}

// checkpointer persists search state under the run's Policy. A nil
// checkpointer (checkpointing disabled) is valid and all methods
// no-op, so the run body calls it unconditionally.
type checkpointer struct {
	pol         snapshot.Policy
	g           *graph.Graph
	opts        *Options
	resumeCount int32
}

func newCheckpointer(g *graph.Graph, opts *Options, rs *snapshot.SearchState) *checkpointer {
	if !opts.Checkpoint.Enabled() {
		return nil
	}
	ck := &checkpointer{pol: opts.Checkpoint, g: g, opts: opts}
	if rs != nil {
		ck.resumeCount = rs.ResumeCount + 1
	}
	return ck
}

// base fills the configuration and identity fields every search
// checkpoint carries.
func (ck *checkpointer) base(iter int, done bool) *snapshot.SearchState {
	o := ck.opts
	return &snapshot.SearchState{
		Seed:            o.Seed,
		Algorithm:       int32(o.Algorithm),
		Beta:            o.MCMC.Beta,
		Threshold:       o.MCMC.Threshold,
		MaxSweeps:       int32(o.MCMC.MaxSweeps),
		HybridFraction:  o.MCMC.HybridFraction,
		Batches:         int32(o.MCMC.Batches),
		MergeCandidates: int32(o.Merge.Candidates),
		NumVertices:     int64(ck.g.NumVertices()),
		Iter:            int32(iter),
		ResumeCount:     ck.resumeCount,
		Done:            done,
	}
}

func snapEntry(e *bracketEntry) *snapshot.BracketEntry {
	if e == nil {
		return nil
	}
	return &snapshot.BracketEntry{
		C:          int32(e.c),
		MDL:        e.mdl,
		Membership: append([]int32(nil), e.bm.Assignment...),
	}
}

// writeIteration checkpoints an outer-iteration boundary (or, with
// done, the completed search). Write failures are routed to the
// Policy's OnError hook — losing a checkpoint never kills the search.
func (ck *checkpointer) writeIteration(br *bracket, rn *rng.RNG, iter int, done bool) {
	if ck == nil {
		return
	}
	st := ck.base(iter, done)
	st.MasterRNG, _ = rn.MarshalBinary()
	st.Hi, st.Mid, st.Lo = snapEntry(br.hi), snapEntry(br.mid), snapEntry(br.lo)
	_ = ck.pol.WriteSearch(st)
}

// writePhase checkpoints an MCMC sweep boundary inside an iteration.
// The bracket is the iteration-top state (the phase has not been
// inserted yet); the master RNG travels inside the Resume record, which
// the engine marshaled at phase start.
func (ck *checkpointer) writePhase(br *bracket, iter, fromC, target int, work *blockmodel.Blockmodel, ms merge.Stats, r *mcmc.Resume) {
	if ck == nil {
		return
	}
	st := ck.base(iter, false)
	st.MasterRNG = r.MasterRNG
	st.Hi, st.Mid, st.Lo = snapEntry(br.hi), snapEntry(br.mid), snapEntry(br.lo)
	membership := r.Membership
	if membership == nil {
		membership = append([]int32(nil), work.Assignment...)
	}
	st.Phase = &snapshot.PhaseState{
		FromBlocks:     int32(fromC),
		TargetBlocks:   int32(target),
		WorkBlocks:     int32(work.C),
		WorkMDL:        r.PrevMDL, // the boundary membership's MDL, exactly
		Membership:     membership,
		MergeRequested: int32(ms.Requested),
		MergeApplied:   int32(ms.Applied),
		MergeProposals: ms.Proposals,
		Sweep:          int32(r.Sweep),
		PrevMDL:        r.PrevMDL,
		InitialS:       r.InitialS,
		Proposals:      r.Proposals,
		Accepts:        r.Accepts,
	}
	_ = ck.pol.WriteSearch(st)
}

// restoreBracket rebuilds the golden-section bracket from checkpointed
// memberships, verifying each entry's MDL bit-for-bit.
func restoreBracket(br *bracket, rs *snapshot.SearchState, g *graph.Graph) error {
	restore := func(se *snapshot.BracketEntry, name string) (*bracketEntry, error) {
		if se == nil {
			return nil, nil
		}
		bm, err := blockmodel.FromCheckpoint(g, se.Membership, int(se.C), se.MDL)
		if err != nil {
			return nil, fmt.Errorf("sbp: bracket %s: %w", name, err)
		}
		return &bracketEntry{bm: bm, mdl: se.MDL, c: int(se.C)}, nil
	}
	var err error
	if br.hi, err = restore(rs.Hi, "hi"); err != nil {
		return err
	}
	if br.mid, err = restore(rs.Mid, "mid"); err != nil {
		return err
	}
	if br.lo, err = restore(rs.Lo, "lo"); err != nil {
		return err
	}
	if br.mid == nil {
		return fmt.Errorf("sbp: checkpoint has no bracket mid state")
	}
	return nil
}

// restorePhase reconstructs a mid-iteration resume: the working
// blockmodel at the recorded sweep boundary (MDL-verified), the merge
// stats of the already-completed merge phase, and the engine's chain
// position.
func restorePhase(g *graph.Graph, opts *Options, p *snapshot.PhaseState) (fromC, target int, work *blockmodel.Blockmodel, ms merge.Stats, resume *mcmc.Resume, err error) {
	work, err = blockmodel.FromCheckpoint(g, p.Membership, int(p.WorkBlocks), p.WorkMDL)
	if err != nil {
		return 0, 0, nil, ms, nil, fmt.Errorf("sbp: phase state: %w", err)
	}
	ms = merge.Stats{
		Requested: int(p.MergeRequested),
		Applied:   int(p.MergeApplied),
		Proposals: p.MergeProposals,
	}
	resume = &mcmc.Resume{
		Sweep:     int(p.Sweep),
		PrevMDL:   p.PrevMDL,
		InitialS:  p.InitialS,
		Proposals: p.Proposals,
		Accepts:   p.Accepts,
	}
	return int(p.FromBlocks), int(p.TargetBlocks), work, ms, resume, nil
}
