package benchmark

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/blockmodel"
	"repro/internal/mcmc"
	"repro/internal/merge"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/sbp"
	"repro/internal/snapshot"
)

// runFunc executes one benchmark sample and reports the measured busy
// time in nanoseconds and the number of operations it covered. Samples
// time their own hot region so per-sample setup (cloning a blockmodel
// the workload is about to mutate) stays out of the measurement.
type runFunc func() (ns float64, ops int64)

// Workload names one column of the benchmark matrix. Setup builds the
// per-shape state once and returns the sampling function; every sample
// re-seeds its RNG, so all samples of a cell do identical work and the
// p50 spread reflects machine noise, not input variance.
type Workload struct {
	Name  string
	Setup func(sd *ShapeData, opts Options) (runFunc, error)

	// MaxSamples, when non-zero, caps this workload's timed samples
	// (and clamps warmup/alloc rounds to one): the end-to-end search
	// cells run whole seconds per sample, so the matrix-wide sample
	// count would turn one cell into minutes of wall clock.
	MaxSamples int
}

// Workloads returns the benchmark workload columns, in canonical order.
func Workloads() []Workload {
	return []Workload{
		{Name: "proposal-point-eval", Setup: setupPointEvalSparse},
		{Name: "proposal-point-eval-dense", Setup: setupPointEvalDense},
		{Name: "sweep-asbp", Setup: sweepSetup(mcmc.AsyncGibbs)},
		{Name: "sweep-hsbp", Setup: sweepSetup(mcmc.Hybrid)},
		{Name: "sweep-bsbp", Setup: sweepSetup(mcmc.BatchedGibbs)},
		{Name: "merge-scan", Setup: setupMergeScan},
		{Name: "checkpoint-write", Setup: setupCheckpointWrite},
		{Name: "sparse-row-walk", Setup: setupSparseRowWalk},
		{Name: "search-full", Setup: searchSetup(0), MaxSamples: 3},
		{Name: "sweep-sambas", Setup: searchSetup(0.3), MaxSamples: 3},
	}
}

// setupPointEvalSparse measures the serial proposal kernel — propose,
// ΔMDL evaluation, Hastings correction, no apply — against the
// iteration-1 blockmodel regime (C = V/2, sparse block matrix), the
// regime the paper identifies as the runtime bottleneck.
func setupPointEvalSparse(sd *ShapeData, opts Options) (runFunc, error) {
	bm, err := blockmodel.FromAssignment(sd.G, sd.SparseAssign, sd.SparseC, 1)
	if err != nil {
		return nil, err
	}
	return pointEvalRun(bm), nil
}

// setupPointEvalDense measures the same kernel against the planted
// structure (small C, dense block matrix) — the late-iteration regime.
func setupPointEvalDense(sd *ShapeData, opts Options) (runFunc, error) {
	bm, err := blockmodel.FromAssignment(sd.G, sd.Truth, sd.TruthC, 1)
	if err != nil {
		return nil, err
	}
	return pointEvalRun(bm), nil
}

func pointEvalRun(bm *blockmodel.Blockmodel) runFunc {
	sc := blockmodel.NewScratch()
	n := bm.G.NumVertices()
	batch := n
	if batch > 512 {
		batch = 512
	}
	// One untimed pass warms the scratch arenas to steady-state capacity
	// so the timed region exercises the zero-allocation path.
	sink := 0.0
	pass := func(rn *rng.RNG) {
		for v := 0; v < batch; v++ {
			s := bm.ProposeVertexMove(v, bm.Assignment, rn)
			if s == bm.Assignment[v] {
				continue
			}
			md := bm.EvalMove(v, s, bm.Assignment, sc)
			sink += md.DeltaS + bm.HastingsCorrection(&md)
		}
	}
	pass(rng.New(11))
	return func() (float64, int64) {
		rn := rng.New(11) // identical proposal sequence every sample
		start := time.Now()
		pass(rn)
		ns := float64(time.Since(start).Nanoseconds())
		if sink == 0 { // defeat dead-code elimination; never true in practice
			ns += 0
		}
		return ns, int64(batch)
	}
}

// sweepSetup measures one full sweep of the given parallel engine over
// the iteration-1 state: clone (untimed), one sweep (timed).
func sweepSetup(alg mcmc.Algorithm) func(sd *ShapeData, opts Options) (runFunc, error) {
	return func(sd *ShapeData, opts Options) (runFunc, error) {
		base, err := blockmodel.FromAssignment(sd.G, sd.SparseAssign, sd.SparseC, 1)
		if err != nil {
			return nil, err
		}
		cfg := mcmc.DefaultConfig()
		cfg.MaxSweeps = 1
		cfg.Threshold = 0
		cfg.Workers = opts.Workers
		return func() (float64, int64) {
			bm := base.Clone()
			rn := rng.New(23)
			start := time.Now()
			mcmc.Run(bm, alg, cfg, rn)
			return float64(time.Since(start).Nanoseconds()), 1
		}, nil
	}
}

// setupMergeScan measures one block-merge proposal scan (Algorithm 1):
// clone (untimed), then a merge phase shrinking the iteration-1 block
// count by half (timed).
func setupMergeScan(sd *ShapeData, opts Options) (runFunc, error) {
	base, err := blockmodel.FromAssignment(sd.G, sd.SparseAssign, sd.SparseC, 1)
	if err != nil {
		return nil, err
	}
	cfg := merge.DefaultConfig()
	cfg.Workers = opts.Workers
	return func() (float64, int64) {
		bm := base.Clone()
		rn := rng.New(29)
		start := time.Now()
		merge.Phase(bm, bm.C/2, cfg, rn)
		return float64(time.Since(start).Nanoseconds()), 1
	}, nil
}

// setupCheckpointWrite measures the durability path: encoding a full
// SearchState for the shape's membership and writing it through
// snapshot.WriteFile (temp file + rename + fsync).
func setupCheckpointWrite(sd *ShapeData, opts Options) (runFunc, error) {
	bm, err := blockmodel.FromAssignment(sd.G, sd.SparseAssign, sd.SparseC, 1)
	if err != nil {
		return nil, err
	}
	mrng, err := rng.New(7).MarshalBinary()
	if err != nil {
		return nil, err
	}
	st := &snapshot.SearchState{
		Seed:        7,
		NumVertices: int64(sd.G.NumVertices()),
		MasterRNG:   mrng,
		Mid: &snapshot.BracketEntry{
			C:          int32(bm.C),
			MDL:        bm.MDL(),
			Membership: bm.Assignment,
		},
	}
	dir, err := os.MkdirTemp("", "bench-ckpt-")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "state.snap")
	return func() (float64, int64) {
		start := time.Now()
		payload := st.Encode()
		if err := snapshot.WriteFile(path, payload); err != nil {
			panic(fmt.Sprintf("benchmark: checkpoint write: %v", err))
		}
		return float64(time.Since(start).Nanoseconds()), 1
	}, nil
}

// searchSetup measures a whole community-detection search end to end:
// the full golden-section run on the shape when fraction is 0, or the
// SamBaS pipeline (degree-weighted sample at the given fraction →
// detect → extend → fine-tune) otherwise. The search-full/sweep-sambas
// pair is the committed evidence for the sampling speedup: same graph,
// same engine, same seeds, sampled p50 over full p50 is the ratio the
// acceptance gate reads.
func searchSetup(fraction float64) func(sd *ShapeData, opts Options) (runFunc, error) {
	return func(sd *ShapeData, opts Options) (runFunc, error) {
		sOpts := sbp.DefaultOptions(mcmc.AsyncGibbs)
		sOpts.Seed = 31
		sOpts.MCMC.Workers = opts.Workers
		sOpts.Merge.Workers = opts.Workers
		if fraction > 0 {
			sOpts.Sample = sample.Options{Kind: sample.DegreeWeighted, Fraction: fraction, Seed: 31}
		}
		return func() (float64, int64) {
			start := time.Now()
			res := sbp.Run(sd.G, sOpts)
			ns := float64(time.Since(start).Nanoseconds())
			if res.NumCommunities < 1 {
				panic("benchmark: search found no communities")
			}
			return ns, 1
		}, nil
	}
}

// setupSparseRowWalk measures raw block-matrix row iteration over the
// iteration-1 matrix — the primitive underneath the row/column
// lookup-table loads on the ΔMDL path and the merge edit lists (the
// ~4x sorted-nonzero win lives here).
func setupSparseRowWalk(sd *ShapeData, opts Options) (runFunc, error) {
	bm, err := blockmodel.FromAssignment(sd.G, sd.SparseAssign, sd.SparseC, 1)
	if err != nil {
		return nil, err
	}
	m := bm.M
	c := m.NumBlocks()
	var sink int64
	return func() (float64, int64) {
		start := time.Now()
		for r := 0; r < c; r++ {
			m.RowNZ(r, func(_ int32, v int64) { sink += v })
		}
		ns := float64(time.Since(start).Nanoseconds())
		if sink < 0 {
			panic("benchmark: negative edge-count sum")
		}
		return ns, int64(c)
	}, nil
}
