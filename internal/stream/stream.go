// Package stream implements incremental community detection over a
// growing edge stream, the setting of the Streaming Graph Challenge
// (Kao et al. 2017) that stochastic block partitioning was designed
// for and that this paper builds on.
//
// Edges arrive in batches. After each batch the detector warm-starts
// from the previous partition — existing vertices keep their
// communities, newly seen vertices start in fresh singleton blocks —
// and runs a short agglomeration + MCMC refinement instead of a full
// from-scratch search. The refinement uses any of the paper's MCMC
// engines, so the streaming path benefits from H-SBP's parallel phase
// exactly as the static path does.
//
// # Concurrency
//
// A Detector is safe for concurrent use by one writer and any number
// of readers: Ingest calls are serialized internally, and the fitted
// partition is published as an immutable Snapshot behind an atomic
// pointer. Readers (Snapshot, Assignment, Model, the count accessors)
// never block on an in-flight Ingest and never observe torn state —
// they see the partition as of the last completed batch. This is the
// contract cmd/sbpd's query path is built on.
package stream

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/blockmodel"
	"repro/internal/graph"
	"repro/internal/mcmc"
	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/sbp"
	"repro/internal/snapshot"
)

// ErrEmpty reports an operation that needs at least one ingested edge
// on a detector that has none — e.g. a refinement requested before any
// batch arrived. Ingesting an empty batch is NOT an error (it is a
// no-op); this guard exists so no code path can ever hand a 0-vertex
// graph to a full SBP search.
var ErrEmpty = errors.New("stream: no edges ingested")

// defaultSampleMinVertices is the floor below which SamBaS sampling is
// skipped when Config.SampleMinVertices is unset: on tiny graphs the
// sampled subgraph degenerates (a handful of vertices) and a direct
// search is both cheaper and better.
const defaultSampleMinVertices = 100

// Config tunes the incremental refinement.
type Config struct {
	// Algorithm is the MCMC engine used for refinement.
	Algorithm mcmc.Algorithm

	// MCMC bounds each refinement phase. Fewer sweeps than a full run:
	// the warm start is expected to be near the optimum.
	MCMC mcmc.Config

	// Merge configures the agglomeration of the fresh singleton blocks.
	Merge merge.Config

	// FullSearchPeriod forces a full from-scratch SBP run every k-th
	// batch (0 = never): the guard against drift accumulating across
	// many increments. Empty batches are no-ops and do not count.
	FullSearchPeriod int

	// Sample, when enabled (Fraction > 0), runs full searches through
	// the SamBaS pipeline (internal/sample): detect on a sampled
	// subgraph, extend, fine-tune. This is the fast path for large
	// first-time loads — the first batch of a streaming graph is a full
	// search from C = V, exactly the regime sampling collapses — and it
	// applies to periodic and escalation full searches the same way, so
	// an offline replay at the same config stays bit-identical.
	Sample sample.Options

	// SampleMinVertices only applies Sample when the graph has at least
	// this many vertices (<= 0 means a built-in floor of 100). Warm
	// increments are unaffected — sampling only ever gates full
	// searches.
	SampleMinVertices int

	// Seed drives the deterministic RNG tree.
	Seed uint64

	// Obs carries the stream's telemetry handles (internal/obs): each
	// non-empty batch opens a "batch" span under Obs.Span, with the
	// merge/MCMC phase spans of the refinement nested inside it.
	// Telemetry consumes no RNG draws, so a traced stream is
	// bit-identical to an inert one. Obs is process state, never part
	// of a checkpoint — reattach with AttachObs after Restore.
	Obs obs.Obs
}

// DefaultConfig returns a streaming setup with H-SBP refinement.
func DefaultConfig() Config {
	m := mcmc.DefaultConfig()
	m.MaxSweeps = 30
	return Config{
		Algorithm:        mcmc.Hybrid,
		MCMC:             m,
		Merge:            merge.DefaultConfig(),
		FullSearchPeriod: 0,
		Seed:             1,
	}
}

// Snapshot is an immutable view of the detector's partition as of one
// completed batch. Snapshots are shared between concurrent readers and
// are never mutated after publication — treat every field, including
// the slices and the model, as read-only. Copy Assignment before
// modifying it.
type Snapshot struct {
	// Assignment[v] is the community of vertex v. Read-only.
	Assignment []int32

	// Blocks is the number of non-empty communities.
	Blocks int

	// Vertices and Edges are the stream totals at this batch boundary.
	Vertices, Edges int

	// Batches counts the non-empty batches ingested so far.
	Batches int

	// FullSearches counts the from-scratch searches run (first batch,
	// FullSearchPeriod refreshes and degenerate-collapse escalations).
	FullSearches int

	// Escalations counts the warm increments whose refinement collapsed
	// to <= 1 block and escalated to a full search.
	Escalations int

	// MDL is the description length of the fitted model.
	MDL float64

	// Model is the fitted blockmodel behind Assignment. Read-only.
	Model *blockmodel.Blockmodel
}

// Detector holds the evolving graph and partition.
type Detector struct {
	cfg Config

	// mu serializes Ingest (and Checkpoint, which must observe a batch
	// boundary). Readers never take it — they load snap.
	mu      sync.Mutex
	rn      *rng.RNG
	edges   []graph.Edge
	n       int // vertices seen so far (max id + 1)
	batches int
	fulls   int
	escs    int
	resumes int

	// snap is the atomically published partition of the last completed
	// batch; nil until the first non-empty batch lands.
	snap atomic.Pointer[Snapshot]
}

// NewDetector returns an empty detector.
func NewDetector(cfg Config) *Detector {
	return &Detector{cfg: cfg, rn: rng.New(cfg.Seed)}
}

// Snapshot returns the immutable partition view of the last completed
// batch, or nil before the first non-empty batch. Safe to call
// concurrently with Ingest; the returned value must be treated as
// read-only.
func (d *Detector) Snapshot() *Snapshot { return d.snap.Load() }

// NumVertices returns the number of vertices seen as of the last
// completed batch.
func (d *Detector) NumVertices() int {
	if s := d.snap.Load(); s != nil {
		return s.Vertices
	}
	return 0
}

// NumEdges returns the number of edges ingested as of the last
// completed batch.
func (d *Detector) NumEdges() int {
	if s := d.snap.Load(); s != nil {
		return s.Edges
	}
	return 0
}

// Assignment returns a copy of the current community of every seen
// vertex (nil before the first batch). Safe to call concurrently with
// Ingest; the caller owns the returned slice.
func (d *Detector) Assignment() []int32 {
	s := d.snap.Load()
	if s == nil {
		return nil
	}
	return append([]int32(nil), s.Assignment...)
}

// NumCommunities returns the current community count.
func (d *Detector) NumCommunities() int {
	if s := d.snap.Load(); s != nil {
		return s.Blocks
	}
	return 0
}

// Model returns the current fitted blockmodel (nil before any batch).
// The model is immutable once published — treat it as read-only.
func (d *Detector) Model() *blockmodel.Blockmodel {
	if s := d.snap.Load(); s != nil {
		return s.Model
	}
	return nil
}

// publish installs the partition of a just-completed batch. bm must
// never be mutated afterwards.
func (d *Detector) publish(bm *blockmodel.Blockmodel) {
	d.snap.Store(&Snapshot{
		Assignment:   bm.Assignment,
		Blocks:       bm.NumNonEmptyBlocks(),
		Vertices:     d.n,
		Edges:        len(d.edges),
		Batches:      d.batches,
		FullSearches: d.fulls,
		Escalations:  d.escs,
		MDL:          bm.MDL(),
		Model:        bm,
	})
}

// AttachObs wires telemetry into the detector after construction —
// the path Restore and cmd/sbpd use, since an Obs handle is process
// state and never part of a checkpoint. Telemetry cannot change
// results (it consumes no RNG draws). Call before the first Ingest
// that should be traced; not safe concurrently with Ingest.
func (d *Detector) AttachObs(o obs.Obs) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cfg.Obs = o
}

// fullSearchOptions builds the options of a from-scratch search at the
// current stream position, consuming one master-RNG draw for its seed.
// o is the batch-scoped telemetry handle the search traces under.
func (d *Detector) fullSearchOptions(o obs.Obs) sbp.Options {
	opts := sbp.DefaultOptions(d.cfg.Algorithm)
	opts.MCMC = d.cfg.MCMC
	opts.Merge = d.cfg.Merge
	opts.Obs = o
	opts.Seed = d.rn.Uint64()
	if d.cfg.Sample.Enabled() {
		floor := d.cfg.SampleMinVertices
		if floor <= 0 {
			floor = defaultSampleMinVertices
		}
		if d.n >= floor {
			opts.Sample = d.cfg.Sample
		}
	}
	return opts
}

// Ingest adds a batch of edges and refreshes the partition. Vertex ids
// may exceed anything seen before; the id space grows to cover them.
// An empty batch is always a no-op: it consumes no RNG, counts no
// batch, and never reaches the solver. Ingest calls are serialized;
// readers observe the previous snapshot until the new one is published.
func (d *Detector) Ingest(batch []graph.Edge) error {
	if len(batch) == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	n := d.n
	for _, e := range batch {
		if e.Src < 0 || e.Dst < 0 {
			return fmt.Errorf("stream: negative vertex id in edge (%d,%d)", e.Src, e.Dst)
		}
		if int(e.Src) >= n {
			n = int(e.Src) + 1
		}
		if int(e.Dst) >= n {
			n = int(e.Dst) + 1
		}
	}
	prevSnap := d.snap.Load()
	d.n = n
	d.edges = append(d.edges, batch...)
	d.batches++

	if d.n == 0 {
		// Unreachable — a non-empty batch implies at least one vertex —
		// but kept as a hard guard: a 0-vertex graph must never reach
		// sbp.Run.
		return ErrEmpty
	}
	g, err := graph.New(d.n, d.edges)
	if err != nil {
		return err
	}

	// One span per applied batch; the refinement phases trace inside it.
	span := d.cfg.Obs.StartSpan("batch",
		obs.F("batch", d.batches), obs.F("edges", len(batch)), obs.F("vertices", d.n))
	bobs := d.cfg.Obs.WithSpan(span)

	// Periodic (or first-batch) full search.
	full := prevSnap == nil
	if d.cfg.FullSearchPeriod > 0 && d.batches%d.cfg.FullSearchPeriod == 0 {
		full = true
	}
	if full {
		d.fulls++
		res := sbp.Run(g, d.fullSearchOptions(bobs))
		d.publish(res.Best)
		span.End(obs.F("mdl", res.Best.MDL()),
			obs.F("blocks", res.Best.NumNonEmptyBlocks()), obs.F("full", true))
		return nil
	}

	// Warm start: carry forward known assignments, give new vertices
	// fresh singleton blocks.
	prev := prevSnap.Assignment
	prevBlocks := prevSnap.Model.C
	assign := make([]int32, d.n)
	nextBlock := int32(prevBlocks)
	for v := 0; v < d.n; v++ {
		if v < len(prev) {
			assign[v] = prev[v]
		} else {
			assign[v] = nextBlock
			nextBlock++
		}
	}
	bm, err := blockmodel.FromAssignment(g, assign, int(nextBlock), d.cfg.MCMC.Workers)
	if err != nil {
		span.End(obs.F("error", true))
		return err
	}

	// Agglomerate the singletons back into the existing structure, then
	// refine. Merging down to the previous block count is the natural
	// target; the MCMC phase may empty blocks if the stream split or
	// dissolved a community.
	newBlocks := int(nextBlock) - prevBlocks
	if newBlocks > 0 && bm.C > 1 {
		mergeCfg := d.cfg.Merge
		mergeCfg.Obs = bobs
		merge.Phase(bm, newBlocks, mergeCfg, d.rn)
	}
	mcmcCfg := d.cfg.MCMC
	mcmcCfg.Obs = bobs
	mcmc.Run(bm, d.cfg.Algorithm, mcmcCfg, d.rn)
	bm.Compact()

	// The incremental path agglomerates and refines but never splits
	// blocks, so a partition that collapsed on an early, sparse prefix
	// of the stream would stay collapsed forever. When the carried
	// structure is degenerate, escalate to a full search — the new
	// edges may well have created detectable communities. The carried
	// partition is tested, not only the refined one: the merge phase
	// can leave a few of the new singletons unmerged, and those stray
	// blocks would hide the collapse.
	escalated := false
	if prevSnap.Blocks <= 1 || bm.NumNonEmptyBlocks() <= 1 {
		d.escs++
		d.fulls++
		escalated = true
		res := sbp.Run(g, d.fullSearchOptions(bobs))
		bm = res.Best
	}

	d.publish(bm)
	span.End(obs.F("mdl", bm.MDL()),
		obs.F("blocks", bm.NumNonEmptyBlocks()), obs.F("escalated", escalated))
	return nil
}

// Checkpoint captures the detector at the current batch boundary as a
// durable snapshot payload (see internal/snapshot). Safe to call
// concurrently with readers; it serializes against Ingest, so the
// state is always a clean boundary. meta is caller-opaque service
// metadata round-tripped through Restore (nil is fine).
func (d *Detector) Checkpoint(meta []byte) (*snapshot.StreamState, error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	rngState, err := d.rn.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("stream: marshal rng: %w", err)
	}
	st := &snapshot.StreamState{
		Seed:              d.cfg.Seed,
		Algorithm:         int32(d.cfg.Algorithm),
		Beta:              d.cfg.MCMC.Beta,
		Threshold:         d.cfg.MCMC.Threshold,
		MaxSweeps:         int32(d.cfg.MCMC.MaxSweeps),
		HybridFraction:    d.cfg.MCMC.HybridFraction,
		MCMCWorkers:       int32(d.cfg.MCMC.Workers),
		MCMCBatches:       int32(d.cfg.MCMC.Batches),
		MergeCandidates:   int32(d.cfg.Merge.Candidates),
		MergeWorkers:      int32(d.cfg.Merge.Workers),
		FullSearchPeriod:  int32(d.cfg.FullSearchPeriod),
		SampleKind:        int32(d.cfg.Sample.Kind),
		SampleFraction:    d.cfg.Sample.Fraction,
		SampleSeed:        d.cfg.Sample.Seed,
		SampleMinVertices: int32(d.cfg.SampleMinVertices),
		NumVertices:       int64(d.n),
		IngestedBatches:   int32(d.batches),
		FullSearches:      int32(d.fulls),
		Escalations:       int32(d.escs),
		ResumeCount:       int32(d.resumes),
		RNG:               rngState,
		Meta:              meta,
	}
	if s := d.snap.Load(); s != nil {
		st.HasModel = true
		st.ModelC = int32(s.Model.C)
		st.Blocks = int32(s.Blocks)
		st.MDL = s.MDL
		st.Assignment = append([]int32(nil), s.Assignment...)
	}
	st.Edges = make([]int32, 0, 2*len(d.edges))
	for _, e := range d.edges {
		st.Edges = append(st.Edges, e.Src, e.Dst)
	}
	return st, nil
}

// Restore rebuilds a detector from a checkpointed StreamState. The
// configuration is taken entirely from the state (worker counts as
// configured, so 0 means this host's GOMAXPROCS), the fitted model is
// rebuilt from the edge history and assignment, and the rebuilt MDL
// must match the stored MDL bit-for-bit — a mismatch is corruption and
// fails the restore, as does an unknown engine or an invalid sampler
// setting (snapshot.ErrCorrupt). The restored detector continues the
// stream bit-identically to one that was never stopped.
func Restore(st *snapshot.StreamState) (*Detector, error) {
	cfg := DefaultConfig()
	cfg.Algorithm = mcmc.Algorithm(st.Algorithm)
	if !cfg.Algorithm.Valid() {
		return nil, fmt.Errorf("stream: restore: algorithm %d: %w", st.Algorithm, snapshot.ErrCorrupt)
	}
	cfg.MCMC.Beta = st.Beta
	cfg.MCMC.Threshold = st.Threshold
	cfg.MCMC.MaxSweeps = int(st.MaxSweeps)
	cfg.MCMC.HybridFraction = st.HybridFraction
	cfg.MCMC.Workers = int(st.MCMCWorkers)
	cfg.MCMC.Batches = int(st.MCMCBatches)
	cfg.Merge.Candidates = int(st.MergeCandidates)
	cfg.Merge.Workers = int(st.MergeWorkers)
	cfg.FullSearchPeriod = int(st.FullSearchPeriod)
	cfg.Sample = sample.Options{
		Kind:     sample.Kind(st.SampleKind),
		Fraction: st.SampleFraction,
		Seed:     st.SampleSeed,
	}
	if err := cfg.Sample.Validate(); err != nil {
		return nil, fmt.Errorf("stream: restore: %w: %v", snapshot.ErrCorrupt, err)
	}
	cfg.SampleMinVertices = int(st.SampleMinVertices)
	cfg.Seed = st.Seed

	d := NewDetector(cfg)
	if err := d.rn.UnmarshalBinary(st.RNG); err != nil {
		return nil, fmt.Errorf("stream: restore rng: %w", err)
	}
	if len(st.Edges)%2 != 0 {
		return nil, fmt.Errorf("stream: restore: odd interleaved edge list length %d", len(st.Edges))
	}
	d.n = int(st.NumVertices)
	d.batches = int(st.IngestedBatches)
	d.fulls = int(st.FullSearches)
	d.escs = int(st.Escalations)
	d.resumes = int(st.ResumeCount) + 1
	d.edges = make([]graph.Edge, 0, len(st.Edges)/2)
	for i := 0; i+1 < len(st.Edges); i += 2 {
		d.edges = append(d.edges, graph.Edge{Src: st.Edges[i], Dst: st.Edges[i+1]})
	}

	if !st.HasModel {
		if len(d.edges) != 0 || d.n != 0 {
			return nil, fmt.Errorf("stream: restore: %d edges but no fitted model", len(d.edges))
		}
		return d, nil
	}
	g, err := graph.New(d.n, d.edges)
	if err != nil {
		return nil, fmt.Errorf("stream: restore graph: %w", err)
	}
	bm, err := blockmodel.FromCheckpoint(g, st.Assignment, int(st.ModelC), st.MDL)
	if err != nil {
		return nil, fmt.Errorf("stream: restore model: %w", err)
	}
	d.publish(bm)
	if got := d.snap.Load().Blocks; got != int(st.Blocks) {
		return nil, fmt.Errorf("stream: restore: %d non-empty blocks, checkpoint says %d", got, st.Blocks)
	}
	return d, nil
}

// Resumes reports how many times this detector's stream has been
// restored from a checkpoint (0 for a fresh detector).
func (d *Detector) Resumes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.resumes
}
