package snapshot

// Typed checkpoint payloads. Three kinds exist:
//
//   - SearchState: the complete single-node SBP search — golden-section
//     bracket, the algorithm settings that shape the chain,
//     outer-iteration counter, the master RNG position, and optionally a
//     mid-iteration PhaseState captured at an MCMC sweep boundary.
//   - RankState: one rank of a distributed MCMC phase at a sweep
//     boundary — the globally agreed membership, the master RNG at phase
//     start, the rank's accumulators, and the cluster geometry needed to
//     refuse a resume into a differently shaped cluster.
//   - StreamState: one streaming detector (internal/stream) at a batch
//     boundary — the full edge history, the fitted partition, the
//     detector's RNG position and the streaming configuration,
//     everything a restarted process needs to continue the stream
//     bit-identically to one that was never stopped.
//
// Worker counts are not part of a search or rank checkpoint: every
// random draw of the chain comes from a stream keyed by (phase, sweep,
// vertex) or (phase, block), so the chain does not depend on them and a
// resume uses its own.
//
// All encode with the explicit little-endian field layout of codec.go:
// a kind tag followed by fixed-width fields and length-prefixed slices.
// No gob, no reflection — the format is stable and diffable.

const (
	kindSearch uint8 = 1
	kindRank   uint8 = 2
	kindStream uint8 = 3
)

// BracketEntry is one endpoint of the golden-section search. The
// blockmodel is not stored — it is rebuilt from Membership on resume,
// and the rebuilt MDL must equal MDL bit-for-bit (integer edge-count
// matrices make the recomputation exact), which doubles as an
// end-to-end corruption tripwire beyond the container checksum.
type BracketEntry struct {
	C          int32
	MDL        float64
	Membership []int32
}

// PhaseState captures a paused MCMC phase at a sweep boundary: the
// working blockmodel's membership (consistent — the checkpoint is taken
// after the sweep's rebuild) and the chain's position. The merge phase
// of the iteration has already run; its stats ride along so the resumed
// iteration reports them.
type PhaseState struct {
	FromBlocks   int32 // community count of the bracket state the iteration started from
	TargetBlocks int32 // merge target of the iteration
	WorkBlocks   int32 // block count of the working state (fixed during MCMC)
	WorkMDL      float64
	Membership   []int32

	MergeRequested int32
	MergeApplied   int32
	MergeProposals int64

	Sweep     int32 // next sweep index to execute
	PrevMDL   float64
	InitialS  float64
	Proposals int64
	Accepts   int64
}

// SearchState is the complete persisted state of a single-node SBP
// search.
type SearchState struct {
	// Deterministic run identity: seed, engine and every tunable that
	// shapes the chain.
	Seed            uint64
	Algorithm       int32
	Beta            float64
	Threshold       float64
	MaxSweeps       int32
	HybridFraction  float64
	Batches         int32
	MergeCandidates int32
	NumVertices     int64

	Iter        int32 // next outer iteration index
	ResumeCount int32 // times this run has been resumed
	Done        bool  // search completed; bracket mid is the final result

	// MasterRNG is the marshaled master stream: at the top of iteration
	// Iter when Phase is nil, or at the start of Phase's MCMC phase
	// otherwise (the resumed phase draws its key from it again).
	MasterRNG []byte

	// The golden-section bracket (nil entries absent).
	Hi, Mid, Lo *BracketEntry

	// Phase, when non-nil, resumes mid-iteration at an MCMC sweep
	// boundary instead of at the top of iteration Iter.
	Phase *PhaseState
}

// RankState is one rank's persisted state of a distributed MCMC phase
// at a sweep boundary.
type RankState struct {
	Seed           uint64
	Rank           int32
	Ranks          int32
	Mode           int32
	Beta           float64
	Threshold      float64
	MaxSweeps      int32
	HybridFraction float64
	NumVertices    int64
	Blocks         int32

	Sweep       int32 // next sweep index to execute
	PrevMDL     float64
	InitialS    float64
	Proposals   int64 // rank-local accumulator (pre final allreduce)
	Accepts     int64
	ResumeCount int32

	RNG        []byte  // the master stream at phase start
	Membership []int32 // globally agreed membership at the boundary
}

// Encode serializes the state as a snapshot payload (container not
// included; pair with WriteFile).
func (s *SearchState) Encode() []byte {
	var e enc
	e.u8(kindSearch)
	e.u64(s.Seed)
	e.i32(s.Algorithm)
	e.f64(s.Beta)
	e.f64(s.Threshold)
	e.i32(s.MaxSweeps)
	e.f64(s.HybridFraction)
	e.i32(s.Batches)
	e.i32(s.MergeCandidates)
	e.i64(s.NumVertices)
	e.i32(s.Iter)
	e.i32(s.ResumeCount)
	e.bool(s.Done)
	e.bytes(s.MasterRNG)
	encodeEntry(&e, s.Hi)
	encodeEntry(&e, s.Mid)
	encodeEntry(&e, s.Lo)
	if s.Phase == nil {
		e.bool(false)
	} else {
		e.bool(true)
		p := s.Phase
		e.i32(p.FromBlocks)
		e.i32(p.TargetBlocks)
		e.i32(p.WorkBlocks)
		e.f64(p.WorkMDL)
		e.int32s(p.Membership)
		e.i32(p.MergeRequested)
		e.i32(p.MergeApplied)
		e.i64(p.MergeProposals)
		e.i32(p.Sweep)
		e.f64(p.PrevMDL)
		e.f64(p.InitialS)
		e.i64(p.Proposals)
		e.i64(p.Accepts)
	}
	return e.b
}

func encodeEntry(e *enc, be *BracketEntry) {
	if be == nil {
		e.bool(false)
		return
	}
	e.bool(true)
	e.i32(be.C)
	e.f64(be.MDL)
	e.int32s(be.Membership)
}

// DecodeSearch parses a search-state payload. A rank payload is
// rejected with ErrKind; anything malformed with ErrCorrupt.
func DecodeSearch(payload []byte) (*SearchState, error) {
	d := &dec{b: payload}
	if k := d.u8(); d.err == nil && k != kindSearch {
		if k == kindRank || k == kindStream {
			return nil, ErrKind
		}
		return nil, ErrCorrupt
	}
	s := &SearchState{}
	s.Seed = d.u64()
	s.Algorithm = d.i32()
	s.Beta = d.f64()
	s.Threshold = d.f64()
	s.MaxSweeps = d.i32()
	s.HybridFraction = d.f64()
	s.Batches = d.i32()
	s.MergeCandidates = d.i32()
	s.NumVertices = d.i64()
	s.Iter = d.i32()
	s.ResumeCount = d.i32()
	s.Done = d.boolean()
	s.MasterRNG = d.bytes()
	s.Hi = decodeEntry(d)
	s.Mid = decodeEntry(d)
	s.Lo = decodeEntry(d)
	if d.boolean() {
		p := &PhaseState{}
		p.FromBlocks = d.i32()
		p.TargetBlocks = d.i32()
		p.WorkBlocks = d.i32()
		p.WorkMDL = d.f64()
		p.Membership = d.int32s()
		p.MergeRequested = d.i32()
		p.MergeApplied = d.i32()
		p.MergeProposals = d.i64()
		p.Sweep = d.i32()
		p.PrevMDL = d.f64()
		p.InitialS = d.f64()
		p.Proposals = d.i64()
		p.Accepts = d.i64()
		s.Phase = p
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return s, nil
}

func decodeEntry(d *dec) *BracketEntry {
	if !d.boolean() || d.err != nil {
		return nil
	}
	be := &BracketEntry{}
	be.C = d.i32()
	be.MDL = d.f64()
	be.Membership = d.int32s()
	return be
}

// Encode serializes the rank state as a snapshot payload.
func (s *RankState) Encode() []byte {
	var e enc
	e.u8(kindRank)
	e.u64(s.Seed)
	e.i32(s.Rank)
	e.i32(s.Ranks)
	e.i32(s.Mode)
	e.f64(s.Beta)
	e.f64(s.Threshold)
	e.i32(s.MaxSweeps)
	e.f64(s.HybridFraction)
	e.i64(s.NumVertices)
	e.i32(s.Blocks)
	e.i32(s.Sweep)
	e.f64(s.PrevMDL)
	e.f64(s.InitialS)
	e.i64(s.Proposals)
	e.i64(s.Accepts)
	e.i32(s.ResumeCount)
	e.bytes(s.RNG)
	e.int32s(s.Membership)
	return e.b
}

// DecodeRank parses a rank-state payload. A search payload is rejected
// with ErrKind; anything malformed with ErrCorrupt.
func DecodeRank(payload []byte) (*RankState, error) {
	d := &dec{b: payload}
	if k := d.u8(); d.err == nil && k != kindRank {
		if k == kindSearch || k == kindStream {
			return nil, ErrKind
		}
		return nil, ErrCorrupt
	}
	s := &RankState{}
	s.Seed = d.u64()
	s.Rank = d.i32()
	s.Ranks = d.i32()
	s.Mode = d.i32()
	s.Beta = d.f64()
	s.Threshold = d.f64()
	s.MaxSweeps = d.i32()
	s.HybridFraction = d.f64()
	s.NumVertices = d.i64()
	s.Blocks = d.i32()
	s.Sweep = d.i32()
	s.PrevMDL = d.f64()
	s.InitialS = d.f64()
	s.Proposals = d.i64()
	s.Accepts = d.i64()
	s.ResumeCount = d.i32()
	s.RNG = d.bytes()
	s.Membership = d.int32s()
	if err := d.done(); err != nil {
		return nil, err
	}
	return s, nil
}
