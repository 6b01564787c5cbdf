package snapshot

// StreamState is the persisted state of one streaming detector
// (internal/stream) at a batch boundary. It carries the streaming
// configuration, the full edge history, the fitted partition and the
// detector RNG position, so a restarted process continues the stream
// bit-identically to one that was never stopped.
//
// The fitted model itself is not stored: it is rebuilt from the edges
// and Assignment on restore, and the rebuilt MDL must equal MDL
// bit-for-bit (blockmodel.FromCheckpoint enforces this), which doubles
// as an end-to-end corruption tripwire beyond the container checksum.
type StreamState struct {
	// Stream identity: seed, engine and every tunable of future
	// batches. Restore has no other source for the graph's settings, so
	// the worker widths ride along too, as configured: 0 means the
	// restoring host's GOMAXPROCS, and neither changes the chain.
	Seed              uint64
	Algorithm         int32
	Beta              float64
	Threshold         float64
	MaxSweeps         int32
	HybridFraction    float64
	MCMCWorkers       int32
	MCMCBatches       int32
	MergeCandidates   int32
	MergeWorkers      int32
	FullSearchPeriod  int32
	SampleKind        int32
	SampleFraction    float64
	SampleSeed        uint64
	SampleMinVertices int32

	// Stream progress.
	NumVertices     int64
	IngestedBatches int32
	FullSearches    int32
	Escalations     int32
	ResumeCount     int32

	// RNG is the marshaled detector stream at the batch boundary.
	RNG []byte

	// Fitted state; HasModel is false for a detector that has not yet
	// ingested a batch (registration-only state).
	HasModel   bool
	ModelC     int32   // block-id space of the fitted model
	Blocks     int32   // non-empty blocks
	MDL        float64 // verified against the rebuilt model on restore
	Assignment []int32

	// Edges is the full edge history, interleaved src,dst pairs.
	Edges []int32

	// Meta carries caller-opaque service metadata (cmd/sbpd stores the
	// graph's registration document here) — round-tripped verbatim.
	Meta []byte
}

// Encode serializes the stream state as a snapshot payload (container
// not included; pair with WriteFile).
func (s *StreamState) Encode() []byte {
	var e enc
	e.u8(kindStream)
	e.u64(s.Seed)
	e.i32(s.Algorithm)
	e.f64(s.Beta)
	e.f64(s.Threshold)
	e.i32(s.MaxSweeps)
	e.f64(s.HybridFraction)
	e.i32(s.MCMCWorkers)
	e.i32(s.MCMCBatches)
	e.i32(s.MergeCandidates)
	e.i32(s.MergeWorkers)
	e.i32(s.FullSearchPeriod)
	e.i32(s.SampleKind)
	e.f64(s.SampleFraction)
	e.u64(s.SampleSeed)
	e.i32(s.SampleMinVertices)
	e.i64(s.NumVertices)
	e.i32(s.IngestedBatches)
	e.i32(s.FullSearches)
	e.i32(s.Escalations)
	e.i32(s.ResumeCount)
	e.bytes(s.RNG)
	e.bool(s.HasModel)
	if s.HasModel {
		e.i32(s.ModelC)
		e.i32(s.Blocks)
		e.f64(s.MDL)
		e.int32s(s.Assignment)
	}
	e.int32s(s.Edges)
	e.bytes(s.Meta)
	return e.b
}

// DecodeStream parses a stream-state payload. A search or rank payload
// is rejected with ErrKind; anything malformed with ErrCorrupt.
func DecodeStream(payload []byte) (*StreamState, error) {
	d := &dec{b: payload}
	if k := d.u8(); d.err == nil && k != kindStream {
		if k == kindSearch || k == kindRank {
			return nil, ErrKind
		}
		return nil, ErrCorrupt
	}
	s := &StreamState{}
	s.Seed = d.u64()
	s.Algorithm = d.i32()
	s.Beta = d.f64()
	s.Threshold = d.f64()
	s.MaxSweeps = d.i32()
	s.HybridFraction = d.f64()
	s.MCMCWorkers = d.i32()
	s.MCMCBatches = d.i32()
	s.MergeCandidates = d.i32()
	s.MergeWorkers = d.i32()
	s.FullSearchPeriod = d.i32()
	s.SampleKind = d.i32()
	s.SampleFraction = d.f64()
	s.SampleSeed = d.u64()
	s.SampleMinVertices = d.i32()
	s.NumVertices = d.i64()
	s.IngestedBatches = d.i32()
	s.FullSearches = d.i32()
	s.Escalations = d.i32()
	s.ResumeCount = d.i32()
	s.RNG = d.bytes()
	s.HasModel = d.boolean()
	if s.HasModel {
		s.ModelC = d.i32()
		s.Blocks = d.i32()
		s.MDL = d.f64()
		s.Assignment = d.int32s()
	}
	s.Edges = d.int32s()
	s.Meta = d.bytes()
	if err := d.done(); err != nil {
		return nil, err
	}
	return s, nil
}
