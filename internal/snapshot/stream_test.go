package snapshot

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

func sampleStream() *StreamState {
	r := rng.New(11)
	b, _ := r.MarshalBinary()
	return &StreamState{
		Seed: 11, Algorithm: 3, Beta: 3, Threshold: 1e-4, MaxSweeps: 30,
		HybridFraction: 0.15, MCMCWorkers: 4,
		MCMCBatches: 2, MergeCandidates: 10, MergeWorkers: 4,
		FullSearchPeriod: 5, SampleKind: 1, SampleFraction: 0.3,
		SampleSeed: 9, SampleMinVertices: 50,
		NumVertices: 5, IngestedBatches: 3, FullSearches: 2, Escalations: 1,
		ResumeCount: 1, RNG: b,
		HasModel: true, ModelC: 2, Blocks: 2, MDL: 77.625,
		Assignment: []int32{0, 0, 1, 1, 0},
		Edges:      []int32{0, 1, 1, 2, 2, 3, 3, 4},
		Meta:       []byte(`{"algorithm":"hsbp"}`),
	}
}

func TestStreamStateRoundTrip(t *testing.T) {
	want := sampleStream()
	got, err := DecodeStream(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestStreamStateRoundTripEmpty(t *testing.T) {
	r := rng.New(1)
	b, _ := r.MarshalBinary()
	want := &StreamState{Seed: 1, Algorithm: 3, MCMCWorkers: 1, MergeWorkers: 1, RNG: b}
	got, err := DecodeStream(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.HasModel || got.NumVertices != 0 || len(got.Edges) != 0 {
		t.Fatalf("empty round trip: %+v", got)
	}
}

func TestStreamKindMismatch(t *testing.T) {
	if _, err := DecodeStream(sampleSearch().Encode()); err == nil {
		t.Fatal("DecodeStream accepted a search payload")
	}
	if _, err := DecodeSearch(sampleStream().Encode()); err == nil {
		t.Fatal("DecodeSearch accepted a stream payload")
	}
	if _, err := DecodeRank(sampleStream().Encode()); err == nil {
		t.Fatal("DecodeRank accepted a stream payload")
	}
}

func TestStreamTruncationNeverPanics(t *testing.T) {
	payload := sampleStream().Encode()
	for n := 0; n < len(payload); n++ {
		if _, err := DecodeStream(payload[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
}

func TestPolicyStreamLifecycle(t *testing.T) {
	p := Policy{Dir: t.TempDir()}
	for _, name := range []string{"web", "citations", "a.b-c_d"} {
		st := sampleStream()
		st.Seed = uint64(len(name))
		if err := p.WriteStream(name, st); err != nil {
			t.Fatal(err)
		}
	}
	names := p.StreamNames()
	want := []string{"a.b-c_d", "citations", "web"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("StreamNames = %v, want %v", names, want)
	}
	st, err := p.LoadStream("web")
	if err != nil {
		t.Fatal(err)
	}
	if st.Seed != 3 {
		t.Fatalf("loaded wrong checkpoint: seed %d", st.Seed)
	}
	if err := p.RemoveStream("web"); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveStream("web"); err != nil {
		t.Fatal("second remove should be a no-op, got:", err)
	}
	if got := p.StreamNames(); len(got) != 2 {
		t.Fatalf("after remove: %v", got)
	}
	// A disabled policy writes nothing and finds nothing.
	var off Policy
	if err := off.WriteStream("x", sampleStream()); err != nil {
		t.Fatal(err)
	}
	if got := off.StreamNames(); got != nil {
		t.Fatalf("disabled policy lists %v", got)
	}
}
