package snapshot

import (
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rng"
)

func sampleSearch() *SearchState {
	r := rng.New(42)
	mrng, _ := r.MarshalBinary()
	return &SearchState{
		Seed: 42, Algorithm: 2, Beta: 3, Threshold: 1e-4, MaxSweeps: 100,
		HybridFraction: 0.15, Batches: 4, MergeCandidates: 10, NumVertices: 6,
		Iter: 3, ResumeCount: 1, Done: false,
		MasterRNG: mrng,
		Hi:        &BracketEntry{C: 6, MDL: 123.5, Membership: []int32{0, 1, 2, 3, 4, 5}},
		Mid:       &BracketEntry{C: 3, MDL: 99.25, Membership: []int32{0, 1, 2, 0, 1, 2}},
		Phase: &PhaseState{
			FromBlocks: 6, TargetBlocks: 3, WorkBlocks: 3, WorkMDL: 101.125,
			Membership:     []int32{0, 0, 1, 1, 2, 2},
			MergeRequested: 3, MergeApplied: 3, MergeProposals: 30,
			Sweep: 7, PrevMDL: 102.5, InitialS: 110, Proposals: 41, Accepts: 13,
		},
	}
}

func sampleRank() *RankState {
	r := rng.New(7)
	b, _ := r.MarshalBinary()
	return &RankState{
		Seed: 7, Rank: 1, Ranks: 2, Mode: 1,
		Beta: 3, Threshold: 1e-4, MaxSweeps: 100, HybridFraction: 0.15,
		NumVertices: 8, Blocks: 4, Sweep: 5, PrevMDL: 55.5, InitialS: 60,
		Proposals: 17, Accepts: 4, ResumeCount: 2,
		RNG: b, Membership: []int32{0, 1, 2, 3, 0, 1, 2, 3},
	}
}

func TestSearchStateRoundTrip(t *testing.T) {
	want := sampleSearch()
	dir := t.TempDir()
	path := filepath.Join(dir, "search.ckpt")
	if err := WriteFile(path, want.Encode()); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSearch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != want.Seed || got.Algorithm != want.Algorithm || got.Iter != want.Iter ||
		got.Batches != want.Batches || got.MergeCandidates != want.MergeCandidates ||
		got.Done != want.Done || got.ResumeCount != want.ResumeCount {
		t.Fatalf("scalar mismatch: got %+v", got)
	}
	if got.Lo != nil || got.Hi == nil || got.Mid == nil {
		t.Fatalf("bracket presence mismatch")
	}
	if got.Mid.C != 3 || got.Mid.MDL != 99.25 {
		t.Fatalf("mid mismatch: %+v", got.Mid)
	}
	for i, v := range want.Mid.Membership {
		if got.Mid.Membership[i] != v {
			t.Fatalf("mid membership[%d] = %d, want %d", i, got.Mid.Membership[i], v)
		}
	}
	p := got.Phase
	if p == nil || p.Sweep != 7 || p.Proposals != 41 || p.Accepts != 13 || p.WorkMDL != 101.125 {
		t.Fatalf("phase mismatch: %+v", p)
	}
	var rr rng.RNG
	if err := rr.UnmarshalBinary(got.MasterRNG); err != nil {
		t.Fatalf("master RNG did not round-trip: %v", err)
	}
}

func TestRankStateRoundTrip(t *testing.T) {
	want := sampleRank()
	got, err := DecodeRank(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != 1 || got.Ranks != 2 || got.Sweep != 5 || got.PrevMDL != 55.5 ||
		got.Proposals != 17 || got.ResumeCount != 2 || got.Blocks != 4 {
		t.Fatalf("mismatch: %+v", got)
	}
	for i, v := range want.Membership {
		if got.Membership[i] != v {
			t.Fatalf("membership[%d] = %d, want %d", i, got.Membership[i], v)
		}
	}
}

func TestKindMismatch(t *testing.T) {
	if _, err := DecodeRank(sampleSearch().Encode()); !errors.Is(err, ErrKind) {
		t.Fatalf("DecodeRank(search) = %v, want ErrKind", err)
	}
	if _, err := DecodeSearch(sampleRank().Encode()); !errors.Is(err, ErrKind) {
		t.Fatalf("DecodeSearch(rank) = %v, want ErrKind", err)
	}
}

// TestTruncationNeverPanics cuts the container at every length and the
// payload at every length: all must fail with a typed error, none may
// panic or succeed (except the full length).
func TestTruncationNeverPanics(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.ckpt")
	full := sampleSearch().Encode()
	if err := WriteFile(path, full); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(raw); n++ {
		if _, err := Unwrap(raw[:n]); err == nil {
			t.Fatalf("truncated container at %d bytes verified", n)
		} else if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
			t.Fatalf("truncation at %d: unexpected error %v", n, err)
		}
	}
	// Structurally corrupt payloads (valid container, cut state): the
	// decoder must return ErrCorrupt, never panic.
	for n := 0; n < len(full); n++ {
		if _, err := DecodeSearch(full[:n]); err == nil {
			t.Fatalf("truncated payload at %d bytes decoded", n)
		} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrKind) {
			t.Fatalf("payload truncation at %d: unexpected error %v", n, err)
		}
	}
}

func TestBitFlipDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.ckpt")
	if err := WriteFile(path, sampleRank().Encode()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 5, headerSize, headerSize + 9, len(raw) - 1} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		_, err := Unwrap(bad)
		if err == nil {
			t.Fatalf("bit flip at offset %d went undetected", off)
		}
		var ve *VersionError
		if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrMagic) &&
			!errors.Is(err, ErrTruncated) && !errors.As(err, &ve) {
			t.Fatalf("bit flip at %d: unexpected error %v", off, err)
		}
	}
}

// TestWrongVersion refuses a newer container, a version 1 one, whose
// RNG state is a position in the per-worker stream layout, a version 2
// one, whose payload still holds the settings version 3 dropped, and a
// version 3 one, whose MDL bits come from the direct log-likelihood sum.
func TestWrongVersion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.ckpt")
	if err := WriteFile(path, sampleRank().Encode()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{1, 2, 3, Version + 1} {
		binary.BigEndian.PutUint32(raw[4:], v)
		_, err = Unwrap(raw)
		var ve *VersionError
		if !errors.As(err, &ve) {
			t.Fatalf("version %d: got %v, want *VersionError", v, err)
		}
		if ve.Got != v || ve.Want != Version {
			t.Fatalf("version %d: VersionError = %+v", v, ve)
		}
	}
}

func TestMissingFileIsNotExist(t *testing.T) {
	_, err := ReadFile(filepath.Join(t.TempDir(), "absent.ckpt"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("got %v, want fs.ErrNotExist", err)
	}
}

// TestAtomicWriteLeavesNoTemp asserts a committed write leaves exactly
// the target file, and that overwriting keeps the old content readable
// until the rename lands (observed here as: new content after commit).
func TestAtomicWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "search.ckpt")
	for gen := 0; gen < 3; gen++ {
		st := sampleSearch()
		st.Iter = int32(gen)
		if err := WriteFile(path, st.Encode()); err != nil {
			t.Fatal(err)
		}
		payload, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSearch(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got.Iter != int32(gen) {
			t.Fatalf("generation %d read back Iter=%d", gen, got.Iter)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "search.ckpt" {
		t.Fatalf("directory not clean after writes: %v", entries)
	}
}

func TestPolicyRetention(t *testing.T) {
	p := Policy{Dir: t.TempDir(), Retain: 2}
	for sweep := 0; sweep < 5; sweep++ {
		st := sampleRank()
		st.Rank = 0
		st.Sweep = int32(sweep)
		if err := p.WriteRank(st); err != nil {
			t.Fatal(err)
		}
	}
	sweeps := p.RankSweeps(0)
	if len(sweeps) != 2 || sweeps[0] != 3 || sweeps[1] != 4 {
		t.Fatalf("retained sweeps = %v, want [3 4]", sweeps)
	}
	got, err := p.LoadRank(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sweep != 4 {
		t.Fatalf("loaded sweep %d", got.Sweep)
	}
	// A corrupt generation is invisible to rejoin negotiation.
	raw, _ := os.ReadFile(p.RankPath(0, 4))
	raw[len(raw)-1] ^= 0xFF
	os.WriteFile(p.RankPath(0, 4), raw, 0o644)
	sweeps = p.RankSweeps(0)
	if len(sweeps) != 1 || sweeps[0] != 3 {
		t.Fatalf("sweeps after corruption = %v, want [3]", sweeps)
	}
}

func TestPolicyDisabledIsNoOp(t *testing.T) {
	var p Policy
	if p.Enabled() {
		t.Fatal("zero Policy enabled")
	}
	if err := p.WriteSearch(sampleSearch()); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteRank(sampleRank()); err != nil {
		t.Fatal(err)
	}
}
