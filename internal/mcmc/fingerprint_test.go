package mcmc

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"repro/internal/blockmodel"
	"repro/internal/rng"
)

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/fingerprints.json")

// fingerprint pins one chain: its counters, the exact bits of its final
// description length, and an FNV-1a hash of its final membership. Two
// runs with equal fingerprints followed the same chain.
type fingerprint struct {
	Sweeps     int    `json:"sweeps"`
	Proposals  int64  `json:"proposals"`
	Accepts    int64  `json:"accepts"`
	FinalS     uint64 `json:"final_s_bits"`
	Membership uint64 `json:"membership_fnv1a"`
}

func fingerprintOf(st Stats, membership []int32) fingerprint {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range membership {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
	return fingerprint{
		Sweeps: st.Sweeps, Proposals: st.Proposals, Accepts: st.Accepts,
		FinalS: math.Float64bits(st.FinalS), Membership: h.Sum64(),
	}
}

// resumedRun cancels a phase from its second checkpoint callback,
// rebuilds the recorded boundary state and resumes it to the end at
// resumeWorkers workers.
func resumedRun(t *testing.T, alg Algorithm, cfg Config, seed uint64, resumeWorkers int) (Stats, []int32) {
	t.Helper()
	work, _ := structured(t, 71)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rec *Resume
	var boundary []int32
	calls := 0
	icfg := cfg
	icfg.Ctx = ctx
	icfg.CheckpointEvery = 1
	icfg.OnCheckpoint = func(r *Resume) {
		calls++
		rec = r
		if r.Membership != nil {
			boundary = append([]int32(nil), r.Membership...)
		} else {
			boundary = append(boundary[:0], work.Assignment...)
		}
		if calls == 2 {
			cancel()
		}
	}
	if st := Run(work, alg, icfg, rng.New(seed)); !st.Interrupted {
		t.Fatalf("%s finished before its second checkpoint", alg)
	}
	resumed, err := blockmodel.FromCheckpoint(work.G, boundary, work.C, rec.PrevMDL)
	if err != nil {
		t.Fatal(err)
	}
	master := rng.New(seed)
	if err := master.UnmarshalBinary(rec.MasterRNG); err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Workers = resumeWorkers
	rcfg.Resume = rec
	st := Run(resumed, alg, rcfg, master)
	return st, resumed.Assignment
}

// TestDeterminismChainFingerprints pins every engine's chain, fresh at
// one and three workers and across a cancel-and-resume, against
// testdata/fingerprints.json. The chain depends only on the seed and
// the algorithm settings, so an engine's three entries are equal and
// the goldens hold at any GOMAXPROCS. Run with -update to re-record
// them.
func TestDeterminismChainFingerprints(t *testing.T) {
	got := map[string]fingerprint{}
	for _, alg := range allAlgorithms {
		for _, workers := range []int{1, 3} {
			bm, _ := structured(t, 71)
			cfg := testConfig()
			cfg.Workers = workers
			st := Run(bm, alg, cfg, rng.New(17))
			got[fmt.Sprintf("%s/workers=%d", alg, workers)] = fingerprintOf(st, bm.Assignment)
		}
		cfg := testConfig()
		cfg.Workers = 3
		st, membership := resumedRun(t, alg, cfg, 17, 3)
		got[fmt.Sprintf("%s/workers=3/resumed", alg)] = fingerprintOf(st, membership)
	}
	checkFingerprints(t, "testdata/fingerprints.json", got)
}

func checkFingerprints(t *testing.T, path string, got map[string]fingerprint) {
	t.Helper()
	if *updateFingerprints {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	var want map[string]fingerprint
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for key, w := range want {
		g, ok := got[key]
		switch {
		case !ok:
			t.Errorf("%s: golden entry no longer produced", key)
		case g != w:
			t.Errorf("%s: chain drifted\n got  %+v\n want %+v", key, g, w)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: no golden entry (run with -update)", key)
		}
	}
}
