package dist

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"
)

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/fingerprints.json")

// fingerprint pins one distributed phase: its counters, the exact bits
// of its final description length, an FNV-1a hash of its final
// membership, and the bytes the ranks exchanged.
type fingerprint struct {
	Sweeps       int    `json:"sweeps"`
	Proposals    int64  `json:"proposals"`
	Accepts      int64  `json:"accepts"`
	FinalS       uint64 `json:"final_s_bits"`
	Membership   uint64 `json:"membership_fnv1a"`
	TrafficBytes int64  `json:"traffic_bytes"`
}

func fingerprintOf(st PhaseStats, membership []int32) fingerprint {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range membership {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
	return fingerprint{
		Sweeps: st.Sweeps, Proposals: st.Proposals, Accepts: st.Accepts,
		FinalS: math.Float64bits(st.FinalS), Membership: h.Sum64(),
		TrafficBytes: st.TrafficBytes,
	}
}

// TestDeterminismDistFingerprints pins D-A-SBP at 1-3 ranks and D-H-SBP
// at 2-3 ranks against testdata/fingerprints.json. Run with -update to
// re-record them. At 2 ranks each mode runs again with Verify on, which
// only reads the replicas, so it must end without error on the same
// fingerprint.
func TestDeterminismDistFingerprints(t *testing.T) {
	cases := []struct {
		mode  Mode
		ranks []int
	}{
		{ModeAsync, []int{1, 2, 3}},
		{ModeHybrid, []int{2, 3}},
	}
	got := map[string]fingerprint{}
	for _, c := range cases {
		for _, ranks := range c.ranks {
			key := fmt.Sprintf("%s/ranks=%d", c.mode, ranks)
			bm, _ := distModel(t, 61)
			st, err := RunMCMCPhase(bm, c.mode, testCfg(ranks))
			if err != nil {
				t.Fatal(err)
			}
			got[key] = fingerprintOf(st, bm.Assignment)
			if ranks == 2 {
				bm, _ := distModel(t, 61)
				cfg := testCfg(ranks)
				cfg.Verify = true
				st, err := RunMCMCPhase(bm, c.mode, cfg)
				if err != nil {
					t.Fatalf("%s with Verify: %v", key, err)
				}
				if fp := fingerprintOf(st, bm.Assignment); fp != got[key] {
					t.Errorf("%s with Verify: %+v, want %+v", key, fp, got[key])
				}
			}
		}
	}

	const path = "testdata/fingerprints.json"
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
