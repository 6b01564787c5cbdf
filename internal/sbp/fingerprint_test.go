package sbp

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/mcmc"
)

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/fingerprints.json")

// fingerprint pins one whole search: the exact bits of its final
// description length, an FNV-1a hash of its final membership, and the
// counts of the path it took. Two searches with equal fingerprints
// followed the same chain through every merge and MCMC phase.
type fingerprint struct {
	FinalMDL    uint64 `json:"final_mdl_bits"`
	Membership  uint64 `json:"membership_fnv1a"`
	Communities int    `json:"communities"`
	Sweeps      int    `json:"sweeps"`
	Proposals   int64  `json:"proposals"`
	Merges      []int  `json:"merges_applied"`
}

func fingerprintOf(res *Result) fingerprint {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range res.Best.Assignment {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
	fp := fingerprint{
		FinalMDL: math.Float64bits(res.MDL), Membership: h.Sum64(),
		Communities: res.NumCommunities, Sweeps: res.TotalMCMCSweeps,
	}
	for _, it := range res.Iterations {
		fp.Proposals += it.MCMC.Proposals
		fp.Merges = append(fp.Merges, it.Merge.Applied)
	}
	return fp
}

// TestDeterminismSearchFingerprints pins whole searches of every engine
// on Table-1 graph S5 at the 1,024 budget (1,157 vertices) at 2 workers
// against testdata/fingerprints.json. The search's first two merge
// phases run in sparse storage and the rest in dense storage, so the
// goldens pin the bits of a realistic search in both, which the small
// graphs of the repository's golden tests do not. Run with -update to
// re-record them.
func TestDeterminismSearchFingerprints(t *testing.T) {
	spec, err := gen.TableOneSpec(5, 1024.0/200000)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]fingerprint{}
	for _, alg := range []mcmc.Algorithm{mcmc.SerialMH, mcmc.AsyncGibbs, mcmc.Hybrid, mcmc.BatchedGibbs} {
		opts := DefaultOptions(alg)
		opts.MCMC.Workers, opts.Merge.Workers = 2, 2
		got[alg.String()] = fingerprintOf(Run(g, opts))
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
	if len(got) != len(want) {
		t.Errorf("%d searches, %d golden entries", len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		switch {
		case !ok:
			t.Errorf("%s: golden entry no longer produced", key)
		case g.FinalMDL != w.FinalMDL || g.Membership != w.Membership || g.Communities != w.Communities ||
			g.Sweeps != w.Sweeps || g.Proposals != w.Proposals || !slices.Equal(g.Merges, w.Merges):
			t.Errorf("%s: search drifted\n got  %+v\n want %+v", key, g, w)
		}
	}
}
