package hsbp_test

// Golden-file regression tests: fixed small graphs live under
// testdata/golden/ together with the exact MDL and community count every
// engine must reproduce at a fixed seed, at any worker count. Any numeric
// drift in the merge phase, an MCMC engine, the bracket search or the
// MDL arithmetic fails here with a before/after diff.
//
// After an *intentional* numeric change, regenerate with
//
//	go test -run TestGoldenRegression -update-golden .
//
// and commit the updated testdata/golden/expected.json alongside the
// change that explains it.

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	hsbp "repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate testdata/golden graphs and expected values")

// goldenWorkers is the parallel width of the golden runs. The chain does
// not depend on it; two workers make the async passes really run in
// parallel.
const goldenWorkers = 2

// goldenSpecs are the committed graphs, regenerated only under
// -update-golden.
var goldenSpecs = []gen.Spec{
	{Name: "golden-a", Vertices: 40, Communities: 4, MinDegree: 2, MaxDegree: 8, Exponent: 2.5, Ratio: 5, Seed: 7},
	{Name: "golden-b", Vertices: 56, Communities: 5, MinDegree: 1, MaxDegree: 10, Exponent: 2.2, Ratio: 3, SizeSkew: 1, Seed: 9},
}

var goldenAlgs = []struct {
	name string
	alg  hsbp.Algorithm
}{
	{"sbp", hsbp.SBP},
	{"asbp", hsbp.ASBP},
	{"hsbp", hsbp.HSBP},
	{"bsbp", hsbp.BSBP},
}

// goldenResult is one engine × graph expectation.
type goldenResult struct {
	Graph       string  `json:"graph"`
	Alg         string  `json:"alg"`
	Seed        uint64  `json:"seed"`
	Workers     int     `json:"workers"`
	MDL         float64 `json:"mdl"`
	Communities int     `json:"communities"`
}

func goldenRun(t *testing.T, g *hsbp.Graph, alg hsbp.Algorithm, seed uint64) *hsbp.Result {
	t.Helper()
	opts := hsbp.DefaultOptions(alg)
	opts.Seed = seed
	opts.MCMC.Workers = goldenWorkers
	opts.Merge.Workers = goldenWorkers
	return hsbp.Detect(g, opts)
}

func TestGoldenRegression(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	expectedPath := filepath.Join(dir, "expected.json")

	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		var results []goldenResult
		for _, spec := range goldenSpecs {
			g, _, err := gen.Generate(spec)
			if err != nil {
				t.Fatalf("generate %s: %v", spec.Name, err)
			}
			f, err := os.Create(filepath.Join(dir, spec.Name+".tsv"))
			if err != nil {
				t.Fatal(err)
			}
			if err := graph.WriteEdgeList(f, g); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			// Expectations are computed on the graph as reloaded from the
			// committed file, not the freshly generated one: the file
			// round-trip reorders the in-adjacency lists, and proposal
			// RNG draws are adjacency-order-dependent.
			loaded, err := hsbp.LoadGraph(filepath.Join(dir, spec.Name+".tsv"))
			if err != nil {
				t.Fatal(err)
			}
			for _, ga := range goldenAlgs {
				res := goldenRun(t, loaded, ga.alg, spec.Seed)
				results = append(results, goldenResult{
					Graph: spec.Name, Alg: ga.name, Seed: spec.Seed, Workers: goldenWorkers,
					MDL: res.MDL, Communities: res.NumCommunities,
				})
			}
		}
		buf, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(expectedPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d cases", expectedPath, len(results))
		return
	}

	buf, err := os.ReadFile(expectedPath)
	if err != nil {
		t.Fatalf("reading golden expectations (run with -update-golden to regenerate): %v", err)
	}
	var expected []goldenResult
	if err := json.Unmarshal(buf, &expected); err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*hsbp.Graph{}
	for _, spec := range goldenSpecs {
		g, err := hsbp.LoadGraph(filepath.Join(dir, spec.Name+".tsv"))
		if err != nil {
			t.Fatalf("loading committed graph %s: %v", spec.Name, err)
		}
		graphs[spec.Name] = g
	}
	algByName := map[string]hsbp.Algorithm{}
	for _, ga := range goldenAlgs {
		algByName[ga.name] = ga.alg
	}
	for _, want := range expected {
		t.Run(fmt.Sprintf("%s/%s", want.Graph, want.Alg), func(t *testing.T) {
			g, ok := graphs[want.Graph]
			if !ok {
				t.Fatalf("expectation references unknown graph %q", want.Graph)
			}
			if want.Workers != goldenWorkers {
				t.Fatalf("expectation pinned to %d workers, test runs %d", want.Workers, goldenWorkers)
			}
			res := goldenRun(t, g, algByName[want.Alg], want.Seed)
			if res.NumCommunities != want.Communities {
				t.Errorf("community count drifted: got %d, golden %d", res.NumCommunities, want.Communities)
			}
			if diff := math.Abs(res.MDL - want.MDL); diff > 1e-9*math.Max(1, math.Abs(want.MDL)) {
				t.Errorf("MDL drifted: got %.17g, golden %.17g (diff %.3g)", res.MDL, want.MDL, diff)
			}
		})
	}
}
