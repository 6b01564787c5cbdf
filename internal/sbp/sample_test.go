package sbp

import (
	"context"
	"strings"
	"testing"

	"repro/internal/mcmc"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/snapshot"
)

// sampledOptions is the shared sampled-run fixture: the crash-suite
// options plus a degree-weighted 40% sample.
func sampledOptions(alg mcmc.Algorithm) Options {
	opts := ckptOptions(alg)
	opts.Sample = sample.Options{Kind: sample.DegreeWeighted, Fraction: 0.4, Seed: 9}
	return opts
}

// TestSampledRunDeterministic: with sampling enabled, sbp.Run must stay
// bit-identical at a fixed seed for all four engines, and the
// pipeline stats must account for every vertex.
func TestSampledRunDeterministic(t *testing.T) {
	g := ckptGraph(t)
	for _, alg := range []mcmc.Algorithm{mcmc.SerialMH, mcmc.AsyncGibbs, mcmc.Hybrid, mcmc.BatchedGibbs} {
		t.Run(alg.String(), func(t *testing.T) {
			first := Run(g, sampledOptions(alg))
			if first.Sample == nil {
				t.Fatal("sampled run did not record SampleStats")
			}
			st := first.Sample
			if st.Vertices != 48 { // round(0.4 · 120)
				t.Errorf("sampled %d vertices, want 48", st.Vertices)
			}
			if st.Anchored+st.Fallback != g.NumVertices()-st.Vertices {
				t.Errorf("extension stats cover %d vertices, want %d",
					st.Anchored+st.Fallback, g.NumVertices()-st.Vertices)
			}
			if st.DetectBlocks < 1 || first.NumCommunities < 1 {
				t.Errorf("degenerate block counts: detect %d, final %d", st.DetectBlocks, first.NumCommunities)
			}
			second := Run(g, sampledOptions(alg))
			sameResult(t, "repeat sampled run", first, second)
			if second.Sample.DetectMDL != st.DetectMDL {
				t.Errorf("detect MDL %v, want bit-identical %v", second.Sample.DetectMDL, st.DetectMDL)
			}
		})
	}
}

// TestSampledKindsRun: every sampler kind drives the full pipeline to a
// valid, reproducible result.
func TestSampledKindsRun(t *testing.T) {
	g := ckptGraph(t)
	for _, kind := range []sample.Kind{sample.UniformVertex, sample.DegreeWeighted, sample.RandomEdge} {
		t.Run(kind.String(), func(t *testing.T) {
			opts := ckptOptions(mcmc.AsyncGibbs)
			opts.Sample = sample.Options{Kind: kind, Fraction: 0.3, Seed: 4}
			res := Run(g, opts)
			if res.Sample == nil || res.Sample.Kind != kind {
				t.Fatalf("SampleStats = %+v, want kind %v", res.Sample, kind)
			}
			if len(res.Best.Assignment) != g.NumVertices() {
				t.Fatalf("final membership covers %d vertices, want %d",
					len(res.Best.Assignment), g.NumVertices())
			}
			opts2 := ckptOptions(mcmc.AsyncGibbs)
			opts2.Sample = sample.Options{Kind: kind, Fraction: 0.3, Seed: 4}
			sameResult(t, "repeat", res, Run(g, opts2))
		})
	}
}

// TestSampledRunInvalidOptionsPanics: Run must not silently ignore an
// unusable sampler configuration.
func TestSampledRunInvalidOptionsPanics(t *testing.T) {
	g := ckptGraph(t)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run with fraction 2 did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "fraction") {
			t.Fatalf("panic %v, want a fraction validation message", r)
		}
	}()
	opts := ckptOptions(mcmc.SerialMH)
	opts.Sample = sample.Options{Fraction: 2}
	Run(g, opts)
}

// sampledCrashAndResume extends the PR-5 crash suite to the sampling
// pipeline: checkpoint writes only begin with the fine-tune search (the
// pipeline precedes the first iteration checkpoint), so every seeded
// kill lands mid-fine-tune and the resumed run must reproduce the
// uninterrupted sampled result bit-for-bit.
func sampledCrashAndResume(t *testing.T, alg mcmc.Algorithm) {
	t.Helper()
	g := ckptGraph(t)

	golden := Run(g, sampledOptions(alg))
	if golden.Interrupted || golden.Best == nil {
		t.Fatal("golden sampled run did not complete")
	}

	// Checkpointing on (no kill) must not perturb a sampled search.
	{
		opts := sampledOptions(alg)
		opts.Checkpoint = snapshot.Policy{Dir: t.TempDir(), Every: 1}
		sameResult(t, "checkpointing-on", golden, Run(g, opts))
	}

	kr := rng.New(0x5A3BA5 ^ uint64(alg))
	for trial := 0; trial < 4; trial++ {
		k := int(1 + kr.Uint64()%8)
		dir := t.TempDir()

		ctx, cancel := context.WithCancel(context.Background())
		writes := 0
		opts := sampledOptions(alg)
		opts.Ctx = ctx
		opts.Checkpoint = snapshot.Policy{Dir: dir, Every: 1, OnWrite: func(string) {
			writes++
			if writes == k {
				cancel()
			}
		}}
		crashed := Run(g, opts)
		cancel()
		if !crashed.Interrupted {
			sameResult(t, "completed-before-kill", golden, crashed)
		} else if crashed.Sample == nil {
			t.Fatal("interrupted sampled run lost its SampleStats")
		}

		// Resume never re-runs the pipeline: the checkpointed bracket
		// already encodes the extended state, and the caller's Sample
		// options are ignored like every other deterministic knob.
		rOpts := sampledOptions(alg)
		rOpts.Checkpoint = snapshot.Policy{Dir: dir}
		resumed, err := Resume(g, rOpts)
		if err != nil {
			t.Fatalf("resume after kill at write %d: %v", k, err)
		}
		if resumed.Sample != nil {
			t.Error("resumed run fabricated SampleStats for a pipeline it never ran")
		}
		sameResult(t, "resumed", golden, resumed)
	}
}

func TestSampledCrashResumeSerial(t *testing.T)  { sampledCrashAndResume(t, mcmc.SerialMH) }
func TestSampledCrashResumeAsync(t *testing.T)   { sampledCrashAndResume(t, mcmc.AsyncGibbs) }
func TestSampledCrashResumeHybrid(t *testing.T)  { sampledCrashAndResume(t, mcmc.Hybrid) }
func TestSampledCrashResumeBatched(t *testing.T) { sampledCrashAndResume(t, mcmc.BatchedGibbs) }
