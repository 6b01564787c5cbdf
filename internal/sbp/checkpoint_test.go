package sbp

import (
	"context"
	"errors"
	"io/fs"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mcmc"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// ckptGraph is the shared crash-injection fixture: small enough that a
// full search is fast, large enough that the search runs several outer
// iterations with multi-sweep MCMC phases.
func ckptGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, _, err := gen.Generate(gen.Spec{
		Name: "ckpt", Vertices: 120, Communities: 4, MinDegree: 4, MaxDegree: 15,
		Exponent: 2.5, Ratio: 5, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func ckptOptions(alg mcmc.Algorithm) Options {
	opts := DefaultOptions(alg)
	opts.Seed = 77
	opts.MCMC.Workers = 2
	opts.Merge.Workers = 2
	return opts
}

func sameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.MDL != want.MDL {
		t.Fatalf("%s: MDL %v, want bit-identical %v", label, got.MDL, want.MDL)
	}
	if got.NumCommunities != want.NumCommunities {
		t.Fatalf("%s: %d communities, want %d", label, got.NumCommunities, want.NumCommunities)
	}
	a, b := got.Best.Assignment, want.Best.Assignment
	if len(a) != len(b) {
		t.Fatalf("%s: membership length %d, want %d", label, len(a), len(b))
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("%s: membership diverges at vertex %d: %d vs %d", label, v, a[v], b[v])
		}
	}
}

// crashAndResume runs the full crash-injection protocol for one engine:
// an uninterrupted golden run, then for several seeded kill points a run
// cancelled at the k-th checkpoint write and resumed to completion. The
// resumed result must match the golden run bit-for-bit — MDL and every
// vertex's membership.
func crashAndResume(t *testing.T, alg mcmc.Algorithm) {
	t.Helper()
	g := ckptGraph(t)

	golden := Run(g, ckptOptions(alg))
	if golden.Interrupted || golden.Best == nil {
		t.Fatal("golden run did not complete")
	}

	// Checkpoint writes must not perturb the search itself.
	{
		opts := ckptOptions(alg)
		opts.Checkpoint = snapshot.Policy{Dir: t.TempDir(), Every: 1}
		sameResult(t, "checkpointing-on", golden, Run(g, opts))
	}

	// Seeded random kill points, per the crash-injection harness spec.
	kr := rng.New(0xC0FFEE ^ uint64(alg))
	for trial := 0; trial < 4; trial++ {
		k := int(1 + kr.Uint64()%10)
		dir := t.TempDir()

		ctx, cancel := context.WithCancel(context.Background())
		writes := 0
		opts := ckptOptions(alg)
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
			// The search finished before the k-th write: still a valid
			// trial — resuming a Done checkpoint must reproduce the result.
			sameResult(t, "completed-before-kill", golden, crashed)
		}

		rOpts := ckptOptions(alg)
		rOpts.Checkpoint = snapshot.Policy{Dir: dir}
		resumed, err := Resume(g, rOpts)
		if err != nil {
			t.Fatalf("resume after kill at write %d: %v", k, err)
		}
		if resumed.Interrupted {
			t.Fatalf("resume without ctx reported interrupted (kill at write %d)", k)
		}
		if crashed.Interrupted && !resumed.Resumed {
			t.Fatal("result of Resume not marked Resumed")
		}
		sameResult(t, "resumed", golden, resumed)
	}
}

func TestCrashResumeSerial(t *testing.T)  { crashAndResume(t, mcmc.SerialMH) }
func TestCrashResumeAsync(t *testing.T)   { crashAndResume(t, mcmc.AsyncGibbs) }
func TestCrashResumeHybrid(t *testing.T)  { crashAndResume(t, mcmc.Hybrid) }
func TestCrashResumeBatched(t *testing.T) { crashAndResume(t, mcmc.BatchedGibbs) }

// TestDoubleCrashResume kills the search twice — once in the initial
// run, once during the first resume — and still demands a bit-identical
// final state.
func TestDoubleCrashResume(t *testing.T) {
	g := ckptGraph(t)
	golden := Run(g, ckptOptions(mcmc.Hybrid))
	dir := t.TempDir()

	kill := func(k int, resume bool) *Result {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		writes := 0
		opts := ckptOptions(mcmc.Hybrid)
		opts.Ctx = ctx
		opts.Checkpoint = snapshot.Policy{Dir: dir, Every: 1, OnWrite: func(string) {
			writes++
			if writes == k {
				cancel()
			}
		}}
		if !resume {
			return Run(g, opts)
		}
		res, err := Resume(g, opts)
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		return res
	}

	first := kill(3, false)
	if !first.Interrupted {
		t.Skip("search completed before third checkpoint write")
	}
	second := kill(4, true)
	if !second.Interrupted {
		sameResult(t, "second-leg-completed", golden, second)
	}

	opts := ckptOptions(mcmc.Hybrid)
	opts.Checkpoint = snapshot.Policy{Dir: dir}
	final, err := Resume(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "double-crash", golden, final)
}

// TestResumeIgnoresDivergentOptions proves the snapshot, not the caller,
// owns the deterministic configuration: resuming with a different seed,
// engine and tunables still reproduces the original run exactly.
func TestResumeIgnoresDivergentOptions(t *testing.T) {
	g := ckptGraph(t)
	golden := Run(g, ckptOptions(mcmc.AsyncGibbs))
	dir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	writes := 0
	opts := ckptOptions(mcmc.AsyncGibbs)
	opts.Ctx = ctx
	opts.Checkpoint = snapshot.Policy{Dir: dir, Every: 1, OnWrite: func(string) {
		if writes++; writes == 2 {
			cancel()
		}
	}}
	if res := Run(g, opts); !res.Interrupted {
		t.Skip("search completed before second checkpoint write")
	}

	wrong := ckptOptions(mcmc.SerialMH) // wrong engine
	wrong.Seed = 9999                   // wrong seed
	wrong.MCMC.MaxSweeps = 1            // wrong tunables
	wrong.Checkpoint = snapshot.Policy{Dir: dir}
	resumed, err := Resume(g, wrong)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "divergent-options", golden, resumed)
}

// TestResumeRejectsUnknownAlgorithm: a checksum-valid checkpoint whose
// engine is out of range is corruption, refused before the search
// reaches the MCMC phase, which panics on an unknown engine.
func TestResumeRejectsUnknownAlgorithm(t *testing.T) {
	g := ckptGraph(t)
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := ckptOptions(mcmc.AsyncGibbs)
	opts.Ctx = ctx
	opts.Checkpoint = snapshot.Policy{Dir: dir, OnWrite: func(string) { cancel() }}
	if res := Run(g, opts); !res.Interrupted {
		t.Fatal("search not interrupted at its first checkpoint")
	}
	pol := snapshot.Policy{Dir: dir}
	st, err := pol.LoadSearch()
	if err != nil {
		t.Fatal(err)
	}
	st.Algorithm = 9
	if err := pol.WriteSearch(st); err != nil {
		t.Fatal(err)
	}
	resume := ckptOptions(mcmc.AsyncGibbs)
	resume.Checkpoint = pol
	if _, err := Resume(g, resume); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("Resume = %v, want snapshot.ErrCorrupt", err)
	}
}

func TestResumeErrors(t *testing.T) {
	g := ckptGraph(t)

	if _, err := Resume(g, ckptOptions(mcmc.SerialMH)); err == nil {
		t.Fatal("Resume without Checkpoint.Dir should fail")
	}

	opts := ckptOptions(mcmc.SerialMH)
	opts.Checkpoint = snapshot.Policy{Dir: t.TempDir()}
	if _, err := Resume(g, opts); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Resume from empty dir: %v, want fs.ErrNotExist", err)
	}

	// A checkpoint for a different graph must be rejected, not resumed.
	dir := t.TempDir()
	small, _, err := gen.Generate(gen.Spec{
		Name: "other", Vertices: 60, Communities: 3, MinDegree: 3, MaxDegree: 10,
		Exponent: 2.5, Ratio: 5, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := ckptOptions(mcmc.SerialMH)
	run.Checkpoint = snapshot.Policy{Dir: dir, Every: 1}
	Run(small, run)
	res := ckptOptions(mcmc.SerialMH)
	res.Checkpoint = snapshot.Policy{Dir: dir}
	if _, err := Resume(g, res); err == nil {
		t.Fatal("Resume with mismatched graph should fail")
	}
}
