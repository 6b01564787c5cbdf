package mcmc

import (
	"context"
	"testing"

	"repro/internal/blockmodel"
	"repro/internal/rng"
)

// interruptAndResume is the engine-level half of the crash-injection
// harness: it runs a phase to completion, then re-runs it with
// cancellation injected from the k-th checkpoint callback, rebuilds the
// boundary state exactly as a checkpointing caller would, resumes, and
// demands a bit-identical final membership and description length.
func interruptAndResume(t *testing.T, alg Algorithm, killAt int) {
	t.Helper()
	bm, _ := structured(t, 11)
	cfg := testConfig()
	cfg.MaxSweeps = 30

	golden := bm.Clone()
	gst := Run(golden, alg, cfg, rng.New(5))

	// Interrupted leg: cancel from inside the killAt-th checkpoint
	// callback, so the kill lands at a seeded sweep boundary (and the
	// sweep after it aborts mid-flight through the worker pools).
	work := bm.Clone()
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
		if calls == killAt {
			cancel()
		}
	}
	ist := Run(work, alg, icfg, rng.New(5))
	if !ist.Interrupted {
		t.Skipf("%s phase finished before checkpoint %d", alg, killAt)
	}
	if rec == nil {
		t.Fatal("interrupted phase produced no checkpoint")
	}
	if ist.FinalS != rec.PrevMDL {
		t.Fatalf("interrupted FinalS %v != checkpoint PrevMDL %v", ist.FinalS, rec.PrevMDL)
	}

	// Resume leg: rebuild from the recorded boundary, restore the master
	// stream, and continue. This mirrors sbp's restorePhase.
	resumed, err := blockmodel.FromCheckpoint(work.G, boundary, work.C, rec.PrevMDL)
	if err != nil {
		t.Fatalf("boundary state rejected: %v", err)
	}
	master := rng.New(5)
	if err := master.UnmarshalBinary(rec.MasterRNG); err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Resume = rec
	rst := Run(resumed, alg, rcfg, master)

	if rst.Interrupted {
		t.Fatal("resumed phase reported interrupted")
	}
	if rst.FinalS != gst.FinalS {
		t.Fatalf("resumed FinalS %v, want bit-identical %v", rst.FinalS, gst.FinalS)
	}
	if rst.InitialS != gst.InitialS {
		t.Fatalf("resumed InitialS %v, want original %v", rst.InitialS, gst.InitialS)
	}
	if rst.Sweeps != gst.Sweeps || rst.Proposals != gst.Proposals || rst.Accepts != gst.Accepts {
		t.Fatalf("resumed counters (%d sweeps, %d proposals, %d accepts) != golden (%d, %d, %d)",
			rst.Sweeps, rst.Proposals, rst.Accepts, gst.Sweeps, gst.Proposals, gst.Accepts)
	}
	for v := range golden.Assignment {
		if resumed.Assignment[v] != golden.Assignment[v] {
			t.Fatalf("membership diverges at vertex %d", v)
		}
	}
}

func TestInterruptResumeSerial(t *testing.T)  { interruptAndResume(t, SerialMH, 2) }
func TestInterruptResumeAsync(t *testing.T)   { interruptAndResume(t, AsyncGibbs, 2) }
func TestInterruptResumeHybrid(t *testing.T)  { interruptAndResume(t, Hybrid, 2) }
func TestInterruptResumeBatched(t *testing.T) { interruptAndResume(t, BatchedGibbs, 2) }

// TestCheckpointHookDoesNotPerturb runs the same phase with and without
// periodic checkpointing and demands bit-identical results: capturing a
// checkpoint must never touch the RNG tree or the chain.
func TestCheckpointHookDoesNotPerturb(t *testing.T) {
	for _, alg := range []Algorithm{SerialMH, AsyncGibbs, Hybrid, BatchedGibbs} {
		bm, _ := structured(t, 13)
		plain := bm.Clone()
		pst := Run(plain, alg, testConfig(), rng.New(9))

		hooked := bm.Clone()
		cfg := testConfig()
		cfg.Ctx = context.Background()
		cfg.CheckpointEvery = 1
		cfg.OnCheckpoint = func(*Resume) {}
		hst := Run(hooked, alg, cfg, rng.New(9))

		if pst.FinalS != hst.FinalS {
			t.Fatalf("%s: checkpointing changed FinalS: %v vs %v", alg, hst.FinalS, pst.FinalS)
		}
		for v := range plain.Assignment {
			if plain.Assignment[v] != hooked.Assignment[v] {
				t.Fatalf("%s: checkpointing changed membership at vertex %d", alg, v)
			}
		}
	}
}

// TestPreCancelledPhase verifies a phase entered with an already-dead
// context stops at sweep 0 with a checkpoint at the entry state.
func TestPreCancelledPhase(t *testing.T) {
	bm, _ := structured(t, 17)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var rec *Resume
	cfg := testConfig()
	cfg.Ctx = ctx
	cfg.OnCheckpoint = func(r *Resume) { rec = r }
	before := bm.MDL()
	st := Run(bm, AsyncGibbs, cfg, rng.New(3))
	if !st.Interrupted || st.Sweeps != 0 {
		t.Fatalf("pre-cancelled phase: interrupted=%v sweeps=%d", st.Interrupted, st.Sweeps)
	}
	if rec == nil || rec.Sweep != 0 || rec.PrevMDL != before {
		t.Fatalf("entry checkpoint wrong: %+v (want sweep 0 at MDL %v)", rec, before)
	}
}
