// Command sbp runs stochastic block partitioning on a graph file and
// prints the detected communities and quality metrics.
//
// Usage:
//
//	sbp -graph karate.tsv -alg hsbp -runs 5 -out communities.tsv
//
// The input is an edge list ("src dst" per line) or a MatrixMarket
// .mtx file. The output (one "vertex community" line per vertex) is
// written to -out, or omitted when -out is empty.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/blockmodel"
	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/mcmc"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/sbp"
	"repro/internal/snapshot"
)

// Live counters served on the -obs address under /debug/vars,
// updated after every outer iteration. These coarse process-level
// expvars predate the internal/obs registry (which serves richer
// engine-labeled series on /metrics) and are kept for scripts that
// scrape /debug/vars.
var (
	evIterations   = expvar.NewInt("sbp_iterations")
	evSweeps       = expvar.NewInt("sbp_sweeps")
	evProposals    = expvar.NewInt("sbp_proposals")
	evAccepts      = expvar.NewInt("sbp_accepts")
	evMDL          = expvar.NewFloat("sbp_mdl")
	evMaxImbalance = expvar.NewFloat("sbp_max_imbalance")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sbp: ")

	var (
		graphPath = flag.String("graph", "", "path to the input graph (edge list or .mtx)")
		algName   = flag.String("alg", "hsbp", "algorithm: sbp, asbp, hsbp or bsbp")
		runs      = flag.Int("runs", 1, "number of runs; the lowest-MDL result is kept")
		seed      = flag.Uint64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "parallel width (0 = GOMAXPROCS)")
		fraction  = flag.Float64("hybrid-fraction", mcmc.DefaultConfig().HybridFraction, "share of high-degree vertices processed serially (hsbp)")
		outPath   = flag.String("out", "", "write 'vertex community' lines to this file")
		truthPath = flag.String("truth", "", "ground-truth assignment file; NMI is reported when set")
		verbose   = flag.Bool("v", false, "print per-iteration progress")
		vv        = flag.Bool("vv", false, "print a per-sweep table for every iteration (implies -v)")
		verify    = flag.Bool("verify", false, "cross-check every incremental ΔMDL/Hastings value and all blockmodel invariants against the dense oracle (orders of magnitude slower; small graphs only)")
		profile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		obsAddr   = flag.String("obs", "", "serve live telemetry on this address (e.g. localhost:6060): Prometheus /metrics, /debug/vars, /debug/pprof")
		pprofAddr = flag.String("pprof", "", "deprecated alias for -obs")
		tracePath = flag.String("trace", "", "write structured JSONL trace events (run/iteration/mcmc spans, per-sweep events) to this file")
		ckptDir   = flag.String("checkpoint-dir", "", "write durable search checkpoints to this directory; SIGINT/SIGTERM then stops at a clean boundary instead of losing the run")
		ckptEvery = flag.Int("checkpoint-every", 0, "also checkpoint every N MCMC sweeps inside a phase (0 = iteration boundaries only)")
		resume    = flag.Bool("resume", false, "continue the search checkpointed in -checkpoint-dir (bit-identical to the uninterrupted run)")

		sampleFraction = flag.Float64("sample-fraction", 0, "SamBaS pipeline: detect on this fraction of vertices, extend to the full graph, fine-tune (0 = full-graph search)")
		sampleKind     = flag.String("sample-kind", "degree", "sampler for -sample-fraction: vertex (uniform), degree (degree-weighted) or edge (random-edge-induced)")
		sampleSeed     = flag.Uint64("sample-seed", 1, "seed of the sampler's random stream (independent of -seed)")
	)
	flag.Parse()
	if *vv {
		*verbose = true
	}
	if *obsAddr == "" {
		*obsAddr = *pprofAddr
	}
	if *resume && *ckptDir == "" {
		log.Fatal("-resume requires -checkpoint-dir")
	}
	if *ckptDir != "" && *runs != 1 {
		log.Fatal("-checkpoint-dir supports a single run (-runs 1): the checkpoint holds one search")
	}

	// SIGINT/SIGTERM stop the search at the next clean boundary (with a
	// final checkpoint when -checkpoint-dir is set); a second signal
	// exits immediately.
	ctx := signalContext()

	// Live telemetry: one registry per process, exposed over HTTP when
	// -obs is set; one tracer when -trace is set. Both are inert (zero
	// Obs) otherwise and cost the engines nothing.
	var telemetry obs.Obs
	if *obsAddr != "" {
		reg := obs.NewRegistry()
		telemetry.Metrics = reg
		_, bound, err := obs.Serve(*obsAddr, reg)
		if err != nil {
			log.Fatalf("telemetry server: %v", err)
		}
		log.Printf("telemetry listening on http://%s/metrics (also /debug/vars, /debug/pprof)", bound)
	}
	if *tracePath != "" {
		sink, err := obs.NewFileSink(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		telemetry.Tracer = obs.NewTracer(sink)
		// Close flushes and syncs so the stream is complete on exit.
		defer func() {
			if err := sink.Close(); err != nil {
				log.Printf("trace sink: %v", err)
			}
		}()
	}

	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *graphPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	alg, err := parseAlg(*algName)
	if err != nil {
		log.Fatal(err)
	}
	var sampleOpts sample.Options
	if *sampleFraction != 0 {
		kind, err := sample.ParseKind(*sampleKind)
		if err != nil {
			log.Fatal(err)
		}
		sampleOpts = sample.Options{Kind: kind, Fraction: *sampleFraction, Seed: *sampleSeed}
		if err := sampleOpts.Validate(); err != nil {
			log.Fatal(err)
		}
	}
	g, err := graph.LoadFile(*graphPath)
	if err != nil {
		log.Fatalf("loading %s: %v", *graphPath, err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	if *verify {
		// Verification failures panic with a *check.Failure deep inside a
		// run; turn that into a clean fatal diagnostic, as it indicates an
		// engine bug rather than a crash in sbp itself.
		defer func() {
			if p := recover(); p != nil {
				if f := check.AsFailure(p); f != nil {
					log.Fatalf("VERIFICATION FAILED: %v", f)
				}
				panic(p)
			}
		}()
		log.Printf("oracle verification enabled: every ΔMDL and Hastings value is cross-checked")
	}

	var best *sbp.Result
	start := time.Now()
	for i := 0; i < *runs; i++ {
		opts := sbp.DefaultOptions(alg)
		opts.Seed = *seed + uint64(i)
		opts.MCMC.Workers = *workers
		opts.Merge.Workers = *workers
		opts.MCMC.HybridFraction = *fraction
		opts.Sample = sampleOpts
		opts.Verify = *verify
		opts.Obs = telemetry
		opts.Ctx = ctx
		opts.Checkpoint = snapshot.Policy{
			Dir: *ckptDir, Every: *ckptEvery, Obs: telemetry,
			OnError: func(err error) { log.Printf("checkpoint write failed: %v", err) },
		}
		opts.Progress = func(it sbp.IterationStats) {
			evIterations.Add(1)
			evSweeps.Add(int64(it.MCMC.Sweeps))
			evProposals.Add(it.MCMC.Proposals)
			evAccepts.Add(it.MCMC.Accepts)
			evMDL.Set(it.MDL)
			if m := it.MCMC.MaxImbalance(); m > evMaxImbalance.Value() {
				evMaxImbalance.Set(m)
			}
			if *verbose {
				fmt.Printf("  iter: C %d -> %d, MDL %.1f, %d sweeps, imb %.2f (mcmc %v, merge %v)\n",
					it.StartBlocks, it.TargetBlocks, it.MDL, it.MCMC.Sweeps, it.MCMC.MaxImbalance(),
					it.MCMCTime.Round(time.Millisecond), it.MergeTime.Round(time.Millisecond))
			}
			if *vv {
				printSweepTable(it.MCMC.PerSweep)
			}
		}
		var res *sbp.Result
		if *resume {
			var err error
			res, err = sbp.Resume(g, opts)
			if err != nil {
				log.Fatalf("resume from %s: %v", *ckptDir, err)
			}
			log.Printf("resumed search from %s", *ckptDir)
		} else {
			res = sbp.Run(g, opts)
		}
		fmt.Printf("run %d: C=%d MDL=%.1f MDLnorm=%.4f imb max/mean %.2f/%.2f (mcmc %v, total %v)\n",
			i+1, res.NumCommunities, res.MDL, res.NormalizedMDL,
			res.MaxImbalance, res.MeanImbalance,
			res.MCMCTime.Round(time.Millisecond), res.TotalTime.Round(time.Millisecond))
		if s := res.Sample; s != nil {
			fmt.Printf("  sample: %s %.0f%% -> %d vertices / %d edges, detected C=%d, extended %d anchored + %d fallback\n",
				s.Kind, 100*s.Fraction, s.Vertices, s.Edges, s.DetectBlocks, s.Anchored, s.Fallback)
			fmt.Printf("  phases: sample %v, detect %v, extend %v, finetune %v\n",
				s.SampleTime.Round(time.Millisecond), s.DetectTime.Round(time.Millisecond),
				s.ExtendTime.Round(time.Millisecond), s.FinetuneTime.Round(time.Millisecond))
		}
		if best == nil || res.MDL < best.MDL {
			best = res
		}
		if res.Interrupted {
			if *ckptDir != "" {
				log.Printf("interrupted: checkpoint saved in %s; continue with -resume", *ckptDir)
			} else {
				log.Printf("interrupted: no -checkpoint-dir, progress not saved")
			}
			break
		}
	}
	mod, err := metrics.Modularity(g, best.Best.Assignment)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("best: %s, %d communities, MDL=%.1f, MDLnorm=%.4f, modularity=%.4f, elapsed=%v\n",
		alg, best.NumCommunities, best.MDL, best.NormalizedMDL, mod, time.Since(start).Round(time.Millisecond))

	if *truthPath != "" {
		tf, err := os.Open(*truthPath)
		if err != nil {
			log.Fatal(err)
		}
		truth, err := blockmodel.ReadAssignment(tf, g.NumVertices())
		tf.Close()
		if err != nil {
			log.Fatal(err)
		}
		nmi, err := metrics.NMI(truth, best.Best.Assignment)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("NMI vs %s: %.4f\n", *truthPath, nmi)
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := errors.Join(blockmodel.WriteAssignment(f, best.Best.Assignment), f.Close()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *outPath)
	}
}

// signalContext returns a context cancelled by the first SIGINT or
// SIGTERM; a second signal exits the process immediately (the escape
// hatch when a graceful boundary stop is taking too long).
func signalContext() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		log.Printf("signal received: stopping at the next clean boundary (send again to exit immediately)")
		cancel()
		<-ch
		log.Printf("second signal: exiting immediately")
		os.Exit(1)
	}()
	return ctx
}

// printSweepTable renders the per-sweep observability records of one
// MCMC phase: MDL trajectory, proposal counts, where the time went
// (serial pass, slowest async worker, rebuild, MDL pass), and the
// worker-imbalance ratio of the parallel passes.
func printSweepTable(recs []mcmc.SweepRecord) {
	if len(recs) == 0 {
		return
	}
	fmt.Printf("    %5s %14s %9s %9s %9s %9s %9s %9s %6s\n",
		"sweep", "MDL", "props", "accepts", "serial", "worker", "rebuild", "mdl", "imb")
	for _, r := range recs {
		var maxWorker float64
		for _, t := range r.WorkerNS {
			if t > maxWorker {
				maxWorker = t
			}
		}
		fmt.Printf("    %5d %14.1f %9d %9d %9s %9s %9s %9s %6.2f\n",
			r.Sweep, r.MDL, r.Proposals, r.Accepts,
			fmtNS(r.SerialNS), fmtNS(maxWorker), fmtNS(r.RebuildNS), fmtNS(r.MDLNS), r.Imbalance)
	}
}

// fmtNS renders nanoseconds as a rounded duration, "-" when zero.
func fmtNS(ns float64) string {
	if ns <= 0 {
		return "-"
	}
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}

func parseAlg(name string) (mcmc.Algorithm, error) {
	switch name {
	case "sbp":
		return mcmc.SerialMH, nil
	case "asbp", "a-sbp":
		return mcmc.AsyncGibbs, nil
	case "hsbp", "h-sbp":
		return mcmc.Hybrid, nil
	case "bsbp", "b-sbp":
		return mcmc.BatchedGibbs, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q (want sbp, asbp, hsbp or bsbp)", name)
	}
}
