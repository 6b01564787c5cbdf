// Command dsbp runs ONE rank of a distributed SBP MCMC phase over TCP.
// Launch the same binary once per rank — on one machine or many — and
// the processes form a full-mesh cluster, run D-A-SBP or D-H-SBP
// bulk-synchronously, and each print the (identical) final description
// length:
//
//	dsbp -rank 0 -peers 127.0.0.1:9401,127.0.0.1:9402 -graph g.tsv -communities 8 &
//	dsbp -rank 1 -peers 127.0.0.1:9401,127.0.0.1:9402 -graph g.tsv -communities 8
//
// Every rank loads the same graph file and derives the same initial
// membership and the same chain randomness from -seed, so the run is
// deterministic: all ranks converge to bit-identical membership and
// MDL, and the result matches the in-process simulation at the same
// seed. Ranks may start in any order; connection establishment retries
// with exponential backoff while peers boot.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/blockmodel"
	"repro/internal/dist"
	distnet "repro/internal/dist/net"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/mcmc"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

func main() {
	def := mcmc.DefaultConfig()
	var (
		rank        = flag.Int("rank", 0, "this process's rank id")
		ranks       = flag.Int("ranks", 0, "cluster size (default: number of -peers entries)")
		peers       = flag.String("peers", "", "comma-separated host:port per rank, index = rank (required)")
		graphPath   = flag.String("graph", "", "edge-list or MatrixMarket graph file (required)")
		communities = flag.Int("communities", 8, "number of blocks for the phase")
		mode        = flag.String("mode", "hybrid", "distributed variant: async (D-A-SBP) or hybrid (D-H-SBP)")
		seed        = flag.Uint64("seed", 1, "shared cluster seed (must match on every rank)")
		maxSweeps   = flag.Int("max-sweeps", def.MaxSweeps, "sweep cap x")
		threshold   = flag.Float64("threshold", def.Threshold, "convergence threshold t")
		beta        = flag.Float64("beta", def.Beta, "acceptance inverse temperature")
		hybridFrac  = flag.Float64("hybrid-fraction", def.HybridFraction, "V* share for hybrid mode")
		ioTimeout   = flag.Duration("io-timeout", 30*time.Second, "per-message send/recv deadline")
		acceptWait  = flag.Duration("accept-wait", 30*time.Second, "how long to wait for peers to boot")
		verbose     = flag.Bool("v", false, "log connection and phase progress to stderr")
		obsAddr     = flag.String("obs", "", "serve this rank's live telemetry on this address: Prometheus /metrics (wire and sweep counters under this rank's label), /debug/vars, /debug/pprof")
		tracePath   = flag.String("trace", "", "write this rank's structured JSONL trace events under this path; a directory gets trace-rank<N>.jsonl, a file path gets -rank<N> inserted, so all ranks may share one value")
		ckptDir     = flag.String("checkpoint-dir", "", "write this rank's durable sweep-boundary checkpoints to this directory; SIGINT/SIGTERM then stops the whole cluster at an agreed boundary")
		ckptEvery   = flag.Int("checkpoint-every", 1, "sweep interval between periodic checkpoints (with -checkpoint-dir)")
		ckptRetain  = flag.Int("checkpoint-retain", 0, "checkpoint generations kept per rank (0 = default)")
		resume      = flag.Bool("resume", false, "rejoin from the newest checkpoint boundary common to all ranks (must be set on every rank)")

		supervise      = flag.Bool("supervise", false, "run the whole cluster under supervision: spawn one child process per rank on this machine, restart all ranks from checkpoints when one dies or hangs (requires -checkpoint-dir)")
		faultPlan      = flag.String("fault-plan", "", "JSON chaos plan injecting seeded network/disk/process faults (see internal/fault)")
		statusDir      = flag.String("status-dir", "", "directory for per-rank heartbeat status files (default <checkpoint-dir>/status)")
		hbTimeout      = flag.Duration("heartbeat-timeout", time.Minute, "with -supervise: kill a rank with no progress for this long (0 disables hang detection)")
		restartBudget  = flag.Int("restart-budget", 5, "with -supervise: maximum cluster restarts before giving up")
		restartBackoff = flag.Duration("restart-backoff", time.Second, "with -supervise: pause before the first restart, doubling per restart")
		childGen       = flag.Int("gen", 0, "supervisor generation of this process (set by -supervise; identifies the restart epoch)")
		outPath        = flag.String("out", "", "write this rank's final global membership to this file, one block id per line")
		verify         = flag.Bool("verify", false, "check this rank's replica against a recount from its membership after every exchange, failing every rank on a mismatch (O(V + E + C²) per check: small graphs only)")
	)
	flag.Parse()
	a := rankArgs{
		rank: *rank, ranks: *ranks, peers: *peers, graphPath: *graphPath,
		communities: *communities, mode: *mode,
		seed: *seed, maxSweeps: *maxSweeps, threshold: *threshold, beta: *beta,
		hybridFrac: *hybridFrac, ioTimeout: *ioTimeout, acceptWait: *acceptWait,
		verbose: *verbose, obsAddr: *obsAddr, tracePath: *tracePath,
		ckptDir: *ckptDir, ckptEvery: *ckptEvery, ckptRetain: *ckptRetain, resume: *resume,
		gen: *childGen, statusDir: *statusDir, faultPlan: *faultPlan, outPath: *outPath,
		verify: *verify,
	}
	var err error
	if *supervise {
		err = runSupervise(superviseArgs{
			rankArgs: a, hbTimeout: *hbTimeout,
			budget: *restartBudget, backoff: *restartBackoff,
		})
	} else {
		err = run(a)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsbp:", err)
		os.Exit(1)
	}
}

// rankTracePath derives this rank's private trace file so concurrent
// ranks sharing one -trace value never clobber each other: an existing
// directory gets trace-rank<N>.jsonl inside it; any other path gets
// -rank<N> inserted before the extension.
func rankTracePath(path string, rank int) string {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return filepath.Join(path, fmt.Sprintf("trace-rank%d.jsonl", rank))
	}
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s-rank%d%s", strings.TrimSuffix(path, ext), rank, ext)
}

type rankArgs struct {
	rank, ranks           int
	peers, graphPath      string
	communities           int
	mode                  string
	seed                  uint64
	maxSweeps             int
	threshold, beta       float64
	hybridFrac            float64
	ioTimeout, acceptWait time.Duration
	verbose               bool
	obsAddr, tracePath    string
	ckptDir               string
	ckptEvery, ckptRetain int
	resume, verify        bool

	// Supervision plumbing: gen is the restart epoch this process
	// belongs to, statusDir the heartbeat channel, faultPlan the chaos
	// scenario, outPath an optional final-membership dump.
	gen                           int
	statusDir, faultPlan, outPath string
}

func run(a rankArgs) error {
	if a.peers == "" {
		return fmt.Errorf("-peers is required")
	}
	if a.graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
	addrs := strings.Split(a.peers, ",")
	if a.ranks == 0 {
		a.ranks = len(addrs)
	}
	if a.ranks != len(addrs) {
		return fmt.Errorf("-ranks %d but %d -peers entries", a.ranks, len(addrs))
	}
	if a.rank < 0 || a.rank >= a.ranks {
		return fmt.Errorf("-rank %d outside [0,%d)", a.rank, a.ranks)
	}
	if a.communities < 1 {
		return fmt.Errorf("-communities %d", a.communities)
	}
	if a.resume && a.ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}

	var m dist.Mode
	switch a.mode {
	case "async":
		m = dist.ModeAsync
	case "hybrid":
		m = dist.ModeHybrid
	default:
		return fmt.Errorf("unknown -mode %q (want async or hybrid)", a.mode)
	}

	// The fault plan and the status heartbeat are the supervised-child
	// half of the self-healing protocol: -supervise passes both down,
	// but they also work standalone for ad-hoc chaos runs.
	plan := &fault.Plan{}
	if a.faultPlan != "" {
		p, err := fault.Load(a.faultPlan)
		if err != nil {
			return err
		}
		plan = p
	}
	writeStatus := func(phase string, sweep int, mdl float64) {
		if a.statusDir == "" {
			return
		}
		st := fault.Status{Rank: a.rank, Gen: a.gen, Phase: phase, Sweep: sweep, MDL: mdl}
		if err := fault.WriteStatus(a.statusDir, st); err != nil {
			fmt.Fprintf(os.Stderr, "dsbp rank %d: status write: %v\n", a.rank, err)
		}
	}
	writeStatus(fault.PhaseBoot, -1, 0)

	g, err := graph.LoadFile(a.graphPath)
	if err != nil {
		return fmt.Errorf("load graph: %w", err)
	}
	logf := func(format string, args ...interface{}) {
		if a.verbose {
			fmt.Fprintf(os.Stderr, "dsbp rank %d: "+format+"\n", append([]interface{}{a.rank}, args...)...)
		}
	}
	logf("graph %s: %d vertices, %d edges", a.graphPath, g.NumVertices(), g.NumEdges())

	// Per-process telemetry: each rank serves its own registry, with the
	// rank label distinguishing the series when a scraper aggregates the
	// cluster.
	var telemetry obs.Obs
	if a.obsAddr != "" {
		reg := obs.NewRegistry()
		telemetry.Metrics = reg
		_, bound, err := obs.Serve(a.obsAddr, reg)
		if err != nil {
			return fmt.Errorf("telemetry server: %w", err)
		}
		logf("telemetry listening on http://%s/metrics", bound)
	}
	if a.tracePath != "" {
		path := rankTracePath(a.tracePath, a.rank)
		sink, err := obs.NewFileSink(path)
		if err != nil {
			return err
		}
		telemetry.Tracer = obs.NewTracer(sink)
		// Close flushes and syncs, so the stream survives a graceful
		// stop (SIGTERM drains through RunRank and falls out here).
		defer func() {
			if err := sink.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "dsbp rank %d: trace sink: %v\n", a.rank, err)
			}
		}()
		logf("tracing to %s", path)
	}

	// Every rank derives the same starting membership from the shared
	// seed, so no coordination is needed to agree on the initial state.
	init := rng.New(a.seed ^ 0xD5B9_1217)
	membership := make([]int32, g.NumVertices())
	for v := range membership {
		membership[v] = int32(init.Intn(a.communities))
	}

	// SIGINT/SIGTERM cancels the context: connection establishment
	// aborts promptly, and a running phase stops — cluster-wide, via the
	// stop protocol — at the next sweep boundary, checkpointing there
	// when -checkpoint-dir is set. A second signal exits immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintf(os.Stderr, "dsbp rank %d: signal received: stopping at the next agreed sweep boundary (send again to exit immediately)\n", a.rank)
		cancel()
		<-sig
		fmt.Fprintf(os.Stderr, "dsbp rank %d: second signal: exiting immediately\n", a.rank)
		os.Exit(1)
	}()

	logf("connecting to %d peers", a.ranks-1)
	start := time.Now()
	tr, err := distnet.Dial(distnet.Config{
		Rank:       a.rank,
		Peers:      addrs,
		IOTimeout:  a.ioTimeout,
		AcceptWait: a.acceptWait,
		Seed:       a.seed,
		Generation: a.gen,               // fence out stragglers from killed generations
		Trace:      telemetry.TraceID(), // propose this rank's trace id
		Obs:        telemetry,
		Ctx:        ctx,
	})
	if err != nil {
		return err
	}
	writeStatus(fault.PhaseConnected, -1, 0)
	// The deferred close is the graceful teardown on every path — after
	// convergence, after an agreed cancellation stop (RunRank's final
	// barrier has already quiesced the collectives), and after an error.
	defer tr.Close()
	logf("cluster up in %v (%d dial retries)", time.Since(start).Round(time.Millisecond), tr.DialRetries())

	// Adopt the cluster's agreed trace identity (rank 0's proposal, or
	// our own when rank 0 isn't tracing) before the first span is
	// emitted, so every rank's stream shares one TraceID and span ids
	// are rank-qualified — the keys obsctl merge joins the files on.
	if telemetry.Tracer != nil {
		ct := tr.ClusterTraceID()
		if ct == "" {
			ct = telemetry.TraceID()
		}
		if err := telemetry.Tracer.SetIdentity(ct, a.rank); err != nil {
			return fmt.Errorf("trace identity: %w", err)
		}
		logf("trace %s origin %d", ct, a.rank)
	}

	cfg := dist.Config{
		Ranks:          a.ranks,
		Beta:           a.beta,
		Threshold:      a.threshold,
		MaxSweeps:      a.maxSweeps,
		HybridFraction: a.hybridFrac,
		Seed:           a.seed,
		Obs:            telemetry,
		Ctx:            ctx,
		Verify:         a.verify,
		Ckpt: snapshot.Policy{
			Dir: a.ckptDir, Every: a.ckptEvery, Retain: a.ckptRetain, Resume: a.resume,
			Obs:     telemetry,
			OnError: func(err error) { fmt.Fprintf(os.Stderr, "dsbp rank %d: checkpoint write failed: %v\n", a.rank, err) },
		},
	}
	if di := plan.DiskFS(a.rank, a.gen); di != nil {
		cfg.Ckpt.FS = di
	}
	// Heartbeat every completed sweep, and fire any planned process
	// fault at its boundary. A hung rank stays alive but makes no
	// progress — exactly what the supervisor's heartbeat deadline is
	// for — until it is killed.
	cfg.OnSweep = func(sweep int, mdl float64) {
		writeStatus(fault.PhaseSweep, sweep, mdl)
		if pf := plan.ProcAt(a.rank, a.gen, sweep); pf != nil {
			switch pf.Action {
			case fault.ActKill:
				fmt.Fprintf(os.Stderr, "dsbp rank %d: fault plan: killing after sweep %d\n", a.rank, sweep)
				os.Exit(3)
			case fault.ActHang:
				fmt.Fprintf(os.Stderr, "dsbp rank %d: fault plan: hanging after sweep %d\n", a.rank, sweep)
				for {
					time.Sleep(time.Hour)
				}
			}
		}
	}

	// When the plan has live network faults this generation, every rank
	// wraps — FaultTransport's sequence headers are a cluster-wide
	// protocol — with its own (possibly zero-fault) configuration.
	var ep dist.Transport = tr
	if plan.NetActive(a.gen) {
		ep = dist.NewFaultTransport(ep, plan.NetConfig(a.rank, a.gen))
		logf("fault plan active: transport wrapped (gen %d)", a.gen)
	}
	comm := dist.NewComm(ep)
	st, err := dist.RunRank(comm, g, membership, a.communities, m, cfg)
	if err != nil {
		return err
	}
	writeStatus(fault.PhaseDone, st.Sweeps, st.FinalS)
	if st.ResumedFrom >= 0 {
		logf("rejoined from checkpoint boundary sweep %d", st.ResumedFrom)
	}
	if st.Interrupted {
		fmt.Fprintf(os.Stderr, "dsbp rank %d: interrupted: checkpoint saved in %s at sweep %d; restart every rank with -resume\n",
			a.rank, a.ckptDir, st.Sweeps)
	}

	// Count the non-empty blocks of the final global membership.
	bm, err := blockmodel.FromAssignment(g, membership, a.communities, 1)
	if err != nil {
		return err
	}
	fmt.Printf("rank=%d mode=%s ranks=%d sweeps=%d converged=%t interrupted=%t proposals=%d accepts=%d "+
		"blocks=%d sent_bytes=%d comm_ms=%.1f initial_mdl=%.6f final_mdl=%.6f\n",
		a.rank, m, a.ranks, st.Sweeps, st.Converged, st.Interrupted, st.Proposals, st.Accepts,
		bm.NumNonEmptyBlocks(), st.SentBytes, float64(st.CommTime.Microseconds())/1000,
		st.InitialS, st.FinalS)
	if a.outPath != "" {
		var sb strings.Builder
		for _, b := range membership {
			fmt.Fprintf(&sb, "%d\n", b)
		}
		if err := os.WriteFile(a.outPath, []byte(sb.String()), 0o644); err != nil {
			return fmt.Errorf("write -out: %w", err)
		}
	}
	return nil
}
