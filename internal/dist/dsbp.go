package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/blockmodel"
	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/mcmc"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// Distributed A-SBP / H-SBP: the MCMC phase of the paper's algorithms
// executed bulk-synchronously across ranks. Every rank owns a
// contiguous vertex range and a private blockmodel replica; a sweep is
//
//  1. (H-SBP only) rank 0 runs the serial Metropolis-Hastings pass over
//     the high-degree set V* (the same ceil(f·V) vertices in-process
//     H-SBP picks) on its replica and allgathers those moves, which the
//     other ranks apply;
//  2. every rank proposes moves for its owned vertices against its
//     (stale) replica — exactly the bounded-staleness semantics of the
//     shared-memory engines, and the same pass code (mcmc.SerialPass,
//     mcmc.AsyncPass);
//  3. ranks allgather their accepted moves as flat (vertex, block) pairs
//     (the only per-sweep bulk communication, 8 bytes per move per rank
//     pair), check them, and apply them to their replicas;
//  4. ranks allreduce the replica MDL to agree on convergence — the
//     canonical rank-order fold guarantees every rank sees the same
//     bits, and the reduction doubles as a divergence detector: a
//     replica that disagrees, or a rank that received a move list
//     failing step 3's checks, makes every rank return an error.
//
// RunRank is the single-rank body: it speaks only through a Comm, so it
// runs unchanged on the in-process channel cluster (RunMCMCPhase) and
// as one process of a real TCP cluster (cmd/dsbp).

// Mode selects the distributed variant.
type Mode int

const (
	// ModeAsync distributes A-SBP (fully asynchronous sweeps).
	ModeAsync Mode = iota
	// ModeHybrid distributes H-SBP (rank 0 leads a serial pass over
	// the influential vertices, then an asynchronous pass everywhere).
	ModeHybrid
)

func (m Mode) String() string {
	if m == ModeHybrid {
		return "D-H-SBP"
	}
	return "D-A-SBP"
}

// Config holds the distributed-phase tunables.
type Config struct {
	Ranks          int     // cluster size (>= 1)
	Beta           float64 // acceptance inverse temperature
	Threshold      float64 // convergence threshold t
	MaxSweeps      int     // sweep cap x
	HybridFraction float64 // V* share for ModeHybrid
	Seed           uint64

	// WrapTransport, when non-nil, interposes on each rank's transport
	// before the phase runs (in-process clusters only) — the hook the
	// fault-injection tests use to make every wire flaky.
	WrapTransport func(Transport) Transport

	// Obs carries the run's telemetry handles. RunRank registers the
	// comm traffic counters under per-rank labels, publishes per-rank
	// sweep counters and opens one span per rank. Telemetry never
	// touches the RNG streams, so results are bit-identical with it on
	// or off. Under cmd/dsbp every process holds its own registry, so
	// rank labels also identify the process.
	Obs obs.Obs

	// Ctx, when non-nil, makes the phase cancellable. Cancellation is
	// agreed cluster-wide through an extra per-sweep allreduce (see the
	// stop protocol in RunRank), so every rank stops — and checkpoints —
	// at the same sweep boundary. Collectives themselves do not abort on
	// cancellation: the graceful boundary protocol needs them to finish.
	Ctx context.Context

	// OnSweep, when non-nil, observes every completed sweep on this
	// rank: it runs after the replicas rebuilt and agreed on the
	// boundary MDL, and after any periodic checkpoint at that boundary.
	// It is the supervisor's heartbeat hook and the fault planner's
	// process-fault trigger. It runs on the rank goroutine, must not
	// touch the RNG streams, and is not called on the final converged
	// or interrupted sweep — those paths return right after agreement.
	OnSweep func(sweep int, mdl float64)

	// Ckpt configures durable per-rank checkpoints (internal/snapshot).
	// Every rank writes its own rank%04d-sweep%08d.ckpt at deterministic
	// sweep boundaries; with Ckpt.Resume set the ranks negotiate the
	// newest boundary every rank can load and rejoin from it. The zero
	// value disables checkpointing. All ranks must share the same Every,
	// Retain and Resume settings (the boundary schedule is part of the
	// protocol), though Dir is rank-local under cmd/dsbp.
	Ckpt snapshot.Policy

	// Verify runs the oracle's invariant check (check.Invariants) on
	// the rank's replica after the hybrid serial pass and its exchange,
	// and after every apply of the async moves: the checks an
	// in-process engine makes with mcmc.Config.Verify. A failure makes
	// every rank return an error, like a bad move list, so it catches a
	// corrupted replica even when every rank shares the bug and the MDL
	// agreement cannot see it. Each check costs O(V + E + C²).
	Verify bool
}

// DefaultConfig mirrors the shared-memory defaults on 4 ranks.
func DefaultConfig() Config {
	m := mcmc.DefaultConfig()
	return Config{
		Ranks: 4, Beta: m.Beta, Threshold: m.Threshold, MaxSweeps: m.MaxSweeps,
		HybridFraction: m.HybridFraction, Seed: 1,
	}
}

// PhaseStats reports one distributed MCMC phase.
type PhaseStats struct {
	Mode         Mode
	Ranks        int
	Sweeps       int
	Proposals    int64
	Accepts      int64
	InitialS     float64
	FinalS       float64
	Converged    bool
	TrafficBytes int64         // total frame bytes exchanged between ranks
	CommTime     time.Duration // rank 0's wall time inside collectives

	// Interrupted reports that Config.Ctx was cancelled and the cluster
	// stopped in agreement at a checkpointed sweep boundary.
	Interrupted bool
}

// CommPerSweep returns rank 0's average collective time per sweep.
func (st PhaseStats) CommPerSweep() time.Duration {
	if st.Sweeps == 0 {
		return 0
	}
	return st.CommTime / time.Duration(st.Sweeps)
}

// RankStats is one rank's view of a distributed phase. Proposals and
// Accepts are cluster-global totals (allreduced at phase end);
// SentBytes and CommTime are rank-local.
type RankStats struct {
	Rank      int
	Sweeps    int
	Proposals int64
	Accepts   int64
	Converged bool
	InitialS  float64
	FinalS    float64
	SentBytes int64
	CommTime  time.Duration

	// Interrupted reports a cluster-agreed cancellation stop; the rank
	// wrote its boundary checkpoint before returning.
	Interrupted bool

	// ResumedFrom is the sweep boundary this rank rejoined from, or -1
	// for a fresh start.
	ResumedFrom int
}

// PartitionRanges returns exactly `ranks` contiguous vertex ranges
// covering [0, V), of about equal total degree. Every rank (on every
// node) computes the same split deterministically from the shared
// immutable graph. Proposal cost is proportional to degree, and an
// equal-count split places all hubs on low ranks for the common case of
// degree-sorted graph files, serialising the whole bulk-synchronous
// sweep behind the hub-owning ranks. When ranks > V the trailing ranges
// are empty.
func PartitionRanges(g *graph.Graph, ranks int) []parallel.Range {
	n := g.NumVertices()
	out := make([]parallel.Range, 0, ranks)
	w := ranks
	if w > n {
		w = n
	}
	out = append(out, parallel.BalancedRanges(n, w, func(i int) int64 { return int64(g.Degree(i)) })...)
	for len(out) < ranks {
		out = append(out, parallel.Range{Lo: n, Hi: n})
	}
	return out
}

// RunMCMCPhase executes the distributed MCMC phase for the given mode
// on bm in place, over an in-process cluster, and returns phase
// statistics. The per-rank body is RunRank — the same code cmd/dsbp
// runs over TCP.
func RunMCMCPhase(bm *blockmodel.Blockmodel, mode Mode, cfg Config) (PhaseStats, error) {
	if cfg.Ranks < 1 {
		return PhaseStats{}, fmt.Errorf("dist: rank count %d", cfg.Ranks)
	}
	n := bm.G.NumVertices()
	ranks := cfg.Ranks
	if ranks > n {
		ranks = n
	}
	st := PhaseStats{Mode: mode, Ranks: ranks, InitialS: bm.MDL()}

	cluster := NewCluster(ranks)
	rankStats := make([]RankStats, ranks)
	errs := make([]error, ranks)
	var final []int32
	cluster.RunWith(cfg.WrapTransport, func(comm *Comm) {
		r := comm.Rank()
		membership := append([]int32(nil), bm.Assignment...)
		rs, err := RunRank(comm, bm.G, membership, bm.C, mode, cfg)
		if err != nil {
			errs[r] = err
			return
		}
		rankStats[r] = rs
		if r == 0 {
			final = membership
		}
	})
	if err := errors.Join(errs...); err != nil {
		return st, err
	}

	// Every replica followed the same deterministic exchange, so rank
	// 0's membership is the global result.
	bm.RebuildFrom(final, 1)
	st.FinalS = bm.MDL()
	r0 := rankStats[0]
	st.Sweeps = r0.Sweeps
	st.Converged = r0.Converged
	st.Interrupted = r0.Interrupted
	st.Proposals = r0.Proposals
	st.Accepts = r0.Accepts
	st.TrafficBytes = cluster.TrafficBytes()
	st.CommTime = r0.CommTime
	return st, nil
}

// RunRank executes one rank of the distributed MCMC phase over comm.
// membership is the starting assignment (identical on every rank, c
// blocks); on success it holds the final global membership, identical
// on every rank. The graph is the rank's immutable local copy of the
// structure (shared in-process, loaded from file per process under
// cmd/dsbp); all mutable state is private and every exchange goes
// through comm, so behaviour is bit-identical across transports.
func RunRank(comm *Comm, g *graph.Graph, membership []int32, c int, mode Mode, cfg Config) (st RankStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			if te, ok := p.(*TransportError); ok {
				err = te
				return
			}
			panic(p)
		}
	}()

	n := g.NumVertices()
	if len(membership) != n {
		return st, fmt.Errorf("dist: membership length %d for %d vertices", len(membership), n)
	}
	ranks := comm.Size()
	r := comm.Rank()
	st.Rank = r

	// Per-rank telemetry: the comm's traffic counters join the registry
	// under this rank's label, sweep progress gets its own series, and
	// the whole rank body runs under one span. All of it is a no-op
	// when cfg.Obs is zero.
	comm.Register(cfg.Obs)
	rl := obs.L("rank", strconv.Itoa(r))
	reg := cfg.Obs.Metrics
	cSweeps := reg.Counter("dist_sweeps_total", "distributed MCMC sweeps per rank", rl)
	cProps := reg.Counter("dist_proposals_total", "move proposals evaluated per rank", rl)
	cAccs := reg.Counter("dist_accepts_total", "move proposals accepted per rank", rl)
	span := cfg.Obs.StartSpan("rank",
		obs.F("rank", r), obs.F("ranks", ranks), obs.F("mode", mode.String()),
		obs.F("trace", cfg.Obs.TraceID()))
	defer func() {
		if span != nil {
			span.End(obs.F("sweeps", st.Sweeps), obs.F("mdl", st.FinalS),
				obs.F("sent_bytes", comm.SentBytes()),
				obs.F("comm_ns", int64(comm.CommTime())),
				obs.F("converged", st.Converged))
		}
	}()

	// Every rank derives the same split and the same master stream from
	// the shared seed, and draws the phase key from it as mcmc.Run does.
	ranges := PartitionRanges(g, ranks)
	master := rng.New(cfg.Seed)
	sc := blockmodel.NewScratch()

	// Rejoin negotiation: with Ckpt.Resume set, the ranks allgather the
	// sweep boundaries each can actually load and rejoin from the newest
	// boundary common to all. A restarted rank typically trails its
	// peers by a generation (it died mid-interval), which is exactly why
	// the Policy retains several generations. No common boundary — e.g.
	// an empty directory on a fresh rank — falls back to a fresh start
	// on every rank, which is always safe: the phase is deterministic.
	var replica *blockmodel.Blockmodel
	var prev float64
	startSweep := 0
	st.ResumedFrom = -1
	var resumeCount int32
	if cfg.Ckpt.Enabled() && cfg.Ckpt.Resume {
		mine := cfg.Ckpt.RankSweeps(r)
		m32 := make([]int32, len(mine))
		for i, s := range mine {
			m32[i] = int32(s)
		}
		lists := comm.AllGatherInt32(m32)
		common := -1
		for _, s := range lists[0] {
			inAll := true
			for _, l := range lists[1:] {
				found := false
				for _, x := range l {
					if x == s {
						found = true
						break
					}
				}
				if !found {
					inAll = false
					break
				}
			}
			if inAll && int(s) > common {
				common = int(s)
			}
		}
		if common >= 0 {
			rst, lerr := cfg.Ckpt.LoadRank(r, common)
			if lerr != nil {
				return st, fmt.Errorf("dist: rank %d load checkpoint sweep %d: %w", r, common, lerr)
			}
			if rst.Seed != cfg.Seed || int(rst.Ranks) != ranks || Mode(rst.Mode) != mode ||
				rst.Beta != cfg.Beta || rst.Threshold != cfg.Threshold || int(rst.MaxSweeps) != cfg.MaxSweeps ||
				rst.HybridFraction != cfg.HybridFraction || rst.NumVertices != int64(n) ||
				int(rst.Blocks) != c {
				return st, fmt.Errorf("dist: rank %d checkpoint at sweep %d does not match this run's configuration", r, common)
			}
			replica, err = blockmodel.FromCheckpoint(g, rst.Membership, int(rst.Blocks), rst.PrevMDL)
			if err != nil {
				return st, fmt.Errorf("dist: rank %d checkpoint at sweep %d: %w", r, common, err)
			}
			if err = master.UnmarshalBinary(rst.RNG); err != nil {
				return st, fmt.Errorf("dist: rank %d checkpoint RNG: %w", r, err)
			}
			startSweep = int(rst.Sweep)
			prev = rst.PrevMDL
			st.InitialS = rst.InitialS
			st.Sweeps = startSweep
			st.Proposals = rst.Proposals
			st.Accepts = rst.Accepts
			st.ResumedFrom = common
			resumeCount = rst.ResumeCount + 1
			cfg.Ckpt.NoteResume()
		}
	}

	// Private replica built from the immutable graph and the starting
	// membership (unless the rejoin above restored a newer boundary).
	if replica == nil {
		replica, err = blockmodel.FromAssignment(g, membership, c, 1)
		if err != nil {
			return st, err
		}
		st.InitialS = replica.MDL()
		prev = st.InitialS
	}
	st.FinalS = prev

	// The rank's sweep runs the in-process passes over its own lists.
	// They draw vertex v's randomness in sweep t from rng.At(key, t, v),
	// so the ranks together run the in-process chain.
	startMaster, _ := master.MarshalBinary()
	key := master.Uint64()
	serial, async, star := rankLists(replica, mode, cfg.HybridFraction, r, ranges[r])
	plan := mcmc.NewPassPlan(replica, async, 1)
	pcfg := mcmc.Config{Beta: cfg.Beta}
	scratches := []*blockmodel.Scratch{sc}
	moves := make([][]int32, 1)
	// A move of v may come from rank 0 alone for a V* vertex, in the
	// serial exchange, and from the rank whose async list holds v, in
	// the async one.
	starMover := func(p int, v int32) bool { return p == 0 && star[v] }
	asyncMover := func(p int, v int32) bool {
		return ranges[p].Lo <= int(v) && int(v) < ranges[p].Hi && !star[v]
	}
	seen := make([]bool, n)

	// writeCkpt persists this rank's state at a sweep boundary: the
	// agreed membership (identical on all ranks after the rebuild) plus
	// the chain position, whose stream is the master at phase start.
	// cur is the boundary MDL — the next sweep's convergence baseline,
	// and the value FromCheckpoint re-verifies bit-for-bit on rejoin.
	// Write failures are routed to the Policy's OnError hook; losing a
	// checkpoint never fails a rank.
	writeCkpt := func(boundary int, cur float64) {
		_ = cfg.Ckpt.WriteRank(&snapshot.RankState{
			Seed: cfg.Seed, Rank: int32(r), Ranks: int32(ranks),
			Mode: int32(mode), Beta: cfg.Beta, Threshold: cfg.Threshold,
			MaxSweeps: int32(cfg.MaxSweeps), HybridFraction: cfg.HybridFraction,
			NumVertices: int64(n), Blocks: int32(replica.C),
			Sweep: int32(boundary), PrevMDL: cur, InitialS: st.InitialS,
			Proposals: st.Proposals, Accepts: st.Accepts,
			ResumeCount: resumeCount,
			RNG:         startMaster, Membership: append([]int32(nil), replica.Assignment...),
		})
	}
	// The stop protocol adds one allreduce per sweep, so it only runs
	// when checkpointing or cancellation is actually configured — the
	// wire traffic of a plain phase is unchanged. The gate must be
	// uniform across ranks (it is part of the per-sweep protocol).
	stopProtocol := cfg.Ckpt.Enabled() || cfg.Ctx != nil

	for sweep := startSweep; sweep < cfg.MaxSweeps; sweep++ {
		sweepProps, sweepAccs := st.Proposals, st.Accepts
		// One span per sweep, with mcmc/comm/checkpoint child slices —
		// the decomposition obsctl report aggregates. Every exit path
		// below must close it (nil-safe when tracing is off).
		sweepSpan := span.Child("sweep", obs.F("sweep", sweep))
		endSweep := func(mdl float64, fields ...obs.Field) {
			sweepSpan.End(append([]obs.Field{
				obs.F("sweep", sweep), obs.F("mdl", mdl),
				obs.F("proposals", st.Proposals-sweepProps),
				obs.F("accepts", st.Accepts-sweepAccs),
			}, fields...)...)
		}
		// Hybrid: rank 0 leads the serial pass over V* (every other
		// rank's serial list is empty) and sends its accepted moves, in
		// V* order, to the other ranks, which apply them. A list that
		// fails the checks is not applied; after a bad list, or with
		// Verify a replica that fails the invariants, the rank finishes
		// the sweep's exchanges and then votes NaN.
		var bad error
		if mode == ModeHybrid {
			serialSpan := sweepSpan.Child("mcmc", obs.F("pass", "serial"))
			res := mcmc.SerialPass(replica, serial, moves, pcfg, key, sweep, sc, nil)
			st.Proposals += res.Proposals
			st.Accepts += res.Accepts
			serialSpan.End()
			commSpan := sweepSpan.Child("comm", obs.F("op", "allgather_vstar"))
			all := comm.AllGatherInt32(moves[0])
			commSpan.End()
			if bad = checkMoves(all, replica.C, starMover, seen); bad == nil && r != 0 {
				replica.ApplyMoves(all, sc)
			}
			if bad == nil && cfg.Verify {
				bad = verifyReplica(replica, "post-serial-pass invariants")
			}
		}

		// Asynchronous pass over the owned vertices against the stale
		// replica; accepted moves land in the rank's move list only. A
		// rank that already failed a check sends no moves: a replica
		// that failed Verify may not even be safe to propose from.
		if bad == nil {
			asyncSpan := sweepSpan.Child("mcmc", obs.F("pass", "async"))
			res := mcmc.AsyncPass(replica, plan, moves, pcfg, key, sweep, scratches, nil)
			st.Proposals += res.Proposals
			st.Accepts += res.Accepts
			asyncSpan.End()
		} else {
			moves[0] = moves[0][:0]
		}

		// Exchange move lists; every rank applies all of them, its own
		// included, in rank order.
		commSpan := sweepSpan.Child("comm", obs.F("op", "allgather_moves"))
		all := comm.AllGatherInt32(moves[0])
		commSpan.End()
		if bad == nil {
			if bad = checkMoves(all, replica.C, asyncMover, seen); bad == nil {
				replica.ApplyMoves(all, sc)
				if cfg.Verify {
					bad = verifyReplica(replica, "post-rebuild invariants")
				}
			}
		}
		st.Sweeps++
		cSweeps.Inc()
		cProps.Add(st.Proposals - sweepProps)
		cAccs.Add(st.Accepts - sweepAccs)

		// Agree on the sweep's MDL. The canonical-order allreduce makes
		// the value bit-identical on every rank, so the convergence
		// decision below cannot split the cluster; agreeOr folds to NaN
		// if any replica disagrees, any rank received a bad move list or
		// any replica failed Verify's check, turning each into a hard
		// error on every rank.
		local := replica.MDL()
		vote := local
		if bad != nil {
			vote = math.NaN()
		}
		commSpan = sweepSpan.Child("comm", obs.F("op", "allreduce_mdl"))
		cur := comm.AllReduceFloat64(vote, agreeOr)
		commSpan.End()
		if bad != nil {
			endSweep(local, obs.F("error", bad.Error()))
			return st, fmt.Errorf("dist: rank %d sweep %d: %w", r, sweep, bad)
		}
		if math.IsNaN(cur) && !math.IsNaN(local) {
			endSweep(local, obs.F("diverged", true))
			return st, fmt.Errorf("dist: rank %d replica diverged at sweep %d (local MDL %v)", r, sweep, local)
		}
		st.FinalS = cur
		if math.Abs(prev-cur) <= cfg.Threshold*math.Abs(cur) {
			st.Converged = true
			endSweep(cur, obs.F("converged", true))
			break
		}
		prev = cur

		// Stop protocol: agree cluster-wide on whether any rank's
		// context is cancelled. Every rank sees the same verdict, so
		// either all write a checkpoint at this boundary and stop, or
		// none do — a single rank can never wedge its peers inside a
		// later collective. The periodic checkpoint needs no agreement:
		// the sweep schedule is deterministic and shared.
		if stopProtocol {
			boundary := sweep + 1
			var stop int64
			if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
				stop = 1
			}
			commSpan = sweepSpan.Child("comm", obs.F("op", "allreduce_stop"))
			stop = comm.AllReduceInt64(stop, maxInt64)
			commSpan.End()
			if stop != 0 {
				ckptSpan := sweepSpan.Child("checkpoint", obs.F("boundary", boundary))
				writeCkpt(boundary, cur)
				ckptSpan.End()
				st.Interrupted = true
				endSweep(cur, obs.F("interrupted", true))
				break
			}
			if cfg.Ckpt.Enabled() && cfg.Ckpt.Every > 0 && boundary%cfg.Ckpt.Every == 0 {
				ckptSpan := sweepSpan.Child("checkpoint", obs.F("boundary", boundary))
				writeCkpt(boundary, cur)
				ckptSpan.End()
			}
		}
		if cfg.OnSweep != nil {
			cfg.OnSweep(sweep, cur)
		}
		endSweep(cur)
	}

	copy(membership, replica.Assignment)
	st.SentBytes = comm.SentBytes()

	// Cluster-global proposal/accept totals, and a final barrier so no
	// rank tears down its transport while a peer is still draining.
	sum := func(a, b int64) int64 { return a + b }
	st.Proposals = comm.AllReduceInt64(st.Proposals, sum)
	st.Accepts = comm.AllReduceInt64(st.Accepts, sum)
	comm.Barrier()
	st.CommTime = comm.CommTime()
	return st, nil
}

// maxInt64 is the allreduce op for the stop protocol: any rank voting
// to stop stops the cluster.
func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// agreeOr is the allreduce op for values that must already be equal on
// every rank: it returns the common value, or NaN on any mismatch.
func agreeOr(a, b float64) float64 {
	if a == b {
		return a
	}
	return math.NaN()
}

// checkMoves reports the first way the move lists, one per sending
// rank, break the exchange's rules: every list holds (vertex, block)
// pairs, every block is in [0, c), and mover(p, v) allows rank p to
// move each vertex v it lists, which it lists at most once. seen is
// all false on entry and is again on return.
func checkMoves(lists [][]int32, c int, mover func(p int, v int32) bool, seen []bool) error {
	defer func() {
		for _, l := range lists {
			for i := 0; i < len(l); i += 2 {
				if v := l[i]; v >= 0 && int(v) < len(seen) {
					seen[v] = false
				}
			}
		}
	}()
	for p, l := range lists {
		if len(l)%2 != 0 {
			return fmt.Errorf("rank %d sent a move list of odd length %d", p, len(l))
		}
		for i := 0; i < len(l); i += 2 {
			v, b := l[i], l[i+1]
			switch {
			case v < 0 || int(v) >= len(seen) || !mover(p, v):
				return fmt.Errorf("rank %d sent a move of vertex %d, which it does not move", p, v)
			case seen[v]:
				return fmt.Errorf("rank %d sent vertex %d twice", p, v)
			case b < 0 || int(b) >= c:
				return fmt.Errorf("rank %d moved vertex %d to block %d outside [0,%d)", p, v, b, c)
			}
			seen[v] = true
		}
	}
	return nil
}

// verifyReplica runs the oracle's invariant check on a replica and
// names the verification point in the error it returns.
func verifyReplica(replica *blockmodel.Blockmodel, stage string) error {
	if err := check.Invariants(replica); err != nil {
		return &check.Failure{Stage: stage, Err: err}
	}
	return nil
}

// rankLists builds rank r's pass lists with the in-process helpers.
// In hybrid mode V* comes from mcmc.SplitByDegree, exactly the set
// H-SBP picks, and is rank 0's serial list; every other rank's is
// empty. The async list is the rank's owned range minus V*, in
// ascending vertex id (never nil: a nil pass list means every vertex).
// star marks the vertices of V*.
func rankLists(bm *blockmodel.Blockmodel, mode Mode, fraction float64, r int, owned parallel.Range) (serial, async []int32, star []bool) {
	star = make([]bool, bm.G.NumVertices())
	if mode == ModeHybrid {
		vStar, _ := mcmc.SplitByDegree(bm, fraction)
		for _, v := range vStar {
			star[v] = true
		}
		if r == 0 {
			serial = vStar
		}
	}
	async = make([]int32, 0, owned.Len())
	for v := owned.Lo; v < owned.Hi; v++ {
		if !star[v] {
			async = append(async, int32(v))
		}
	}
	return serial, async, star
}
