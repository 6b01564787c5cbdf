// Command e2ebench is the repository's end-to-end benchmark. It measures
// the paper's claim — wall-clock time to a partition of stated quality —
// on four workloads, checks every result for correctness, and breaks one
// traced operation per workload down into the layers it spent its time
// in. BENCHMARK.json at the repository root declares the workloads and
// metrics; the kernel-level BENCH_*.json trajectory written by cmd/bench
// stays as it is.
//
// Run it from the repository root through the wrapper, which builds this
// module into .bench_build/ and keeps every build and run artifact there:
//
//	bash e2ebench/run.sh --workload search-dense-asbp --seed 1 --seconds 25 --trace 0
//
// or directly from this directory with `go run . --workload ...`.
//
// # Workloads
//
// Every workload pins 2 MCMC workers or 2 ranks, never the host's core
// count: the chain depends on the worker count, so pinning keeps the work
// identical on every host.
//
//	search-dense-asbp  sbp.Run A-SBP on Table-1 S5 graphs (1,157 V / ~27k E at
//	                   the 1024 budget). The paper's headline case: the async
//	                   pass dominates (≈65% of wall), with rebuild (≈20%) and
//	                   merge (≈10%) behind it.
//	search-dense-bsbp  The same graphs and search with B-SBP (4 batches): the
//	                   blockmodel rebuild dominates instead (≈50%), so a
//	                   rebuild change shows larger here than on
//	                   search-dense-asbp and a proposal-evaluation change
//	                   smaller.
//	dsbp-hub-hybrid    dist.RunMCMCPhase D-H-SBP over 2 in-process ranks on
//	                   power-law hub graphs (4,096 V) from a seeded random
//	                   membership at C=512: the only path through dist.RunRank
//	                   and Comm, with a larger working set. Rank 0's serial V*
//	                   pass is the critical path rank 1 waits out in
//	                   allgather_vstar.
//	sbpd-stream        An in-process serve.Server on loopback: an S5 graph
//	                   (2,314 V at the 2048 budget) arrives in vertex-arrival
//	                   order, half of it in one bootstrap batch (set-up), then
//	                   200 warm batches of about 6 new vertices each, POSTed
//	                   closed-loop with wait, while an open-loop point-query
//	                   stream runs at 500/s on a second connection. The same
//	                   merge, mcmc and blockmodel layers used incrementally,
//	                   plus reads beside writes and the snapshot layer. Each
//	                   round starts a fresh server on the next input graph.
//
// --seed perturbs every generator seed: graphs, initial memberships,
// arrival order and query vertices. Seed 1 reproduces the table1-s5 and
// powerlaw-hub shapes of internal/benchmark. The searches, phases and
// streams see only the generated inputs.
//
// # Measurement
//
// A run with --trace 0 generates its inputs (set-up, repeated and timed),
// then runs one operation per input — a whole search, a distributed
// phase, or one sbpd round of 200 ingest batches — until --seconds are
// spent, with telemetry off. It prints, for every end-to-end metric, the
// median, quartiles and sample count:
//
//	result_ms    median time from submitting an operation to holding its
//	             partition: a whole search (search-*), a distributed phase
//	             (dsbp-*), one ingest batch acknowledged with wait (sbpd-*)
//	mdl_norm     normalized description length of the results (lower is better)
//	nmi          NMI of the results against the planted communities
//	setup_s      search-* and dsbp-*: generating the inputs, repeated 9
//	             times; sbpd-stream: per round, starting the server,
//	             registering the graph and applying the bootstrap batch
//	peak_rss_mb  the process's peak resident set (VmHWM)
//
// The times, result_ms and setup_s, are reported at a reference host
// speed: each measured time is scaled by a frozen reference kernel timed
// just before and just after it (hostref.go says why and how). The report
// prints them as measured as well, with the kernel's times.
//
// sbpd-stream also prints the ingest p95 and the point-query p50 and p99,
// pooled over the run's rounds, and how late the query generator ran.
//
// Operations cycle through 16 distinct inputs, so result_ms, nmi and
// mdl_norm are medians over a sample of graphs, not over repeats of one:
// the chain's sweeps-to-converge and the partition it ends in vary from
// graph to graph. The graphs are small enough that a run holds 13 to 25
// searches or phases (and about 2,500 ingest batches).
//
// A run with --trace 1 instead runs the first input untraced, then traced
// (telemetry on, an in-memory obs.CollectorSink), then at 1 worker, then
// the probes, and prints the per-layer metrics. The traced operation's wall
// is split into named layers read from outside: the records the program
// publishes (sbp.Result iterations and per-sweep records, dist.PhaseStats,
// the run/iteration/merge/mcmc/rank/sweep/comm/batch spans) and the
// benchmark's own spans around its calls (bench.rep, bench.ingest,
// bench.query, bench.probe.*). Layer to end-to-end map:
//
//	merge.phase, mcmc.async_pass, mcmc.rebuild  → result_ms on search-*
//	                                             (async most on -asbp,
//	                                             rebuild most on -bsbp)
//	mcmc.serial_pass, dist.comm, vstar wait     → result_ms on dsbp-hub-hybrid
//	stream.self, serve.overhead, snapshot.*     → result_ms on sbpd-stream
//	blockmodel.point_eval_ns, proposal_eval_ns  → result_ms on search-dense-asbp
//	blockmodel.rebuild_ms, rebuild_allocs       → result_ms on search-dense-bsbp,
//	                                             peak_rss_mb
//	runtime.alloc_mb, runtime.gc_cycles         → peak_rss_mb
//	host.ref_ms                                 (the reference kernel's time:
//	                                             how fast the host ran)
//
// The layers plus a residual row add up to the traced operation's wall.
// The traced JSONL is written to <out>/bench-trace-<workload>.jsonl and is
// checked with analyze.Check before the run reports success.
//
// # Correctness
//
// Every result is checked, and every check counts in attempted/failed:
// Blockmodel.Validate, the reported MDL against one recomputed from the
// returned membership, quality floors on nmi and mdl_norm, bit-identical
// results whenever an input runs twice (an input cycled back to, traced
// against untraced, and an sbpd round's final GET /assignment), the
// server's stats against its assignment, and a 2xx status and a well-formed
// answer on every HTTP call.
// Any failure makes the run exit 1 after printing its result line.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/benchmark"
	"repro/internal/mcmc"
)

// pinnedWorkers is the MCMC worker count and the rank count of every
// workload.
const pinnedWorkers = 2

func main() {
	if os.Getenv(refEnv) != "" {
		if err := serveRef(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "reference kernel:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload to run (one of the names in BENCHMARK.json)")
		seed    = flag.Uint64("seed", 1, "input seed: graphs, memberships, arrival order and query vertices")
		seconds = flag.Int("seconds", 25, "measurement time budget in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the timed operations")
		out     = flag.String("out", ".bench_build/out", "directory for the traced JSONL and the workloads' scratch files")
	)
	flag.Parse()
	wl, ok := workloads()[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: e2ebench --workload <%s> --seed <n> --seconds <n≥1> --trace <0|1>\n", workloadNames())
		os.Exit(2)
	}
	r := newRun(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, defaultParams(), *out)
	printIdentity(r)
	if err := wl(r); err != nil {
		r.fail("%s: %v", *name, err)
	}
	r.stopRef()
	if !r.emit(os.Stdout) {
		os.Exit(1)
	}
}

// printIdentity states what the numbers were measured on, so a result is
// never compared across host classes or seeds by accident.
func printIdentity(r *run) {
	fmt.Printf("e2ebench workload=%s seed=%d trace=%t workers=%d ranks=%d nproc=%d GOMAXPROCS=%d go=%s host=%s\n",
		r.name, r.seed, r.trace, pinnedWorkers, pinnedWorkers, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), benchmark.HostClass())
	if runtime.NumCPU() < pinnedWorkers {
		fmt.Fprintf(os.Stderr, "warning: nproc=%d < %d pinned workers: wall-clock metrics are oversubscribed and not comparable\n",
			runtime.NumCPU(), pinnedWorkers)
	}
}

// workloads maps each BENCHMARK.json workload name to its body.
func workloads() map[string]func(*run) error {
	return map[string]func(*run) error{
		"search-dense-asbp": searchWorkload(mcmc.AsyncGibbs),
		"search-dense-bsbp": searchWorkload(mcmc.BatchedGibbs),
		"dsbp-hub-hybrid":   dsbpWorkload,
		"sbpd-stream":       streamWorkload,
	}
}

func workloadNames() string {
	var names []string
	for n := range workloads() {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}
