// Command experiments regenerates the tables and figures of the paper's
// evaluation section (see DESIGN.md for the experiment index).
//
// Usage:
//
//	experiments -exp all                 # every table and figure
//	experiments -exp fig4a,fig4b,fig8    # a subset
//	experiments -exp fig6 -runs 5 -scale 0.01
//
// Results print as aligned text tables; -csvdir writes each table as a
// CSV file as well. -sweeps FILE additionally dumps per-sweep
// observability records (MDL trajectory, per-worker busy times, load
// imbalance) for every engine as JSON.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/mcmc"
	"repro/internal/obs"
	"repro/internal/sample"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	cfg := harness.Default()
	var (
		exps    = flag.String("exp", "all", "comma-separated experiments: table1,table2,fig2,fig3,fig4a,fig4b,fig5,fig6,fig7,fig8,alpha,baselines,dist,all; costfit (re-fits the cost model's weights at one worker) runs only when named")
		csvdir  = flag.String("csvdir", "", "also write each table as CSV into this directory")
		sweeps  = flag.String("sweeps", "", "write per-sweep observability records for every engine as JSON to this file")
		scale   = flag.Float64("scale", cfg.Scale, "synthetic graph scale (1 = published sizes)")
		rscale  = flag.Float64("realscale", cfg.RealScale, "real-world stand-in scale")
		runs    = flag.Int("runs", cfg.Runs, "runs per (graph, algorithm); best MDL kept (paper: 5)")
		threads = flag.Int("threads", cfg.Threads, "thread count for modelled speedups (paper: 128)")
		seed    = flag.Uint64("seed", cfg.Seed, "random seed")
		obsAddr = flag.String("obs", "", "serve live telemetry while the suite runs: Prometheus /metrics, /debug/vars, /debug/pprof")

		sampleFraction = flag.Float64("sample-fraction", 0, "run every search through the SamBaS pipeline at this vertex fraction (0 = full-graph searches)")
		sampleKind     = flag.String("sample-kind", "degree", "sampler for -sample-fraction: vertex, degree or edge")
		sampleSeed     = flag.Uint64("sample-seed", 1, "seed of the sampler's random stream")
	)
	flag.Parse()
	cfg.Scale, cfg.RealScale, cfg.Runs, cfg.Threads, cfg.Seed = *scale, *rscale, *runs, *threads, *seed
	if *sampleFraction != 0 {
		kind, err := sample.ParseKind(*sampleKind)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Sample = sample.Options{Kind: kind, Fraction: *sampleFraction, Seed: *sampleSeed}
		if err := cfg.Sample.Validate(); err != nil {
			log.Fatal(err)
		}
	}

	// SIGINT/SIGTERM stops the suite: running searches wind down at the
	// next sweep boundary, remaining experiments are skipped, and the
	// tables finished so far still flush to -csvdir. A second signal
	// exits immediately.
	ctx := signalContext()
	cfg.Ctx = ctx

	if *obsAddr != "" {
		reg := obs.NewRegistry()
		cfg.Obs.Metrics = reg
		_, bound, err := obs.Serve(*obsAddr, reg)
		if err != nil {
			log.Fatalf("telemetry server: %v", err)
		}
		log.Printf("telemetry listening on http://%s/metrics", bound)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := want["all"]
	need := func(names ...string) bool {
		if ctx.Err() != nil {
			return false // interrupted: skip the experiments not yet started
		}
		if all {
			return true
		}
		for _, n := range names {
			if want[n] {
				return true
			}
		}
		return false
	}

	var tables []*harness.Table
	emit := func(t *harness.Table, err error) {
		if err != nil {
			log.Fatal(err)
		}
		if err := t.Fprint(os.Stdout); err != nil {
			log.Fatal(err)
		}
		tables = append(tables, t)
	}

	start := time.Now()
	if need("table1") {
		emit(cfg.Table1())
	}
	if need("table2") {
		emit(cfg.Table2())
	}
	if need("fig2") {
		emit(cfg.Fig2(nil))
	}
	if need("fig3") {
		points, summary, err := cfg.Fig3()
		if err != nil {
			log.Fatal(err)
		}
		emit(points, nil)
		emit(summary, nil)
	}
	if need("fig4a", "fig4b", "fig8", "fig8a") {
		outcomes, err := cfg.SyntheticOutcomes()
		if err != nil {
			log.Fatal(err)
		}
		if need("fig4a") {
			emit(cfg.Fig4a(outcomes), nil)
		}
		if need("fig4b") {
			emit(cfg.Fig4b(outcomes), nil)
		}
		if need("fig8", "fig8a") {
			emit(cfg.Fig8a(outcomes), nil)
		}
	}
	if need("fig5", "fig6", "fig8", "fig8b") {
		outcomes, order, err := cfg.RealWorldOutcomes()
		if err != nil {
			log.Fatal(err)
		}
		if need("fig5") {
			emit(cfg.Fig5(outcomes, order), nil)
		}
		if need("fig6") {
			emit(cfg.Fig6(outcomes, order), nil)
		}
		if need("fig8", "fig8b") {
			emit(cfg.Fig8b(outcomes, order), nil)
		}
	}
	if need("fig7") {
		emit(cfg.Fig7())
	}
	if need("alpha") {
		emit(cfg.FigAlpha())
	}
	if need("baselines") {
		emit(cfg.FigBaselines())
	}
	if need("dist", "distributed") {
		emit(cfg.FigDistributed())
	}
	if want["costfit"] && ctx.Err() == nil {
		emit(cfg.CostFit())
	}
	if *sweeps != "" && ctx.Err() == nil {
		traces, err := cfg.SweepTraces()
		if err != nil {
			log.Fatal(err)
		}
		buf, err := json.MarshalIndent(traces, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*sweeps, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote per-sweep traces for %d engine runs to %s\n", len(traces), *sweeps)
	}

	if *csvdir != "" {
		if err := os.MkdirAll(*csvdir, 0o755); err != nil {
			log.Fatal(err)
		}
		for _, t := range tables {
			name := slug(t.Title) + ".csv"
			f, err := os.Create(filepath.Join(*csvdir, name))
			if err != nil {
				log.Fatal(err)
			}
			if err := t.WriteCSV(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("wrote %d CSV files to %s\n", len(tables), *csvdir)
	}
	if ctx.Err() != nil {
		log.Printf("interrupted after %v: %d table(s) finished before the signal were kept",
			time.Since(start).Round(time.Second), len(tables))
		os.Exit(1)
	}
	fmt.Printf("done in %v (algorithms: %v)\n", time.Since(start).Round(time.Second),
		[]mcmc.Algorithm{mcmc.SerialMH, mcmc.Hybrid, mcmc.AsyncGibbs})
}

// signalContext returns a context cancelled by the first SIGINT or
// SIGTERM; a second signal exits the process immediately.
func signalContext() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("signal received: finishing the current sweep, flushing partial results (send again to exit immediately)")
		cancel()
		<-sig
		log.Printf("second signal: exiting immediately")
		os.Exit(1)
	}()
	return ctx
}

func slug(title string) string {
	s := strings.ToLower(title)
	if i := strings.IndexByte(s, ':'); i > 0 {
		s = s[:i]
	}
	return strings.ReplaceAll(strings.TrimSpace(s), " ", "_")
}
