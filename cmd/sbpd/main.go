// Command sbpd is the long-running community-detection service: a
// daemon owning a registry of named streaming graphs, ingesting edge
// batches over HTTP and answering membership queries at interactive
// latency while refinement runs in the background.
//
//	sbpd -addr localhost:8080 -data /var/lib/sbpd
//
// Register a graph, stream batches into it, query it:
//
//	curl -X POST localhost:8080/graphs/web -d '{"algorithm":"hsbp","seed":7}'
//	curl -X POST localhost:8080/graphs/web/edges --data-binary @batch1.tsv
//	curl localhost:8080/graphs/web/vertices/42
//
// SIGTERM drains the ingest queues, checkpoints every graph into
// -data and exits; restarting with -resume rebuilds the registry
// bit-identically from those checkpoints. A second signal exits
// immediately.
//
// The -offline mode replays batch files through the same detector
// configuration without any HTTP in between and prints the final
// assignment — the ground truth that the daemon's answers must equal:
//
//	sbpd -offline -graph-config graph.json batch1.tsv batch2.tsv
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/blockmodel"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sbpd: ")

	var (
		addr         = flag.String("addr", "localhost:8080", "HTTP listen address of the service API")
		dataDir      = flag.String("data", "", "checkpoint directory; empty disables durability")
		resume       = flag.Bool("resume", false, "rebuild the graph registry from the checkpoints in -data before serving")
		obsAddr      = flag.String("obs", "", "serve telemetry on a separate address (default: /metrics and /debug on -addr)")
		tracePath    = flag.String("trace", "", "write structured JSONL trace events (per-graph batch/refinement spans, slow requests) to this file")
		slowReq      = flag.Duration("slow-request", 0, "latency above which a request emits a slow_request trace event (0 = default 1s)")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "bound on queue drain + in-flight requests at shutdown")
		queueDepth   = flag.Int("queue-depth", 0, "per-graph pending ingest batches before 429 (0 = default 64)")
		maxBatch     = flag.Int64("max-batch-bytes", 0, "largest accepted ingest request body (0 = default 256 MiB)")

		offline     = flag.Bool("offline", false, "replay batch files through one detector and print the assignment; no server")
		graphConfig = flag.String("graph-config", "", "JSON GraphConfig file for -offline (empty = defaults)")
	)
	flag.Parse()

	if *offline {
		if err := runOffline(*graphConfig, flag.Args()); err != nil {
			log.Fatal(err)
		}
		return
	}
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments %q (batch files are only for -offline)", flag.Args())
	}

	reg := obs.NewRegistry()
	telemetry := obs.Obs{Metrics: reg}
	var traceSink *obs.FileSink
	if *tracePath != "" {
		sink, err := obs.NewFileSink(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		traceSink = sink
		telemetry.Tracer = obs.NewTracer(sink)
		log.Printf("tracing to %s (trace %s)", *tracePath, telemetry.TraceID())
	}
	srv, err := serve.New(serve.Config{
		DataDir:       *dataDir,
		Resume:        *resume,
		Obs:           telemetry,
		QueueDepth:    *queueDepth,
		MaxBatchBytes: *maxBatch,
		SlowRequest:   *slowReq,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *resume {
		for _, name := range srv.Names() {
			log.Printf("resumed graph %q", name)
		}
	}

	var obsSrv *obs.Server
	if *obsAddr != "" {
		var bound string
		obsSrv, bound, err = obs.Serve(*obsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("telemetry on http://%s/metrics", bound)
		if traceSink != nil {
			obsSrv.FlushOnShutdown(traceSink)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	api := serve.HTTPServer(srv.Handler())
	log.Printf("serving on http://%s (data dir %q, resume %v)", ln.Addr(), *dataDir, *resume)

	errCh := make(chan error, 1)
	go func() { errCh <- api.Serve(ln) }()

	// First signal: stop accepting requests, drain the ingest queues,
	// checkpoint, exit cleanly. Second signal: exit immediately.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("%v: draining (send again to exit immediately)", sig)
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	}
	go func() {
		<-sigCh
		log.Print("second signal: exiting immediately")
		os.Exit(1)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := api.Shutdown(ctx); err != nil {
		log.Printf("api shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	if obsSrv != nil {
		if err := obsSrv.Shutdown(ctx); err != nil {
			log.Printf("obs shutdown: %v", err)
		}
	}
	if traceSink != nil {
		// The SIGTERM drain ends here on every graceful path; Close
		// flushes and syncs so the trace stream is complete on disk.
		if err := traceSink.Close(); err != nil {
			log.Printf("trace sink: %v", err)
		}
	}
	if *dataDir != "" {
		log.Printf("checkpointed %d graph(s) into %s", len(srv.Names()), *dataDir)
	}
}

// runOffline replays edge-batch files through a single stream.Detector
// built from the same GraphConfig→stream.Config mapping the daemon
// uses, then prints "vertex community" lines. Because the mapping, the
// seed tree and the batch order are identical, its output is the
// bit-exact reference for what the daemon must answer after ingesting
// the same files in the same order.
func runOffline(configPath string, batchFiles []string) error {
	var gc serve.GraphConfig
	if configPath != "" {
		raw, err := os.ReadFile(configPath)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &gc); err != nil {
			return fmt.Errorf("parsing %s: %w", configPath, err)
		}
	}
	cfg, err := gc.StreamConfig()
	if err != nil {
		return err
	}
	if len(batchFiles) == 0 {
		return fmt.Errorf("offline mode needs at least one batch file argument")
	}
	det := stream.NewDetector(cfg)
	for _, path := range batchFiles {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		edges, err := serve.ParseEdges(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := det.Ingest(edges); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	snap := det.Snapshot()
	if snap == nil {
		return stream.ErrEmpty
	}
	log.Printf("replayed %d batches: %d vertices, %d edges, %d communities, MDL %.4f",
		snap.Batches, snap.Vertices, snap.Edges, snap.Blocks, snap.MDL)
	return blockmodel.WriteAssignment(os.Stdout, snap.Assignment)
}
