// Package serve implements the long-running community-detection
// service behind cmd/sbpd: a registry of named streaming graphs, each
// owned by one stream.Detector with a dedicated ingest worker, plus an
// HTTP API for registration, batch ingest and point queries.
//
// The concurrency contract is the one the ROADMAP's service item asks
// for:
//
//   - Ingest is serialized per graph (a single worker goroutine drains
//     a bounded queue) and concurrent across graphs.
//   - Queries never touch the solver and never block on ingest: they
//     read the detector's atomically swapped immutable Snapshot, so a
//     million point lookups cost a million atomic loads and array
//     reads, not a single lock acquisition against the MCMC phase.
//   - Durability comes from internal/snapshot: every graph checkpoints
//     on a per-graph batch policy and once more during Shutdown, and a
//     server started with Resume rebuilds its whole registry from the
//     checkpoint directory, bit-identically.
//   - Ops comes from internal/obs: per-graph ingest/query counters,
//     latency histograms and a partition-age gauge on the same
//     /metrics endpoint every other tool in this repo exposes.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/mcmc"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// Service errors surfaced to HTTP handlers (and to embedding tests).
var (
	// ErrExists reports a registration under a name already in use.
	ErrExists = errors.New("serve: graph already registered")
	// ErrNotFound reports an operation on an unregistered graph.
	ErrNotFound = errors.New("serve: graph not registered")
	// ErrDraining reports writes arriving after Shutdown began.
	ErrDraining = errors.New("serve: server is draining")
	// ErrBusy reports an ingest queue at capacity — backpressure, not
	// failure; the client retries.
	ErrBusy = errors.New("serve: ingest queue full")
)

// nameRE bounds registration names so they embed safely in checkpoint
// filenames and URL paths.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// GraphConfig is the JSON registration document of one graph. The zero
// value is a valid default configuration (H-SBP refinement, seed 1, no
// periodic full search, no sampling, checkpoint only at shutdown).
type GraphConfig struct {
	// Algorithm is the refinement engine: sbp, asbp, hsbp or bsbp
	// (default hsbp).
	Algorithm string `json:"algorithm,omitempty"`

	// Seed drives the graph's deterministic RNG tree (default 1).
	Seed uint64 `json:"seed,omitempty"`

	// Workers is the parallel width of refinement (0 = GOMAXPROCS).
	// Randomness is keyed by vertex and block, not by worker, so the
	// width never changes the results.
	Workers int `json:"workers,omitempty"`

	// MaxSweeps bounds each refinement phase (0 = the streaming
	// default, 30).
	MaxSweeps int `json:"max_sweeps,omitempty"`

	// FullSearchPeriod forces a from-scratch search every k-th batch
	// (0 = never).
	FullSearchPeriod int `json:"full_search_period,omitempty"`

	// CheckpointEvery checkpoints the graph after every N applied
	// batches (0 = only at shutdown / explicit request). Ignored when
	// the server has no data directory.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`

	// SampleFraction opts full searches into the SamBaS pipeline at
	// this sampled-vertex fraction (0 = full-graph search). The fast
	// path for large first-time loads.
	SampleFraction float64 `json:"sample_fraction,omitempty"`

	// SampleKind is the sampler: vertex, degree or edge (default
	// degree). Ignored unless SampleFraction > 0.
	SampleKind string `json:"sample_kind,omitempty"`

	// SampleSeed seeds the sampler's private stream (default 1).
	SampleSeed uint64 `json:"sample_seed,omitempty"`

	// SampleMinVertices skips sampling below this graph size (0 = the
	// stream package's built-in floor).
	SampleMinVertices int `json:"sample_min_vertices,omitempty"`
}

// StreamConfig maps the registration document onto a stream.Config.
// cmd/sbpd's offline replay mode uses the same mapping, which is what
// makes "the daemon's answers are bit-identical to an offline
// stream.Detector run" checkable by construction.
func (gc GraphConfig) StreamConfig() (stream.Config, error) {
	cfg := stream.DefaultConfig()
	switch gc.Algorithm {
	case "", "hsbp", "h-sbp":
		cfg.Algorithm = mcmc.Hybrid
	case "sbp":
		cfg.Algorithm = mcmc.SerialMH
	case "asbp", "a-sbp":
		cfg.Algorithm = mcmc.AsyncGibbs
	case "bsbp", "b-sbp":
		cfg.Algorithm = mcmc.BatchedGibbs
	default:
		return cfg, fmt.Errorf("serve: unknown algorithm %q (want sbp, asbp, hsbp or bsbp)", gc.Algorithm)
	}
	if gc.Seed != 0 {
		cfg.Seed = gc.Seed
	}
	if gc.Workers < 0 {
		return cfg, fmt.Errorf("serve: negative worker count %d", gc.Workers)
	}
	cfg.MCMC.Workers = gc.Workers
	cfg.Merge.Workers = gc.Workers
	if gc.MaxSweeps < 0 {
		return cfg, fmt.Errorf("serve: negative max_sweeps %d", gc.MaxSweeps)
	}
	if gc.MaxSweeps > 0 {
		cfg.MCMC.MaxSweeps = gc.MaxSweeps
	}
	if gc.FullSearchPeriod < 0 {
		return cfg, fmt.Errorf("serve: negative full_search_period %d", gc.FullSearchPeriod)
	}
	cfg.FullSearchPeriod = gc.FullSearchPeriod
	if gc.CheckpointEvery < 0 {
		return cfg, fmt.Errorf("serve: negative checkpoint_every %d", gc.CheckpointEvery)
	}
	if gc.SampleFraction != 0 {
		kind := sample.DegreeWeighted
		if gc.SampleKind != "" {
			var err error
			kind, err = sample.ParseKind(gc.SampleKind)
			if err != nil {
				return cfg, err
			}
		}
		seed := gc.SampleSeed
		if seed == 0 {
			seed = 1
		}
		cfg.Sample = sample.Options{Kind: kind, Fraction: gc.SampleFraction, Seed: seed}
		if err := cfg.Sample.Validate(); err != nil {
			return cfg, err
		}
		cfg.SampleMinVertices = gc.SampleMinVertices
	}
	return cfg, nil
}

// Config configures a Server.
type Config struct {
	// DataDir is the checkpoint directory; empty disables durability
	// (no checkpoints are written, Resume finds nothing).
	DataDir string

	// Resume rebuilds the registry from every loadable stream
	// checkpoint in DataDir before serving.
	Resume bool

	// Obs carries the metrics registry the per-graph instruments live
	// in. The zero value disables all instrumentation.
	Obs obs.Obs

	// QueueDepth bounds each graph's pending ingest queue (<= 0 means
	// 64). A full queue rejects with ErrBusy — backpressure instead of
	// unbounded memory.
	QueueDepth int

	// MaxBatchBytes bounds one ingest request body (<= 0 means 256 MiB).
	MaxBatchBytes int64

	// SlowRequest is the request-latency threshold above which the
	// instrumented HTTP surface emits a slow_request trace event
	// (<= 0 means 1s).
	SlowRequest time.Duration
}

// ingestJob is one queued edge batch. done is closed once the batch is
// applied (or rejected) and err holds the outcome.
type ingestJob struct {
	edges []graph.Edge
	done  chan struct{}
	err   error
}

// graphState is one registered graph: its detector, its ingest queue
// and its instruments. The worker goroutine is the only caller of
// det.Ingest, which serializes refinement per graph by construction.
type graphState struct {
	name string
	gc   GraphConfig
	det  *stream.Detector

	// ingest applies one batch — normally det.Ingest. It is a seam for
	// panic-containment tests, which swap in a panicking batch without
	// needing a way to poison a real detector. Written before the first
	// enqueue; the queue send orders it before the worker's read.
	ingest func(edges []graph.Edge) error

	// qmu guards queue/closed so enqueue never races queue close.
	qmu     sync.Mutex
	queue   chan *ingestJob
	closed  bool
	started chan struct{} // closed once the ingest worker is running (readiness)
	done    chan struct{} // closed when the worker has drained and exited

	// span is the graph's root trace span: every batch the detector
	// applies traces under it. Opened at registration/resume, ended
	// when the worker exits.
	span *obs.Span

	// lastRefresh is the unixnano instant the partition last changed
	// (applied batch or restore); feeds the partition-age gauge.
	lastRefresh atomic.Int64

	// degraded is set when the ingest worker panicked: the detector's
	// internal state is suspect, so queries 503 (with Retry-After)
	// until a batch applies cleanly again. The worker itself restarts
	// with backoff — one poisoned batch must not take the graph down.
	degraded atomic.Bool

	// sinceCkpt counts applied batches since the last checkpoint.
	// Worker-goroutine only.
	sinceCkpt int

	ingestBatches  *obs.Counter
	ingestEdges    *obs.Counter
	ingestErrors   *obs.Counter
	ingestRej      *obs.Counter
	workerRestarts *obs.Counter
	ingestDur      *obs.Histogram
	queryDur       *obs.Histogram
	queueGauge     *obs.Gauge
	ageGauge       *obs.Gauge
	vertGauge      *obs.Gauge
	edgeGauge      *obs.Gauge
	commGauge      *obs.Gauge
	mdlGauge       *obs.Gauge
}

// Server owns the graph registry. Create with New, expose with
// Handler, stop with Shutdown.
type Server struct {
	cfg    Config
	policy snapshot.Policy

	mu       sync.RWMutex
	graphs   map[string]*graphState
	draining atomic.Bool

	graphsGauge *obs.Gauge
}

// New builds a server, resuming every checkpointed graph from
// cfg.DataDir when cfg.Resume is set. A damaged checkpoint fails
// startup loudly — a service silently dropping a graph's history is
// worse than one that refuses to start.
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxBatchBytes <= 0 {
		cfg.MaxBatchBytes = 256 << 20
	}
	if cfg.SlowRequest <= 0 {
		cfg.SlowRequest = time.Second
	}
	s := &Server{
		cfg:         cfg,
		policy:      snapshot.Policy{Dir: cfg.DataDir, Obs: cfg.Obs},
		graphs:      map[string]*graphState{},
		graphsGauge: cfg.Obs.Metrics.Gauge("sbpd_graphs", "registered graphs"),
	}
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: data dir: %w", err)
		}
	}
	if cfg.Resume && cfg.DataDir != "" {
		for _, name := range s.policy.StreamNames() {
			st, err := s.policy.LoadStream(name)
			if err != nil {
				return nil, fmt.Errorf("serve: resume %q: %w", name, err)
			}
			det, err := stream.Restore(st)
			if err != nil {
				return nil, fmt.Errorf("serve: resume %q: %w", name, err)
			}
			var gc GraphConfig
			if len(st.Meta) > 0 {
				if err := json.Unmarshal(st.Meta, &gc); err != nil {
					return nil, fmt.Errorf("serve: resume %q: bad metadata: %w", name, err)
				}
			}
			g := s.newGraphState(name, gc, det)
			if det.Snapshot() != nil {
				g.lastRefresh.Store(time.Now().UnixNano())
			}
			s.graphs[name] = g
			s.policy.NoteResume()
			go s.runWorker(g)
		}
		s.graphsGauge.Set(float64(len(s.graphs)))
	}
	return s, nil
}

// newGraphState wires one graph's queue and instruments.
func (s *Server) newGraphState(name string, gc GraphConfig, det *stream.Detector) *graphState {
	reg := s.cfg.Obs.Metrics
	lbl := obs.L("graph", name)
	g := &graphState{
		name:    name,
		gc:      gc,
		det:     det,
		queue:   make(chan *ingestJob, s.cfg.QueueDepth),
		started: make(chan struct{}),
		done:    make(chan struct{}),

		ingestBatches:  reg.Counter("sbpd_ingest_batches_total", "edge batches applied", lbl),
		ingestEdges:    reg.Counter("sbpd_ingest_edges_total", "edges applied", lbl),
		ingestErrors:   reg.Counter("sbpd_ingest_errors_total", "edge batches rejected by the detector", lbl),
		ingestRej:      reg.Counter("sbpd_ingest_rejected_total", "edge batches rejected for backpressure (429)", lbl),
		workerRestarts: reg.Counter("sbpd_worker_restarts_total", "ingest worker restarts after a panic", lbl),
		ingestDur: reg.Histogram("sbpd_ingest_seconds", "batch ingest+refinement latency",
			[]float64{0.001, 0.01, 0.1, 1, 10, 60, 600}, lbl),
		queryDur: reg.Histogram("sbpd_query_seconds", "point query latency",
			[]float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}, lbl),
		queueGauge: reg.Gauge("sbpd_ingest_queue_depth", "pending ingest batches", lbl),
		ageGauge:   reg.Gauge("sbpd_partition_age_seconds", "seconds since the partition was last refreshed", lbl),
		vertGauge:  reg.Gauge("sbpd_vertices", "vertices seen", lbl),
		edgeGauge:  reg.Gauge("sbpd_edges", "edges ingested", lbl),
		commGauge:  reg.Gauge("sbpd_communities", "non-empty communities", lbl),
		mdlGauge:   reg.Gauge("sbpd_mdl", "description length of the fitted model", lbl),
	}
	g.ingest = det.Ingest
	// One root span per graph ties every batch the detector applies
	// into the process trace; requests correlate via X-Sbp-Trace.
	g.span = s.cfg.Obs.StartSpan("graph", obs.F("graph", name))
	det.AttachObs(s.cfg.Obs.WithSpan(g.span))
	g.refreshGauges()
	return g
}

// refreshGauges republishes the partition-derived gauges from the
// current snapshot.
func (g *graphState) refreshGauges() {
	snap := g.det.Snapshot()
	if snap == nil {
		return
	}
	g.vertGauge.Set(float64(snap.Vertices))
	g.edgeGauge.Set(float64(snap.Edges))
	g.commGauge.Set(float64(snap.Blocks))
	g.mdlGauge.Set(snap.MDL)
}

// Register creates a named graph. The registration is checkpointed
// immediately (when durability is on), so a restart with Resume knows
// the graph even if no batch ever arrived.
func (s *Server) Register(name string, gc GraphConfig) error {
	if s.draining.Load() {
		return ErrDraining
	}
	if !nameRE.MatchString(name) {
		return fmt.Errorf("serve: invalid graph name %q (want %s)", name, nameRE)
	}
	cfg, err := gc.StreamConfig()
	if err != nil {
		return err
	}
	g := s.newGraphState(name, gc, stream.NewDetector(cfg))

	s.mu.Lock()
	if _, ok := s.graphs[name]; ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	s.graphs[name] = g
	s.graphsGauge.Set(float64(len(s.graphs)))
	s.mu.Unlock()

	go s.runWorker(g)
	if err := s.checkpointGraph(g); err != nil {
		// The graph is live; durability of the empty registration is
		// best-effort. Later checkpoints will retry.
		return nil
	}
	return nil
}

// Deregister stops a graph's worker, removes it from the registry and
// deletes its checkpoint.
func (s *Server) Deregister(name string) error {
	s.mu.Lock()
	g, ok := s.graphs[name]
	if ok {
		delete(s.graphs, name)
		s.graphsGauge.Set(float64(len(s.graphs)))
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	g.closeQueue()
	<-g.done
	return s.policy.RemoveStream(name)
}

// lookup returns the named graph state.
func (s *Server) lookup(name string) (*graphState, error) {
	s.mu.RLock()
	g, ok := s.graphs[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return g, nil
}

// Names returns the registered graph names, sorted by the caller if
// order matters.
func (s *Server) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.graphs))
	for name := range s.graphs {
		names = append(names, name)
	}
	return names
}

// enqueue submits one batch to the graph's worker, honoring drain and
// backpressure.
func (g *graphState) enqueue(job *ingestJob) error {
	g.qmu.Lock()
	defer g.qmu.Unlock()
	if g.closed {
		return ErrDraining
	}
	select {
	case g.queue <- job:
		g.queueGauge.Set(float64(len(g.queue)))
		return nil
	default:
		g.ingestRej.Inc()
		return ErrBusy
	}
}

// closeQueue stops accepting new batches; the worker drains what is
// already queued and exits. Idempotent.
func (g *graphState) closeQueue() {
	g.qmu.Lock()
	defer g.qmu.Unlock()
	if !g.closed {
		g.closed = true
		close(g.queue)
	}
}

// Ingest submits a batch to the named graph and, when wait is set,
// blocks until it has been applied (or ctx is done; the batch still
// applies). This is the programmatic path behind POST /edges.
func (s *Server) Ingest(ctx context.Context, name string, edges []graph.Edge, wait bool) error {
	if s.draining.Load() {
		return ErrDraining
	}
	g, err := s.lookup(name)
	if err != nil {
		return err
	}
	if len(edges) == 0 {
		return nil // detector-level no-op; skip the queue entirely
	}
	job := &ingestJob{edges: edges, done: make(chan struct{})}
	if err := g.enqueue(job); err != nil {
		return err
	}
	if !wait {
		return nil
	}
	select {
	case <-job.done:
		return job.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Worker restart backoff after a panic: long enough to keep a
// poison-batch loop from spinning, short enough that a one-off recovers
// fast.
const (
	workerRestartBase = 50 * time.Millisecond
	workerRestartMax  = 5 * time.Second
)

// runWorker is the single consumer of one graph's ingest queue. A
// panic escaping the detector is contained to the batch that caused
// it: the graph is marked degraded (queries 503 until a batch applies
// cleanly again) and the worker restarts with exponential backoff —
// one poisoned batch must not take the whole graph, let alone the
// process, down.
func (s *Server) runWorker(g *graphState) {
	defer func() {
		g.span.End(obs.F("graph", g.name))
		close(g.done)
	}()
	close(g.started)
	backoff := workerRestartBase
	for {
		if !s.drainLoop(g) {
			return // queue closed and fully drained
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > workerRestartMax {
			backoff = workerRestartMax
		}
	}
}

// drainLoop consumes the queue until it is closed (false) or a batch
// panics the detector (true). The panicked batch's waiter is always
// released with an error — close(job.done) is the last statement of
// the loop body, so the recover path can never double-close it. The
// graph is marked degraded and the restart counted before the waiter
// is released, so a caller that saw the contained error never queries
// the suspect snapshot.
func (s *Server) drainLoop(g *graphState) (panicked bool) {
	var job *ingestJob
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			g.degraded.Store(true)
			g.workerRestarts.Inc()
			if job != nil {
				job.err = fmt.Errorf("serve: ingest worker panic: %v", r)
				g.ingestErrors.Inc()
				close(job.done)
			}
		}
	}()
	for job = range g.queue {
		g.queueGauge.Set(float64(len(g.queue)))
		start := time.Now()
		err := g.ingest(job.edges)
		g.ingestDur.Observe(time.Since(start).Seconds())
		if err != nil {
			g.ingestErrors.Inc()
		} else {
			g.ingestBatches.Inc()
			g.ingestEdges.Add(int64(len(job.edges)))
			g.lastRefresh.Store(time.Now().UnixNano())
			g.refreshGauges()
			g.degraded.Store(false) // a clean apply republishes a trusted snapshot
			if g.gc.CheckpointEvery > 0 && s.policy.Enabled() {
				g.sinceCkpt++
				if g.sinceCkpt >= g.gc.CheckpointEvery {
					if s.checkpointGraph(g) == nil {
						g.sinceCkpt = 0
					}
				}
			}
		}
		job.err = err
		close(job.done)
	}
	return false
}

// checkpointGraph durably writes one graph's current state (no-op
// without a data dir). The registration document rides along as
// snapshot metadata so Resume can rebuild the registry entry.
func (s *Server) checkpointGraph(g *graphState) error {
	if !s.policy.Enabled() {
		return nil
	}
	meta, err := json.Marshal(g.gc)
	if err != nil {
		return err
	}
	st, err := g.det.Checkpoint(meta)
	if err != nil {
		return err
	}
	return s.policy.WriteStream(g.name, st)
}

// Ready reports whether the service can take traffic: Shutdown has
// not begun, the registry is restored, and every registered graph's
// ingest worker is running. GET /readyz is this predicate over HTTP —
// load balancers gate on it while a resumed registry is still
// spinning up its workers.
func (s *Server) Ready() bool {
	if s.draining.Load() {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, g := range s.graphs {
		select {
		case <-g.started:
		default:
			return false
		}
	}
	return true
}

// Shutdown drains the service: new writes are rejected with
// ErrDraining, every queued batch is applied, and every graph is
// checkpointed once more. In-flight HTTP queries are the HTTP server's
// concern (http.Server.Shutdown); this drains the solver side. Safe to
// call more than once; ctx bounds the wait for queue drain.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.mu.RLock()
	graphs := make([]*graphState, 0, len(s.graphs))
	for _, g := range s.graphs {
		graphs = append(graphs, g)
	}
	s.mu.RUnlock()

	for _, g := range graphs {
		g.closeQueue()
	}
	for _, g := range graphs {
		select {
		case <-g.done:
		case <-ctx.Done():
			return fmt.Errorf("serve: drain of %q: %w", g.name, ctx.Err())
		}
	}
	var firstErr error
	for _, g := range graphs {
		if err := s.checkpointGraph(g); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
