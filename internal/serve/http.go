package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/blockmodel"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/stream"
)

// GraphStats is the JSON stats document of one graph (GET /graphs and
// GET /graphs/{name}).
type GraphStats struct {
	Name         string      `json:"name"`
	Config       GraphConfig `json:"config"`
	Vertices     int         `json:"vertices"`
	Edges        int         `json:"edges"`
	Batches      int         `json:"batches"`
	Communities  int         `json:"communities"`
	MDL          float64     `json:"mdl,omitempty"`
	FullSearches int         `json:"full_searches"`
	Escalations  int         `json:"escalations"`
	Resumes      int         `json:"resumes"`
	Pending      int         `json:"pending"`
	// PartitionAgeSeconds is the time since the partition last changed;
	// -1 before the first batch.
	PartitionAgeSeconds float64 `json:"partition_age_seconds"`
}

// stats builds the document from the current snapshot (lock-free).
func (g *graphState) stats() GraphStats {
	st := GraphStats{
		Name:                g.name,
		Config:              g.gc,
		Resumes:             g.det.Resumes(),
		Pending:             len(g.queue),
		PartitionAgeSeconds: -1,
	}
	if snap := g.det.Snapshot(); snap != nil {
		st.Vertices = snap.Vertices
		st.Edges = snap.Edges
		st.Batches = snap.Batches
		st.Communities = snap.Blocks
		st.MDL = snap.MDL
		st.FullSearches = snap.FullSearches
		st.Escalations = snap.Escalations
	}
	if last := g.lastRefresh.Load(); last > 0 {
		st.PartitionAgeSeconds = time.Since(time.Unix(0, last)).Seconds()
	}
	return st
}

// age refreshes the partition-age gauge from lastRefresh.
func (g *graphState) age() {
	if last := g.lastRefresh.Load(); last > 0 {
		g.ageGauge.Set(time.Since(time.Unix(0, last)).Seconds())
	}
}

// Handler returns the service API:
//
//	GET    /healthz                           liveness ("ok", or "draining" with 503)
//	GET    /readyz                            readiness (registry restored, all ingest workers running)
//	GET    /graphs                            stats of every graph
//	POST   /graphs/{name}                     register (JSON GraphConfig body, may be empty)
//	GET    /graphs/{name}                     stats of one graph
//	DELETE /graphs/{name}                     deregister and delete the checkpoint
//	POST   /graphs/{name}/edges               ingest an edge batch ("src dst" lines);
//	                                          ?wait=0 queues without waiting (202)
//	POST   /graphs/{name}/checkpoint          force a durable checkpoint
//	GET    /graphs/{name}/vertices/{v}        community of one vertex
//	GET    /graphs/{name}/communities/{c}     size and members of one community (?members=0 omits members)
//	GET    /graphs/{name}/assignment          full partition as "vertex community" lines
//	GET    /metrics, /debug/*                 internal/obs exposition (when a registry is attached)
//
// Errors are JSON {"error": "...", "request": "..."} with conventional
// status codes: 404 unknown graph/vertex/community, 409 already
// registered or no partition yet, 429 ingest backpressure (with a
// Retry-After header), 503 draining or not ready.
//
// Every API route is instrumented: per-route latency histograms
// (sbpd_http_request_seconds), per-route/per-code request counters
// (sbpd_http_requests_total), an in-flight gauge (sbpd_http_in_flight),
// and the correlation headers X-Sbp-Request (a per-request id, echoed
// from the client when it sends one) and X-Sbp-Trace (the process
// trace id, joining requests to the graphs' stream traces). Requests
// slower than Config.SlowRequest emit a slow_request trace event.
// /metrics and /debug are served unwrapped so scrapes don't pollute
// the SLO surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	route("GET /healthz", s.handleHealthz)
	route("GET /readyz", s.handleReadyz)
	route("GET /graphs", s.handleList)
	route("POST /graphs/{name}", s.handleRegister)
	route("GET /graphs/{name}", s.handleStats)
	route("DELETE /graphs/{name}", s.handleDeregister)
	route("POST /graphs/{name}/edges", s.handleIngest)
	route("POST /graphs/{name}/checkpoint", s.handleCheckpoint)
	route("GET /graphs/{name}/vertices/{vertex}", s.handleVertex)
	route("GET /graphs/{name}/communities/{community}", s.handleCommunity)
	route("GET /graphs/{name}/assignment", s.handleAssignment)
	if s.cfg.Obs.Metrics != nil {
		oh := obs.Handler(s.cfg.Obs.Metrics)
		mux.Handle("GET /metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Partition age is a true gauge: refresh it at scrape time
			// so a stalled stream shows a growing age, not the age at
			// its last ingest.
			s.mu.RLock()
			for _, g := range s.graphs {
				g.age()
			}
			s.mu.RUnlock()
			oh.ServeHTTP(w, r)
		}))
		mux.Handle("/debug/", oh)
	}
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case !s.Ready():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// statusWriter captures the response code for the per-route request
// counter; handlers that never call WriteHeader implicitly send 200.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// instrument wraps one route with the request-level SLO surface. The
// route label is the registration pattern, never the raw URL, so the
// metric cardinality is bounded by the route table. Request ids are
// minted per request (or echoed from the client's X-Sbp-Request) and
// ride on the response and on every error body; X-Sbp-Trace carries
// the process trace id so a request can be joined against the JSONL
// stream trace the graphs emit under the same TraceID.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	reg := s.cfg.Obs.Metrics
	route := obs.L("route", pattern)
	dur := reg.Histogram("sbpd_http_request_seconds", "request latency",
		[]float64{0.001, 0.01, 0.1, 1, 10, 60}, route)
	inFlight := reg.Gauge("sbpd_http_in_flight", "requests currently being served")
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Sbp-Request")
		if id == "" {
			id = obs.NewTraceID()
		}
		w.Header().Set("X-Sbp-Request", id)
		if trace := s.cfg.Obs.TraceID(); trace != "" {
			w.Header().Set("X-Sbp-Trace", trace)
		}
		inFlight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		inFlight.Add(-1)
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		elapsed := time.Since(start)
		dur.Observe(elapsed.Seconds())
		reg.Counter("sbpd_http_requests_total", "requests served",
			route, obs.L("code", strconv.Itoa(sw.code))).Inc()
		if elapsed >= s.cfg.SlowRequest {
			s.cfg.Obs.Event("slow_request",
				obs.F("route", pattern), obs.F("request", id),
				obs.F("code", sw.code), obs.F("dur_ns", elapsed.Nanoseconds()))
		}
	}
}

// HTTPServer wraps a handler in an http.Server with the service's
// standard robustness timeouts: slow or half-open clients cannot pin
// header-read goroutines or idle connections forever. No WriteTimeout —
// large community listings and long ingest waits stream legitimately.
func HTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the conventional JSON error body. The request id
// minted by instrument is already on the response headers; copying it
// into the body means a client that only logged the body can still
// quote the id back when reporting a failure. 429s carry Retry-After:
// backpressure is a retry-later signal, not a failure.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	body := map[string]string{"error": fmt.Sprintf(format, args...)}
	if id := w.Header().Get("X-Sbp-Request"); id != "" {
		body["request"] = id
	}
	writeJSON(w, code, body)
}

// errStatus maps service errors onto HTTP codes.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrExists):
		return http.StatusConflict
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBusy):
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	graphs := make([]*graphState, 0, len(s.graphs))
	for _, g := range s.graphs {
		graphs = append(graphs, g)
	}
	s.mu.RUnlock()
	sort.Slice(graphs, func(i, j int) bool { return graphs[i].name < graphs[j].name })
	out := make([]GraphStats, len(graphs))
	for i, g := range graphs {
		out[i] = g.stats()
	}
	writeJSON(w, http.StatusOK, map[string]any{"graphs": out})
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var gc GraphConfig
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > 0 {
		dec := json.NewDecoder(strings.NewReader(string(body)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&gc); err != nil {
			writeError(w, http.StatusBadRequest, "bad config: %v", err)
			return
		}
	}
	if err := s.Register(name, gc); err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	g, err := s.lookup(name)
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, g.stats())
}

func (s *Server) handleDeregister(w http.ResponseWriter, r *http.Request) {
	if err := s.Deregister(r.PathValue("name")); err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	g, err := s.lookup(r.PathValue("name"))
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, g.stats())
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	g, err := s.lookup(r.PathValue("name"))
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	if !s.policy.Enabled() {
		writeError(w, http.StatusConflict, "server has no data directory; checkpoints are disabled")
		return
	}
	if err := s.checkpointGraph(g); err != nil {
		writeError(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"path": s.policy.StreamPath(g.name)})
}

// ParseEdges reads "src dst" whitespace-separated pairs, one per line;
// blank lines and #-comments are skipped. Extra columns (weights) are
// ignored, matching internal/graph's edge-list reader.
func ParseEdges(r io.Reader) ([]graph.Edge, error) {
	var edges []graph.Edge
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("line %d: want 'src dst', got %q", line, text)
		}
		src, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad src %q", line, fields[0])
		}
		dst, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad dst %q", line, fields[1])
		}
		edges = append(edges, graph.Edge{Src: int32(src), Dst: int32(dst)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return edges, nil
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	g, err := s.lookup(name)
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "%v", ErrDraining)
		return
	}
	edges, err := ParseEdges(http.MaxBytesReader(w, r.Body, s.cfg.MaxBatchBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "parsing edges: %v", err)
		return
	}
	if len(edges) == 0 {
		// Empty batches are detector-level no-ops; don't burn a queue
		// slot on one.
		writeJSON(w, http.StatusOK, map[string]any{"applied": false, "edges": 0})
		return
	}
	job := &ingestJob{edges: edges, done: make(chan struct{})}
	if err := g.enqueue(job); err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	if r.URL.Query().Get("wait") == "0" {
		writeJSON(w, http.StatusAccepted, map[string]any{
			"queued": true, "edges": len(edges), "pending": len(g.queue),
		})
		return
	}
	select {
	case <-job.done:
		if job.err != nil {
			writeError(w, http.StatusBadRequest, "ingest: %v", job.err)
			return
		}
		writeJSON(w, http.StatusOK, g.stats())
	case <-r.Context().Done():
		// Client gone; the batch still applies in order. Nothing to
		// write — the connection is dead.
	}
}

func (s *Server) noteQuery(g *graphState, start time.Time) {
	g.queryDur.Observe(time.Since(start).Seconds())
	s.cfg.Obs.Metrics.Counter("sbpd_queries_total", "point queries answered",
		obs.L("graph", g.name)).Inc()
}

// snapshotOr404 loads the graph's partition snapshot, writing the
// conventional error when the graph is unknown or has no partition
// yet.
func (s *Server) snapshotOr404(w http.ResponseWriter, name string) (*graphState, *stream.Snapshot) {
	g, err := s.lookup(name)
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return nil, nil
	}
	// A degraded graph's worker panicked and its state is suspect; the
	// 503 + Retry-After tells clients to come back once a batch has
	// applied cleanly again.
	if g.degraded.Load() {
		writeError(w, http.StatusServiceUnavailable,
			"graph %q is degraded after an ingest worker panic; retry shortly", name)
		return nil, nil
	}
	snap := g.det.Snapshot()
	if snap == nil {
		writeError(w, http.StatusConflict, "graph %q has no partition yet (no batches ingested)", name)
		return nil, nil
	}
	return g, snap
}

func (s *Server) handleVertex(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	g, snap := s.snapshotOr404(w, r.PathValue("name"))
	if snap == nil {
		return
	}
	v, err := strconv.Atoi(r.PathValue("vertex"))
	if err != nil || v < 0 {
		writeError(w, http.StatusBadRequest, "bad vertex id %q", r.PathValue("vertex"))
		return
	}
	if v >= snap.Vertices {
		writeError(w, http.StatusNotFound, "vertex %d not seen (stream has %d vertices)", v, snap.Vertices)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"graph": g.name, "vertex": v,
		"community": snap.Assignment[v], "batch": snap.Batches,
	})
	s.noteQuery(g, start)
}

func (s *Server) handleCommunity(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	g, snap := s.snapshotOr404(w, r.PathValue("name"))
	if snap == nil {
		return
	}
	c, err := strconv.Atoi(r.PathValue("community"))
	if err != nil || c < 0 {
		writeError(w, http.StatusBadRequest, "bad community id %q", r.PathValue("community"))
		return
	}
	var members []int
	for v, b := range snap.Assignment {
		if int(b) == c {
			members = append(members, v)
		}
	}
	if len(members) == 0 {
		writeError(w, http.StatusNotFound, "community %d is empty or unknown", c)
		return
	}
	out := map[string]any{
		"graph": g.name, "community": c, "size": len(members), "batch": snap.Batches,
	}
	if r.URL.Query().Get("members") != "0" {
		out["members"] = members
	}
	writeJSON(w, http.StatusOK, out)
	s.noteQuery(g, start)
}

func (s *Server) handleAssignment(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	g, snap := s.snapshotOr404(w, r.PathValue("name"))
	if snap == nil {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// A failed write means the client went away: there is no one left
	// to report it to.
	_ = blockmodel.WriteAssignment(w, snap.Assignment)
	s.noteQuery(g, start)
}
