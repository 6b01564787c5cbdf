package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/blockmodel"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
)

// streamFloor: the incremental refinement keeps the planted structure
// almost exactly (NMI ≈ 0.99) once the bootstrap search found it.
var streamFloor = floor{nmi: 0.8, mdlNorm: 0.95}

// querySlowMS is the point-query latency, from due time, above which a
// query counts as slow in serve.query_slow_frac; loadgen.late_frac counts
// queries the generator sent later than that after their due time.
const querySlowMS = 1.0

// streamInput is the S5 graph as an arrival-ordered edge stream: vertex
// ids are arrival positions, and an edge arrives with its later endpoint.
type streamInput struct {
	g         *graph.Graph // the whole stream, for validating the final partition
	truth     []int32
	bootstrap []byte   // every edge among the first half of the vertices
	batches   [][]byte // the warm batches, in order; never empty
}

// genStreamInput realizes input i: an S5 graph (as s5Graph) in a seeded
// arrival order.
func genStreamInput(seed uint64, i int, p params) (*streamInput, error) {
	g0, truth0, err := s5Graph(p.StreamBudget, seed, i)
	if err != nil {
		return nil, err
	}
	n := g0.NumVertices()
	id := make([]int32, n)
	for k, v := range rng.New(inputSeed(0xA771_BE55, seed, i)).Perm(n) {
		id[v] = int32(k)
	}
	half := n / 2
	bodies := make([]bytes.Buffer, p.Batches+1)
	edges := make([]graph.Edge, 0, g0.NumEdges())
	seen := 0 // vertices the server will know: max endpoint + 1
	for _, e := range g0.Edges() {
		u, w := id[e.Src], id[e.Dst]
		last := int(max(u, w))
		b := 0
		if last >= half {
			b = 1 + (last-half)*p.Batches/(n-half)
		}
		fmt.Fprintf(&bodies[b], "%d %d\n", u, w)
		edges = append(edges, graph.Edge{Src: u, Dst: w})
		seen = max(seen, last+1)
	}
	in := &streamInput{truth: make([]int32, seen), bootstrap: bodies[0].Bytes()}
	for v, t := range truth0 {
		if int(id[v]) < seen {
			in.truth[id[v]] = t
		}
	}
	for _, b := range bodies[1:] {
		if b.Len() > 0 {
			in.batches = append(in.batches, b.Bytes())
		}
	}
	if in.g, err = graph.New(seen, edges); err != nil {
		return nil, err
	}
	if len(in.bootstrap) == 0 || len(in.batches) == 0 {
		return nil, fmt.Errorf("stream of %d vertices leaves no bootstrap or warm batch", n)
	}
	return in, nil
}

// streamWorkload is sbpd-stream: rounds of a fresh server fed one whole
// stream each, a different input per round. A round's set-up is starting
// the server, registering the graph and applying the bootstrap batch (a
// full search); its operations are the warm batches. The partition a
// stream ends in varies from graph to graph, so nmi and mdl_norm are
// medians over the rounds' graphs.
func streamWorkload(r *run) error {
	t0 := time.Now()
	ins := make([]*streamInput, r.p.Inputs)
	for i := range ins {
		var err error
		if ins[i], err = genStreamInput(r.seed, i, r.p); err != nil {
			return err
		}
	}
	r.note("%d inputs generated in %.3f s: %d vertices, %d edges, %d warm batches (input 0)", len(ins),
		time.Since(t0).Seconds(), ins[0].g.NumVertices(), ins[0].g.NumEdges(), len(ins[0].batches))
	if r.trace {
		return traceStream(r, ins[0])
	}
	first := map[int]fingerprint{}
	var ingest, query, late []float64
	var rounds []float64
	for k := 0; k < max(r.p.MinOps, 2) || r.timeLeft(time.Duration(median(rounds))); k++ {
		i := k % len(ins)
		r.calibrate()
		t0 := time.Now()
		st, err := r.streamRound(ins[i], pinnedWorkers, nil)
		if !r.op(err, "sbpd round") {
			if len(rounds) == 0 {
				break
			}
			continue
		}
		rounds = append(rounds, float64(time.Since(t0)))
		r.sample("setup_s", st.setup.Seconds())
		r.sample("nmi", st.nmi)
		r.sample("mdl_norm", st.mdlNorm)
		for _, ms := range st.ingest {
			r.sample("result_ms", ms)
		}
		ingest = append(ingest, st.ingest...)
		query, late = append(query, st.query...), append(late, st.late...)
		if f, seen := first[i]; seen {
			r.checkRepeat("stream round", f, st.fp)
		} else {
			first[i] = st.fp
		}
	}
	r.calibrate()
	r.note("rounds: %d on %d inputs; ingest p50 %s p95 %s ms (n=%d); query p50 %s p99 %s ms (n=%d); generator late p99 %s ms",
		len(rounds), len(first), pct(ingest, 0.5), pct(ingest, 0.95), len(ingest), pct(query, 0.5), pct(query, 0.99), len(query),
		pct(late, 0.99))
	r.recordPeakRSS()
	return nil
}

func pct(xs []float64, p float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmtNum(quantile(s, p))
}

// roundStats is what one sbpd round measured and returned.
type roundStats struct {
	setup, wall       time.Duration // set-up; first warm POST to last acknowledgement
	ingest            []float64     // ms per warm batch, closed loop
	query, late       []float64     // ms per point query from its due time; ms it was sent late
	fp                fingerprint
	nmi, mdlNorm      float64
	fulls, escs       int
	allocMB, gcCycles float64 // over the warm batches
	ckptMS            []float64
	ckptBytes         float64
}

// streamRound starts a server, feeds it the stream while the query
// generator runs, checks the final partition and stops the server. With
// t set, the server and the client trace into t, and the round ends with
// timed checkpoint requests.
func (r *run) streamRound(in *streamInput, workers int, t *tracing) (st roundStats, err error) {
	var rep *obs.Span
	so := obs.Obs{}
	if t != nil {
		rep = t.o.StartSpan("bench.rep", obs.F("workload", r.name), obs.F("workers", workers))
		defer rep.End()
		so = t.o.WithSpan(rep)
	}
	setupSpan := rep.Child("bench.setup")
	t0 := time.Now()
	srv, err := startServer(r, so)
	if err != nil {
		return st, err
	}
	defer func() {
		if serr := srv.stop(); err == nil {
			err = serr
		}
	}()
	ing := newClient(srv.url)
	defer ing.close()
	cfg := fmt.Sprintf(`{"algorithm":"hsbp","workers":%d,"seed":%d,"checkpoint_every":5}`, workers, chainSeed)
	if _, err := r.call(ing, "register", http.MethodPost, "/graphs/g", []byte(cfg), nil); err != nil {
		return st, err
	}
	var gs graphStats
	if _, err := r.call(ing, "bootstrap ingest", http.MethodPost, "/graphs/g/edges", in.bootstrap, &gs); err != nil {
		return st, err
	}
	st.setup = time.Since(t0)
	setupSpan.End()

	streamSpan := rep.Child("bench.stream")
	var acked atomic.Int64
	acked.Store(int64(gs.Vertices))
	stop := make(chan struct{})
	queries := make(chan queryLoad, 1)
	go func() {
		queries <- runQueries(srv.url, r.p.QueryRate, rng.New(r.seed^0x51E7_0C17), &acked, stop, streamSpan)
	}()
	start := time.Now()
	st.allocMB, st.gcCycles = memDelta(func() {
		for k, body := range in.batches {
			sp := streamSpan.Child("bench.ingest", obs.F("batch", k+2))
			t0 := time.Now()
			_, cerr := r.call(ing, "ingest", http.MethodPost, "/graphs/g/edges", body, &gs)
			d := time.Since(t0)
			sp.End()
			if cerr != nil {
				err = cerr
				return
			}
			st.ingest = append(st.ingest, float64(d.Nanoseconds())/1e6)
			r.check(gs.Batches == k+2, "ingest %d acknowledged as batch %d", k+2, gs.Batches)
			acked.Store(int64(gs.Vertices))
		}
	})
	st.wall = time.Since(start)
	close(stop)
	ql := <-queries
	streamSpan.End()
	if err != nil {
		return st, err
	}
	r.attempted += ql.attempted
	r.failed += ql.failed
	if ql.firstErr != "" {
		r.fail("point query: %s (%d of %d failed)", ql.firstErr, ql.failed, ql.attempted)
	}
	st.query, st.late = ql.lat, ql.late

	if t != nil {
		before := t.counter("snapshot_bytes")
		for i := 0; i < r.p.Checkpoints; i++ {
			sp := rep.Child("bench.checkpoint")
			t0 := time.Now()
			_, err := r.call(ing, "checkpoint", http.MethodPost, "/graphs/g/checkpoint", nil, nil)
			sp.End()
			if err != nil {
				return st, err
			}
			st.ckptMS = append(st.ckptMS, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		st.ckptBytes = float64(t.counter("snapshot_bytes") - before)
	}

	if _, err := r.call(ing, "stats", http.MethodGet, "/graphs/g", nil, &gs); err != nil {
		return st, err
	}
	raw, err := r.call(ing, "assignment", http.MethodGet, "/graphs/g/assignment", nil, nil)
	if err != nil {
		return st, err
	}
	st.fulls, st.escs = gs.FullSearches, gs.Escalations
	return st, r.checkStream(in, gs, raw, &st)
}

// checkStream checks the final partition against the whole graph: the
// server's MDL must be the one its assignment gives.
func (r *run) checkStream(in *streamInput, gs graphStats, raw []byte, st *roundStats) error {
	assign, err := parseAssignment(raw)
	if err != nil {
		return err
	}
	if !r.check(len(assign) == in.g.NumVertices() && gs.Vertices == len(assign),
		"assignment covers %d vertices, stats %d, stream %d", len(assign), gs.Vertices, in.g.NumVertices()) {
		return nil
	}
	c := int32(0)
	for _, b := range assign {
		c = max(c, b+1)
	}
	bm, err := blockmodel.FromAssignment(in.g, assign, int(c), 1)
	if err != nil {
		return err
	}
	r.check(bm.NumNonEmptyBlocks() == gs.Communities, "assignment has %d communities, stats %d",
		bm.NumNonEmptyBlocks(), gs.Communities)
	r.check(bm.MDL() == gs.MDL, "server MDL %v, assignment gives %v", gs.MDL, bm.MDL())
	st.nmi, err = metrics.NMI(in.truth, assign)
	if err != nil {
		return err
	}
	st.mdlNorm = bm.NormalizedMDL()
	r.checkQuality("stream", st.nmi, st.mdlNorm, streamFloor)
	st.fp = fingerprint{MDL: gs.MDL, Blocks: gs.Communities, Hash: hashMembership(assign)}
	return nil
}

// graphStats is the part of sbpd's graph stats document the benchmark
// reads.
type graphStats struct {
	Vertices     int     `json:"vertices"`
	Batches      int     `json:"batches"`
	Communities  int     `json:"communities"`
	MDL          float64 `json:"mdl"`
	FullSearches int     `json:"full_searches"`
	Escalations  int     `json:"escalations"`
}

func parseAssignment(raw []byte) ([]int32, error) {
	var out []int32
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			return nil, fmt.Errorf("assignment line %q", sc.Text())
		}
		v, err1 := strconv.Atoi(f[0])
		c, err2 := strconv.ParseInt(f[1], 10, 32)
		if err := errors.Join(err1, err2); err != nil || v != len(out) || c < 0 {
			return nil, fmt.Errorf("assignment line %q (want vertex %d): %v", sc.Text(), len(out), err)
		}
		out = append(out, int32(c))
	}
	return out, sc.Err()
}

// server is an in-process sbpd on a loopback listener with a data
// directory of its own.
type server struct {
	url    string
	dir    string
	srv    *serve.Server
	hs     *http.Server
	served chan error
}

func startServer(r *run, o obs.Obs) (*server, error) {
	dir, err := r.scratch("sbpd")
	if err != nil {
		return nil, err
	}
	s, err := serve.New(serve.Config{DataDir: dir, Obs: o})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sv := &server{url: "http://" + ln.Addr().String(), dir: dir, srv: s, hs: serve.HTTPServer(s.Handler()), served: make(chan error, 1)}
	go func() { sv.served <- sv.hs.Serve(ln) }()
	return sv, nil
}

// stop stops accepting requests, drains the ingest queue (the final
// checkpoint included), waits for the serving goroutine and removes the
// data directory.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// client is one keep-alive connection's worth of HTTP client.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// call makes one request, counts it, requires a 2xx status and decodes
// the JSON body into out when out is non-nil.
func (r *run) call(c *client, what, method, path string, body []byte, out any) ([]byte, error) {
	code, b, err := c.do(method, path, body)
	if err == nil && (code < 200 || code > 299) {
		err = fmt.Errorf("status %d: %s", code, bytes.TrimSpace(b))
	}
	if err == nil && out != nil {
		err = json.Unmarshal(b, out)
	}
	if !r.op(err, what) {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	return b, nil
}

// queryLoad is what the query generator measured; it runs on its own
// goroutine and reports back once stopped.
type queryLoad struct {
	lat, late         []float64 // ms from due time; ms sent after due time
	attempted, failed int
	firstErr          string
}

// runQueries is the open-loop point-query generator: query i is due at
// start + i/rate whatever the server does, goes to a vertex drawn from
// the acknowledged ones, and is timed from its due time, so a stall
// shows in every query that waited behind it.
func runQueries(base string, rate float64, rn *rng.RNG, acked *atomic.Int64, stop <-chan struct{}, parent *obs.Span) queryLoad {
	var ql queryLoad
	c := newClient(base)
	defer c.close()
	sp := parent.Child("bench.queries")
	defer func() { sp.End(obs.F("queries", ql.attempted), obs.F("failed", ql.failed)) }()
	interval := time.Duration(float64(time.Second) / rate)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				timer.Stop()
				return ql
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return ql
			default:
			}
		}
		sent := time.Now()
		v := rn.Intn(int(acked.Load()))
		qs := sp.Child("bench.query", obs.F("vertex", v))
		code, body, err := c.do(http.MethodGet, "/graphs/g/vertices/"+strconv.Itoa(v), nil)
		done := time.Now()
		qs.End(obs.F("code", code))
		ql.attempted++
		var ans struct {
			Vertex    int   `json:"vertex"`
			Community int32 `json:"community"`
		}
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
		}
		if err == nil {
			err = json.Unmarshal(body, &ans)
		}
		if err == nil && (ans.Vertex != v || ans.Community < 0) {
			err = fmt.Errorf("vertex %d answered as vertex %d community %d", v, ans.Vertex, ans.Community)
		}
		if err != nil {
			ql.failed++
			if ql.firstErr == "" {
				ql.firstErr = err.Error()
			}
			continue
		}
		ql.lat = append(ql.lat, float64(done.Sub(due).Nanoseconds())/1e6)
		ql.late = append(ql.late, float64(sent.Sub(due).Nanoseconds())/1e6)
	}
}

// traceStream runs the shared traced sequence with an sbpd round as the
// operation: its wall is the warm-batch stream, its allocations are per
// ingest batch, and the traced round also times the checkpoint requests.
func traceStream(r *run, in *streamInput) error {
	var untraced, traced roundStats
	op := func(_, workers int, t *tracing) (opResult, error) {
		st, err := r.streamRound(in, workers, t)
		if err != nil {
			return opResult{}, err
		}
		switch {
		case t != nil:
			traced = st
		case workers == pinnedWorkers:
			untraced = st
		}
		n := float64(len(in.batches))
		return opResult{fp: st.fp, wall: st.wall, allocMB: st.allocMB / n, gcCycles: st.gcCycles / n,
			nmi: st.nmi, mdlNorm: st.mdlNorm, ok: true}, nil
	}
	layers := func(t *tracing) error {
		if err := r.streamLayers(t); err != nil {
			return err
		}
		r.recordCheckpoints(traced.ckptMS, traced.ckptBytes)
		r.layers["stream.full_searches"] = float64(traced.fulls)
		r.layers["stream.escalations"] = float64(traced.escs)
		r.layers["serve.query_slow_frac"] = fracAbove(untraced.query, querySlowMS)
		r.layers["loadgen.late_frac"] = fracAbove(untraced.late, querySlowMS)
		return nil
	}
	r.recordAbsent("dist.bytes", "dist.vstar_wait_share", "sbp.iterations")
	return r.traceOps(1, op, layers, in.g, nil)
}

func fracAbove(xs []float64, limit float64) float64 {
	n := 0
	for _, x := range xs {
		if x > limit {
			n++
		}
	}
	return ratio(float64(n), float64(len(xs)))
}

// streamLayers splits the traced round's warm-batch stream: each batch's
// client latency is the server's batch span plus serving overhead (HTTP,
// queueing, the periodic checkpoint); the batch span holds the merge and
// mcmc phases, and the rest of it is the stream layer's own work (graph
// rebuild, FromAssignment, Compact). An mcmc span's time outside its
// sweeps' passes and rebuilds is the phase's set-up and bookkeeping. The
// residual is the client's time between batches.
func (r *run) streamLayers(t *tracing) error {
	root, err := rootSpan(t, "bench.rep")
	if err != nil {
		return err
	}
	stream, graphs := root.find("bench.stream"), root.kids("graph")
	if stream == nil || len(graphs) != 1 {
		return fmt.Errorf("traced round has no bench.stream or graph span")
	}
	batches := map[int]*span{}
	for _, b := range graphs[0].kids("batch") {
		batches[int(num(b.get("batch")))] = b
	}
	bd := newBreakdown(stream.dur)
	var ct chainTally
	for _, ing := range stream.kids("bench.ingest") {
		bs := batches[int(num(ing.get("batch")))]
		if bs == nil {
			return fmt.Errorf("no server batch span for ingest %v", ing.get("batch"))
		}
		bd.add("serve.overhead", ing.dur-bs.dur)
		inner := 0.0
		for _, m := range bs.kids("merge") {
			bd.add("merge.phase", m.dur)
			r.layers["merge.proposals"] += num(m.get("proposals"))
			inner += m.dur
		}
		for _, m := range bs.kids("mcmc") {
			inner += m.dur
			bd.add("mcmc.other", m.dur)
			ct.proposals += int64(num(m.get("proposals")))
			ct.accepts += int64(num(m.get("accepts")))
			for _, e := range m.events {
				if e.Name != "sweep" {
					continue
				}
				serial, _ := fieldValue(e.Fields, "serial_ns")
				workers, _ := fieldValue(e.Fields, "worker_ns")
				rebuild, _ := fieldValue(e.Fields, "rebuild_ns")
				ws, _ := workers.([]float64)
				ct.sweep(num(serial), ws, num(rebuild))
			}
		}
		bd.add("stream.self", bs.dur-inner)
	}
	ct.addTo(bd)
	bd.add("mcmc.other", -ct.serial-ct.async-ct.rebuild)
	r.recordBreakdown(bd)
	r.recordChain(ct)
	return nil
}
