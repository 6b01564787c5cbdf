package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// params pins every size a workload uses; the smoke test shrinks them.
type params struct {
	Budget       int     // Table-1 S5 vertex budget of search-*
	StreamBudget int     // Table-1 S5 vertex budget of sbpd-stream
	HubVertices  int     // powerlaw-hub vertices (dsbp-hub-hybrid)
	HubBlocks    int     // starting block count of dsbp-hub-hybrid
	Batches      int     // warm ingest batches per sbpd round
	QueryRate    float64 // sbpd point queries per second
	Inputs       int     // distinct inputs generated per run (search-*, dsbp-*)
	SetupReps    int     // timed set-up repetitions per run (search-*, dsbp-*)
	ProbeReps    int     // repetitions of each probe
	Checkpoints  int     // checkpoint writes timed by the snapshot probe
	MinOps       int     // operations (sbpd: rounds) run even past the time budget
}

func defaultParams() params {
	return params{
		Budget: 1024, StreamBudget: 2048, HubVertices: 4096, HubBlocks: 512, Batches: 200, QueryRate: 500,
		Inputs: 16, SetupReps: 9, ProbeReps: 5, Checkpoints: 20, MinOps: 3,
	}
}

// metric is one declared metric: the names and units here are the ones
// BENCHMARK.json lists.
type metric struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, on every workload.
var endToEnd = []metric{
	{"result_ms", "ms"},
	{"mdl_norm", "ratio"},
	{"nmi", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// Layer rows of the traced operation's wall, in print order. Every
// workload reports every row; a layer the workload never enters is 0.
var layerRows = []string{
	"merge.phase", "mcmc.serial_pass", "mcmc.async_pass", "mcmc.rebuild", "mcmc.other",
	"dist.comm", "stream.self", "serve.overhead",
}

// perLayer are the metrics a --trace 1 run reports, on every workload.
// Times that some workload never spends are reported as shares of the
// traced wall (ratio), so every time-valued metric is measured on every
// workload.
var perLayer = func() []metric {
	ms := []metric{{"trace.wall_s", "s"}, {"trace.residual_s", "s"}, {"trace.residual_share", "ratio"}}
	for _, l := range layerRows {
		ms = append(ms, metric{l + "_share", "ratio"})
	}
	return append(ms,
		metric{"mcmc.async_pass_s", "s"},
		metric{"mcmc.rebuild_s", "s"},
		metric{"mcmc.async_idle_ratio", "ratio"},
		metric{"mcmc.sweeps", "count"},
		metric{"mcmc.proposals", "count"},
		metric{"mcmc.accept_rate", "ratio"},
		metric{"blockmodel.proposal_eval_ns", "ns"},
		metric{"blockmodel.point_eval_ns", "ns"},
		metric{"blockmodel.rebuild_ms", "ms"},
		metric{"blockmodel.rebuild_allocs", "count"},
		metric{"merge.scan_ms", "ms"},
		metric{"merge.proposals", "count"},
		metric{"sbp.iterations", "count"},
		metric{"dist.bytes", "count"},
		metric{"dist.vstar_wait_share", "ratio"},
		metric{"stream.full_searches", "count"},
		metric{"stream.escalations", "count"},
		metric{"serve.query_slow_frac", "ratio"},
		metric{"loadgen.late_frac", "ratio"},
		metric{"snapshot.checkpoint_ms", "ms"},
		metric{"snapshot.bytes", "count"},
		metric{"runtime.alloc_mb", "MB"},
		metric{"runtime.gc_cycles", "count"},
		metric{"host.ref_ms", "ms"},
		metric{"obs.trace_overhead", "ratio"},
		metric{"scale.speedup_2w", "ratio"},
	)
}()

// run is the state of one benchmark invocation: its identity, its
// failure accounting and the metric samples it collected.
type run struct {
	name   string
	seed   uint64
	budget time.Duration
	trace  bool
	p      params
	out    string
	start  time.Time

	attempted, failed int
	failures          []string

	samples map[string][]sample // end-to-end metric samples, as measured
	layers  map[string]float64  // per-layer metric values
	notes   []string            // extra report lines

	ref  *refProc
	refs []float64 // reference kernel slice times, seconds
}

func newRun(name string, seed uint64, budget time.Duration, trace bool, p params, out string) *run {
	return &run{
		name: name, seed: seed, budget: budget, trace: trace, p: p, out: out, start: time.Now(),
		samples: map[string][]sample{}, layers: map[string]float64{},
	}
}

// check counts one correctness check; a false ok is a failure.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// op counts one attempted operation; a non-nil err is a failure.
func (r *run) op(err error, what string) bool {
	if err != nil {
		return r.check(false, "%s: %v", what, err)
	}
	return r.check(true, "")
}

// fail records a failure that is not tied to one attempt.
func (r *run) fail(format string, args ...any) { r.check(false, format, args...) }

// sample is one measured value of an end-to-end metric, with the number
// of reference slices taken before it: a time is scaled by the slices on
// either side of it.
type sample struct {
	v     float64
	epoch int
}

func (r *run) sample(name string, v float64) {
	r.samples[name] = append(r.samples[name], sample{v, len(r.refs)})
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// timeLeft reports whether another operation of about the given length
// still ends inside the time budget.
func (r *run) timeLeft(next time.Duration) bool {
	return time.Since(r.start)+next <= r.budget
}

// scratch returns a fresh directory under the output directory for the
// workload's own files (checkpoints, the sbpd data dir); the caller
// removes it.
func (r *run) scratch(label string) (string, error) {
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(r.out, label+"-")
}

// emit prints the report and the result line; it reports whether the run
// was correct.
func (r *run) emit(w io.Writer) bool {
	specs := endToEnd
	if r.trace {
		specs = perLayer
	}
	values := map[string]float64{}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\tn\t")
	for _, m := range specs {
		var v, q1, q3 float64
		var n int
		if r.trace {
			var ok bool
			v, ok = r.layers[m.name]
			if ok {
				q1, q3, n = v, v, 1
			}
		} else {
			ss := r.samples[m.name]
			n = len(ss)
			xs := make([]float64, n)
			for i, s := range ss {
				xs[i] = s.v
			}
			if n > 0 {
				q1, v, q3 = quartiles(xs)
			}
			if n > 0 && (m.unit == "s" || m.unit == "ms") {
				r.note("%s as measured: median %s, q1 %s, q3 %s", m.name, fmtNum(v), fmtNum(q1), fmtNum(q3))
				for i, s := range ss {
					xs[i] = r.atRefSpeed(s)
				}
				q1, v, q3 = quartiles(xs)
			}
		}
		if n == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s not measured", m.name)
			v = 0
		}
		values[m.name] = v
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d\t\n", m.name, m.unit, fmtNum(v), fmtNum(q1), fmtNum(q3), n)
	}
	tw.Flush()
	if !r.trace && len(r.refs) > 0 {
		q1, m, q3 := quartiles(r.refs)
		fmt.Fprintf(w, "times above are at the reference host speed: reference kernel median %s ms (q1 %s, q3 %s, n=%d), nominal %s ms\n",
			fmtNum(m*1e3), fmtNum(q1*1e3), fmtNum(q3*1e3), len(r.refs), fmtNum(refNominal.Seconds()*1e3))
	}
	for _, l := range r.notes {
		fmt.Fprintln(w, l)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAIL:", f)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	if res.Attempted == 0 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	for _, m := range specs {
		res.Metrics[m.name] = value{values[m.name], m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil { // unreachable: values are finite and keys are strings
		panic(err)
	}
	fmt.Fprintln(w, string(b))
	return res.Correct
}

func fmtNum(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// quartiles returns the first quartile, median and third quartile of xs
// with linear interpolation between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

// quantile returns the p-quantile of sorted samples.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := p * float64(n-1)
	lo := int(rank)
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// recordPeakRSS samples peak_rss_mb once, at the end of the measurement.
func (r *run) recordPeakRSS() {
	mb, err := peakRSSMB()
	if r.op(err, "peak RSS") {
		r.sample("peak_rss_mb", mb)
	}
}

// tracePath is where a traced run writes its JSONL.
func (r *run) tracePath() string {
	return filepath.Join(r.out, "bench-trace-"+r.name+".jsonl")
}
