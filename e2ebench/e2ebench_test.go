package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/blockmodel"
)

// TestMain lets the test binary serve as the reference kernel's child
// process, as the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(refEnv) != "" {
		if err := serveRef(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "reference kernel:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// tinyParams shrinks every workload so the whole suite runs in seconds.
// One input and two minimum operations make every timed run repeat its
// input, so the repeat checks run too.
func tinyParams() params {
	return params{
		Budget: 256, StreamBudget: 256, HubVertices: 256, HubBlocks: 32, Batches: 10, QueryRate: 200,
		Inputs: 1, SetupReps: 1, ProbeReps: 3, Checkpoints: 2, MinOps: 2,
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the suite checks against.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// result is a parsed result line.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// runTiny runs one workload at tiny scale and returns its parsed result
// line and report.
func runTiny(t *testing.T, name string, trace bool, out string) (result, string) {
	t.Helper()
	r := newRun(name, 1, time.Second, trace, tinyParams(), out)
	if err := workloads()[name](r); err != nil {
		r.fail("%s: %v", name, err)
	}
	r.stopRef()
	var buf bytes.Buffer
	r.emit(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: result line: %v\n%s", name, err, buf.String())
	}
	return res, buf.String()
}

// deterministic are the per-layer counts that must repeat exactly
// between two traced runs of one seed.
var deterministic = []string{
	"mcmc.sweeps", "mcmc.proposals", "merge.proposals", "sbp.iterations", "dist.bytes",
	"stream.full_searches", "stream.escalations", "blockmodel.rebuild_allocs",
}

func TestE2ESmoke(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	var want []string
	for _, w := range spec.Workloads {
		want = append(want, w.Name)
	}
	sort.Strings(want)
	if got := workloadNames(); got != strings.Join(want, "|") {
		t.Fatalf("workloads %s, BENCHMARK.json lists %v", got, want)
	}
	declared := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	e2e, layer := declared(spec.EndToEnd), declared(spec.PerLayer)

	for _, name := range want {
		t.Run(name, func(t *testing.T) {
			var counts [2]map[string]float64
			for _, trace := range []bool{false, true, true} {
				out := t.TempDir()
				res, report := runTiny(t, name, trace, out)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%t: correct=%t failed=%d/%d\n%s", trace, res.Correct, res.Failed, res.Attempted, report)
				}
				wantUnits := e2e
				if trace {
					wantUnits = layer
				}
				if len(res.Metrics) != len(wantUnits) {
					t.Errorf("trace=%t: %d metrics printed, BENCHMARK.json declares %d", trace, len(res.Metrics), len(wantUnits))
				}
				for m, v := range res.Metrics {
					if u, ok := wantUnits[m]; !ok || u != v.Unit {
						t.Errorf("trace=%t: metric %s [%s] not declared as such in BENCHMARK.json", trace, m, v.Unit)
					}
				}

				// The run leaves nothing behind but its trace: every
				// checkpoint and sbpd data directory is gone.
				entries, err := os.ReadDir(out)
				if err != nil && !os.IsNotExist(err) {
					t.Fatal(err)
				}
				for _, e := range entries {
					if e.Name() != "bench-trace-"+name+".jsonl" {
						t.Errorf("trace=%t: %s survived the run", trace, e.Name())
					}
				}
				if !trace {
					continue
				}
				if len(entries) != 1 {
					t.Errorf("traced run wrote %d files, want its trace", len(entries))
				}
				c := map[string]float64{}
				for _, m := range deterministic {
					c[m] = res.Metrics[m].Value
				}
				if counts[0] == nil {
					counts[0] = c
				} else {
					counts[1] = c
				}
			}
			if fmt.Sprint(counts[0]) != fmt.Sprint(counts[1]) {
				t.Errorf("deterministic counts differ between traced runs:\n%v\n%v", counts[0], counts[1])
			}
		})
	}
}

// TestCheckerCountsFlippedMembership feeds the checks a result with one
// membership entry changed and asserts that each counts it as a failure.
func TestCheckerCountsFlippedMembership(t *testing.T) {
	g, truth, err := s5Graph(256, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := 0
	for _, b := range truth {
		c = max(c, int(b)+1)
	}
	honest, err := blockmodel.FromAssignment(g, truth, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	mdl := honest.MDL()
	flip := func(a []int32) []int32 {
		a = append([]int32(nil), a...)
		a[7] = (a[7] + 1) % int32(c)
		return a
	}

	r := newRun("test", 1, time.Second, false, tinyParams(), t.TempDir())
	if !r.checkModel("honest", honest, mdl) || r.failed != 0 {
		t.Fatalf("honest result failed: %v", r.failures)
	}

	// Counts left stale: Validate catches it.
	stale := honest.Clone()
	stale.Assignment = flip(stale.Assignment)
	if r.checkModel("stale", stale, mdl) {
		t.Error("stale counts passed checkModel")
	}
	// Consistent counts, but not the membership the MDL was reported for.
	moved, err := blockmodel.FromAssignment(g, flip(truth), c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.checkModel("moved", moved, mdl) {
		t.Error("membership that does not give the reported MDL passed checkModel")
	}
	// A repeat of the same input that comes back different.
	fp := fingerprint{MDL: mdl, Hash: hashMembership(truth)}
	if r.checkRepeat("repeat", fp, fingerprint{MDL: mdl, Hash: hashMembership(flip(truth))}) {
		t.Error("a changed membership passed the repeat check")
	}
	// The sbpd path: one flipped line of GET /assignment.
	in := &streamInput{g: g, truth: truth}
	gs := graphStats{Vertices: g.NumVertices(), Communities: honest.NumNonEmptyBlocks(), MDL: mdl}
	before := r.failed
	if err := r.checkStream(in, gs, assignmentText(truth), &roundStats{}); err != nil || r.failed != before {
		t.Fatalf("honest assignment failed: %v %v", err, r.failures)
	}
	if err := r.checkStream(in, gs, assignmentText(flip(truth)), &roundStats{}); err != nil {
		t.Fatal(err)
	}
	if r.failed != 4 {
		t.Errorf("%d failures counted, want 4: %v", r.failed, r.failures)
	}
}

func assignmentText(a []int32) []byte {
	var b bytes.Buffer
	for v, c := range a {
		fmt.Fprintf(&b, "%d\t%d\n", v, c)
	}
	return b.Bytes()
}
