package hsbp_test

// Telemetry integration tests: enabling the internal/obs registry and
// tracer must leave every engine's results bit-identical (telemetry
// never touches the RNG tree), the Prometheus exposition of a real run
// must be well-formed and agree with the run's own statistics, and the
// disabled instruments must stay off the hot path (see the overhead
// benchmarks at the bottom; compare the off/on sub-benchmarks).

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	hsbp "repro"
	"repro/internal/gen"
	"repro/internal/obs"
)

// obsSpec is a small fixed graph used by the telemetry tests.
var obsSpec = gen.Spec{
	Name: "obs-test", Vertices: 48, Communities: 4,
	MinDegree: 2, MaxDegree: 8, Exponent: 2.5, Ratio: 5, Seed: 11,
}

// TestObsBitIdentical runs every engine twice at the same seed and
// worker count — once inert, once with full telemetry (registry +
// tracer) — and requires bit-identical outcomes.
func TestObsBitIdentical(t *testing.T) {
	g, _, err := gen.Generate(obsSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, ga := range goldenAlgs {
		t.Run(ga.name, func(t *testing.T) {
			plain := goldenRun(t, g, ga.alg, obsSpec.Seed)

			opts := hsbp.DefaultOptions(ga.alg)
			opts.Seed = obsSpec.Seed
			opts.MCMC.Workers = goldenWorkers
			opts.Merge.Workers = goldenWorkers
			sink := &obs.CollectorSink{}
			opts.Obs = obs.Obs{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer(sink)}
			traced := hsbp.Detect(g, opts)

			if traced.MDL != plain.MDL {
				t.Errorf("MDL differs with telemetry on: %.17g vs %.17g", traced.MDL, plain.MDL)
			}
			if traced.NumCommunities != plain.NumCommunities {
				t.Errorf("community count differs with telemetry on: %d vs %d",
					traced.NumCommunities, plain.NumCommunities)
			}
			if len(traced.Best.Assignment) != len(plain.Best.Assignment) {
				t.Fatalf("assignment lengths differ: %d vs %d",
					len(traced.Best.Assignment), len(plain.Best.Assignment))
			}
			for v := range plain.Best.Assignment {
				if traced.Best.Assignment[v] != plain.Best.Assignment[v] {
					t.Fatalf("assignment differs at vertex %d with telemetry on", v)
				}
			}
			if len(sink.Events()) == 0 {
				t.Error("tracer enabled but no events were emitted")
			}
		})
	}
}

// TestObsGoldenUnchanged re-runs the committed golden expectations with
// telemetry enabled: the live instrumentation path must reproduce the
// exact numbers the uninstrumented seed produced.
func TestObsGoldenUnchanged(t *testing.T) {
	expected, graphs := loadGoldenCases(t)
	for _, want := range expected {
		t.Run(fmt.Sprintf("%s/%s", want.Graph, want.Alg), func(t *testing.T) {
			opts := hsbp.DefaultOptions(algByGoldenName(t, want.Alg))
			opts.Seed = want.Seed
			opts.MCMC.Workers = want.Workers
			opts.Merge.Workers = want.Workers
			opts.Obs = obs.Obs{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer(&obs.CollectorSink{})}
			res := hsbp.Detect(graphs[want.Graph], opts)
			if res.NumCommunities != want.Communities {
				t.Errorf("community count drifted under telemetry: got %d, golden %d",
					res.NumCommunities, want.Communities)
			}
			if res.MDL != want.MDL {
				t.Errorf("MDL drifted under telemetry: got %.17g, golden %.17g", res.MDL, want.MDL)
			}
		})
	}
}

// TestObsExpositionFromRun scrapes the registry after a real run and
// checks the exposition is well-formed and consistent with the run's
// own post-hoc statistics — the two views must agree because they are
// derived from the same instrumentation.
func TestObsExpositionFromRun(t *testing.T) {
	g, _, err := gen.Generate(obsSpec)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opts := hsbp.DefaultOptions(hsbp.ASBP)
	opts.Seed = obsSpec.Seed
	opts.MCMC.Workers = goldenWorkers
	opts.Merge.Workers = goldenWorkers
	opts.Obs = obs.Obs{Metrics: reg}
	res := hsbp.Detect(g, opts)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	for _, want := range []string{
		"# TYPE mcmc_sweeps_total counter",
		"# TYPE mcmc_sweep_duration_ns histogram",
		"# TYPE sbp_mdl gauge",
		`mcmc_sweeps_total{engine="A-SBP"}`,
		`mcmc_worker_busy_ns_total{engine="A-SBP",worker="0"}`,
		`le="+Inf"`,
		"merge_applied_total",
		"sbp_iterations_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}

	if got := metricValue(t, text, `mcmc_sweeps_total{engine="A-SBP"}`); got != float64(res.TotalMCMCSweeps) {
		t.Errorf("registry saw %v sweeps, result reports %d", got, res.TotalMCMCSweeps)
	}
	if got := metricValue(t, text, "sbp_iterations_total"); got != float64(len(res.Iterations)) {
		t.Errorf("registry saw %v iterations, result reports %d", got, len(res.Iterations))
	}
	if got := metricValue(t, text, "sbp_mdl"); got != res.MDL {
		t.Errorf("registry final MDL %v, result reports %v", got, res.MDL)
	}
	var mdlNS float64
	for _, it := range res.Iterations {
		for _, rec := range it.MCMC.PerSweep {
			mdlNS += rec.MDLNS
		}
	}
	if got := metricValue(t, text, `mcmc_mdl_ns_total{engine="A-SBP"}`); got != mdlNS || got <= 0 {
		t.Errorf("registry saw %v ns of MDL passes, sweep records %v", got, mdlNS)
	}
}

// metricValue extracts one sample's value from Prometheus text.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in exposition:\n%s", series, text)
	return 0
}

// loadGoldenCases reads the committed golden expectations and graphs.
func loadGoldenCases(t *testing.T) ([]goldenResult, map[string]*hsbp.Graph) {
	t.Helper()
	dir := filepath.Join("testdata", "golden")
	buf, err := os.ReadFile(filepath.Join(dir, "expected.json"))
	if err != nil {
		t.Fatalf("reading golden expectations: %v", err)
	}
	var expected []goldenResult
	if err := json.Unmarshal(buf, &expected); err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*hsbp.Graph{}
	for _, spec := range goldenSpecs {
		g, err := hsbp.LoadGraph(filepath.Join(dir, spec.Name+".tsv"))
		if err != nil {
			t.Fatalf("loading committed graph %s: %v", spec.Name, err)
		}
		graphs[spec.Name] = g
	}
	return expected, graphs
}

func algByGoldenName(t *testing.T, name string) hsbp.Algorithm {
	t.Helper()
	for _, ga := range goldenAlgs {
		if ga.name == name {
			return ga.alg
		}
	}
	t.Fatalf("unknown golden algorithm %q", name)
	return 0
}

// BenchmarkTimingObsOverheadASBP measures the telemetry cost on the
// A-SBP hot path: "off" is the inert zero Obs every uninstrumented
// caller gets (nil instruments, one nil-compare per observation point;
// the design budget is <2% vs the pre-obs seed), "on" runs with a live
// registry and an in-memory tracer (<10% budget — instruments update
// at sweep granularity, never per proposal). The Timing prefix keeps
// this wall-clock benchmark out of the CI shape-metric pass.
func BenchmarkTimingObsOverheadASBP(b *testing.B) {
	g, _, err := gen.Generate(gen.Spec{
		Name: "obs-bench", Vertices: 300, Communities: 6,
		MinDegree: 3, MaxDegree: 20, Exponent: 2.5, Ratio: 4, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, telemetry obs.Obs) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			opts := hsbp.DefaultOptions(hsbp.ASBP)
			opts.Seed = 3
			opts.MCMC.Workers = goldenWorkers
			opts.Merge.Workers = goldenWorkers
			opts.Obs = telemetry
			hsbp.Detect(g, opts)
		}
	}
	b.Run("off", func(b *testing.B) { run(b, obs.Obs{}) })
	b.Run("on", func(b *testing.B) {
		run(b, obs.Obs{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer(&obs.CollectorSink{})})
	})
}
