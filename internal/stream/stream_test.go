package stream

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/snapshot"
)

// streamedGraph generates a structured graph and splits its edges into
// batches in random order.
func streamedGraph(t *testing.T, batches int, seed uint64) (*graph.Graph, []int32, [][]graph.Edge) {
	t.Helper()
	// V is kept at 250 (< the 256-block dense threshold) so every phase
	// of the refinement runs in the dense, fully deterministic regime;
	// see the reproducibility note in DESIGN.md §4.
	g, truth, err := gen.Generate(gen.Spec{
		Name: "stream", Vertices: 250, Communities: 4, MinDegree: 6, MaxDegree: 25,
		Exponent: 2.5, Ratio: 6, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	r := rng.New(seed + 1)
	for i := len(edges) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		edges[i], edges[j] = edges[j], edges[i]
	}
	out := make([][]graph.Edge, batches)
	for b := 0; b < batches; b++ {
		lo := b * len(edges) / batches
		hi := (b + 1) * len(edges) / batches
		out[b] = edges[lo:hi]
	}
	return g, truth, out
}

func TestStreamingConvergesToBatchQuality(t *testing.T) {
	g, truth, batches := streamedGraph(t, 5, 3)
	d := NewDetector(DefaultConfig())
	for _, batch := range batches {
		if err := d.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	if d.NumEdges() != g.NumEdges() {
		t.Fatalf("ingested %d of %d edges", d.NumEdges(), g.NumEdges())
	}
	if d.NumVertices() > g.NumVertices() {
		t.Fatalf("vertex universe grew to %d", d.NumVertices())
	}
	// Score only over the vertices the stream has seen.
	nmi, err := metrics.NMI(truth[:d.NumVertices()], d.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	if nmi < 0.85 {
		t.Fatalf("streaming NMI %.3f after full stream", nmi)
	}
	if err := d.Model().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingSingleBatchEqualsFullRun(t *testing.T) {
	g, truth, batches := streamedGraph(t, 1, 5)
	d := NewDetector(DefaultConfig())
	if err := d.Ingest(batches[0]); err != nil {
		t.Fatal(err)
	}
	nmi, err := metrics.NMI(truth[:d.NumVertices()], d.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	if nmi < 0.85 {
		t.Fatalf("single-batch NMI %.3f", nmi)
	}
	_ = g
}

func TestStreamingQualityImprovesWithData(t *testing.T) {
	_, truth, batches := streamedGraph(t, 6, 7)
	d := NewDetector(DefaultConfig())
	if err := d.Ingest(batches[0]); err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches[1:] {
		if err := d.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	late, err := metrics.NMI(truth[:d.NumVertices()], d.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	// With one sixth of the edges the partition is far from truth; with
	// all edges it should be close.
	if late < 0.8 {
		t.Fatalf("final streaming NMI %.3f", late)
	}
}

func TestStreamingNewVerticesGetBlocks(t *testing.T) {
	d := NewDetector(DefaultConfig())
	if err := d.Ingest([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	if d.NumVertices() != 3 {
		t.Fatalf("V = %d", d.NumVertices())
	}
	// A later batch introduces vertex ids beyond anything seen.
	if err := d.Ingest([]graph.Edge{{Src: 10, Dst: 11}, {Src: 11, Dst: 10}}); err != nil {
		t.Fatal(err)
	}
	if d.NumVertices() != 12 {
		t.Fatalf("V = %d after growth", d.NumVertices())
	}
	if len(d.Assignment()) != 12 {
		t.Fatalf("assignment length %d", len(d.Assignment()))
	}
	if err := d.Model().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingRejectsNegativeIDs(t *testing.T) {
	d := NewDetector(DefaultConfig())
	if err := d.Ingest([]graph.Edge{{Src: -1, Dst: 0}}); err == nil {
		t.Fatal("negative vertex id accepted")
	}
}

func TestStreamingEmptyBatchNoop(t *testing.T) {
	_, _, batches := streamedGraph(t, 2, 9)
	d := NewDetector(DefaultConfig())
	if err := d.Ingest(batches[0]); err != nil {
		t.Fatal(err)
	}
	before := d.NumCommunities()
	if err := d.Ingest(nil); err != nil {
		t.Fatal(err)
	}
	if d.NumCommunities() != before {
		t.Fatal("empty batch changed the partition")
	}
}

func TestStreamingFullSearchPeriod(t *testing.T) {
	_, truth, batches := streamedGraph(t, 4, 11)
	cfg := DefaultConfig()
	cfg.FullSearchPeriod = 2 // full search on batches 2 and 4
	d := NewDetector(cfg)
	for _, batch := range batches {
		if err := d.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	nmi, err := metrics.NMI(truth[:d.NumVertices()], d.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	if nmi < 0.85 {
		t.Fatalf("periodic-full-search NMI %.3f", nmi)
	}
}

// Regression: an empty (or nil) FIRST batch used to reach the solver
// as a 0-vertex full search. It must be an unconditional no-op that
// publishes nothing, and the stream must work normally afterwards.
func TestStreamingEmptyFirstBatchNoop(t *testing.T) {
	d := NewDetector(DefaultConfig())
	if err := d.Ingest(nil); err != nil {
		t.Fatalf("nil first batch: %v", err)
	}
	if err := d.Ingest([]graph.Edge{}); err != nil {
		t.Fatalf("empty first batch: %v", err)
	}
	if d.Snapshot() != nil {
		t.Fatal("empty batches published a partition")
	}
	if d.NumVertices() != 0 || d.NumEdges() != 0 || d.Assignment() != nil {
		t.Fatal("empty batches changed detector state")
	}
	if err := d.Ingest([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}); err != nil {
		t.Fatalf("real batch after empty ones: %v", err)
	}
	snap := d.Snapshot()
	if snap == nil || snap.Batches != 1 || snap.Vertices != 3 {
		t.Fatalf("snapshot after real batch: %+v", snap)
	}
}

// Regression: Assignment()/Model() used to alias state the next Ingest
// mutates. Under -race this hammers every read accessor while batches
// are applied; any aliasing shows up as a race report or torn reads.
func TestStreamingConcurrentQueriesDuringIngest(t *testing.T) {
	_, _, batches := streamedGraph(t, 6, 13)
	d := NewDetector(DefaultConfig())
	if err := d.Ingest(batches[0]); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := d.Snapshot()
				if snap == nil {
					t.Error("snapshot vanished after first batch")
					return
				}
				// A snapshot must be internally consistent no matter how
				// many batches land while we read it.
				if len(snap.Assignment) != snap.Vertices {
					t.Errorf("torn snapshot: %d assignments, %d vertices",
						len(snap.Assignment), snap.Vertices)
					return
				}
				for _, c := range snap.Assignment {
					if int(c) >= snap.Model.C {
						t.Errorf("assignment block %d out of range C=%d", c, snap.Model.C)
						return
					}
				}
				a := d.Assignment()
				a[0] = -999 // caller owns the copy; must not corrupt the detector
				_ = d.Model()
				_ = d.NumCommunities()
				_ = d.NumVertices()
			}
		}()
	}
	for _, batch := range batches[1:] {
		if err := d.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if d.Snapshot().Assignment[0] == -999 {
		t.Fatal("reader's write leaked into the published assignment")
	}
}

// FullSearchPeriod counter semantics: with period 2 over 5 non-empty
// batches the full searches are batch 1 (first), 2 and 4; empty
// batches must not advance the schedule.
func TestStreamingFullSearchCounters(t *testing.T) {
	_, _, batches := streamedGraph(t, 5, 17)
	cfg := DefaultConfig()
	cfg.FullSearchPeriod = 2
	d := NewDetector(cfg)
	for i, batch := range batches {
		if err := d.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		if err := d.Ingest(nil); err != nil { // must not count as a batch
			t.Fatal(err)
		}
		snap := d.Snapshot()
		if snap.Batches != i+1 {
			t.Fatalf("after batch %d: Batches = %d", i+1, snap.Batches)
		}
	}
	snap := d.Snapshot()
	if snap.FullSearches != 3 {
		t.Fatalf("FullSearches = %d, want 3 (first + batches 2 and 4)", snap.FullSearches)
	}
	if snap.Escalations != 0 {
		t.Fatalf("Escalations = %d, want 0", snap.Escalations)
	}
}

// The degenerate-collapse escalation branch: a tiny first batch
// collapses to one block; the incremental path can merge but never
// split, so the next structured batch must escalate to a full search
// and recover the communities.
func TestStreamingEscalationRecoversFromCollapse(t *testing.T) {
	_, truth, batches := streamedGraph(t, 1, 19)
	d := NewDetector(DefaultConfig())
	if err := d.Ingest([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}}); err != nil {
		t.Fatal(err)
	}
	if d.NumCommunities() != 1 {
		t.Skipf("triangle fitted %d blocks; collapse precondition not met", d.NumCommunities())
	}
	if err := d.Ingest(batches[0]); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	if snap.Escalations != 1 {
		t.Fatalf("Escalations = %d, want 1", snap.Escalations)
	}
	if snap.Blocks <= 1 {
		t.Fatalf("escalated search still degenerate: %d blocks", snap.Blocks)
	}
	nmi, err := metrics.NMI(truth[:d.NumVertices()], d.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	if nmi < 0.8 {
		t.Fatalf("post-escalation NMI %.3f", nmi)
	}
}

// A SamBaS-enabled stream config runs full searches through the
// sampling pipeline and still recovers community structure.
func TestStreamingSampledFullSearch(t *testing.T) {
	_, truth, batches := streamedGraph(t, 1, 23)
	cfg := DefaultConfig()
	cfg.Sample = sample.Options{Kind: sample.DegreeWeighted, Fraction: 0.5, Seed: 5}
	cfg.SampleMinVertices = 10
	d := NewDetector(cfg)
	if err := d.Ingest(batches[0]); err != nil {
		t.Fatal(err)
	}
	nmi, err := metrics.NMI(truth[:d.NumVertices()], d.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	if nmi < 0.8 {
		t.Fatalf("sampled streaming NMI %.3f", nmi)
	}
}

// ingestAll replays batches into a detector, failing the test on error.
func ingestAll(t *testing.T, d *Detector, batches [][]graph.Edge) {
	t.Helper()
	for _, b := range batches {
		if err := d.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
}

// Checkpoint at a batch boundary, restore, and finish the stream: the
// resumed detector must match an uninterrupted one bit-for-bit.
func TestStreamingCheckpointRestoreBitIdentical(t *testing.T) {
	_, _, batches := streamedGraph(t, 6, 29)
	cfg := DefaultConfig()
	cfg.FullSearchPeriod = 3 // exercise the full-search RNG draws across the boundary

	ref := NewDetector(cfg)
	ingestAll(t, ref, batches)

	d := NewDetector(cfg)
	ingestAll(t, d, batches[:3])
	st, err := d.Checkpoint([]byte(`{"tag":"mid-stream"}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(st.Meta) != `{"tag":"mid-stream"}` {
		t.Fatalf("meta not round-tripped: %q", st.Meta)
	}
	resumed, err := Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumes() != 1 {
		t.Fatalf("Resumes = %d, want 1", resumed.Resumes())
	}
	ingestAll(t, resumed, batches[3:])

	want, got := ref.Snapshot(), resumed.Snapshot()
	if want.MDL != got.MDL {
		t.Fatalf("MDL diverged after resume: %v vs %v", want.MDL, got.MDL)
	}
	if want.Blocks != got.Blocks || want.FullSearches != got.FullSearches {
		t.Fatalf("counters diverged: %+v vs %+v", want, got)
	}
	for v := range want.Assignment {
		if want.Assignment[v] != got.Assignment[v] {
			t.Fatalf("assignment diverged at vertex %d: %d vs %d",
				v, want.Assignment[v], got.Assignment[v])
		}
	}
}

// A checkpoint of a never-ingested detector restores to a working
// empty detector (the service registers graphs before data arrives).
func TestStreamingCheckpointEmptyDetector(t *testing.T) {
	d := NewDetector(DefaultConfig())
	st, err := d.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Snapshot() != nil {
		t.Fatal("empty restore published a partition")
	}
	if err := resumed.Ingest([]graph.Edge{{Src: 0, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
}

// A tampered MDL must fail the restore: the recomputed description
// length is the corruption tripwire.
func TestStreamingRestoreRejectsTamperedMDL(t *testing.T) {
	_, _, batches := streamedGraph(t, 2, 31)
	d := NewDetector(DefaultConfig())
	ingestAll(t, d, batches)
	st, err := d.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	st.MDL *= 1.0000001
	if _, err := Restore(st); err == nil {
		t.Fatal("restore accepted a tampered MDL")
	}
}

// An engine or sampler setting outside its range is corruption: Restore
// refuses it with snapshot.ErrCorrupt instead of handing the next
// Ingest a configuration it panics on.
func TestStreamingRestoreRejectsUnknownSettings(t *testing.T) {
	_, _, batches := streamedGraph(t, 2, 31)
	d := NewDetector(DefaultConfig())
	ingestAll(t, d, batches)
	for _, c := range []struct {
		name   string
		tamper func(*snapshot.StreamState)
	}{
		{"algorithm", func(st *snapshot.StreamState) { st.Algorithm = 9 }},
		{"sample-kind", func(st *snapshot.StreamState) { st.SampleFraction, st.SampleKind = 0.3, 9 }},
		{"sample-fraction", func(st *snapshot.StreamState) { st.SampleFraction = 1.5 }},
	} {
		st, err := d.Checkpoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		c.tamper(st)
		if _, err := Restore(st); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("%s: Restore = %v, want snapshot.ErrCorrupt", c.name, err)
		}
	}
}
