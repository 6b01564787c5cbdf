package harness

import (
	"repro/internal/blockmodel"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/metrics"
)

// FigDistributed measures the future-work distributed MCMC phase: for
// growing cluster sizes it reports result quality and the communication
// volume of the per-sweep exchange of accepted moves — the trade-off a real
// multi-node deployment of A-SBP/H-SBP optimises (§6).
func (c Config) FigDistributed() (*Table, error) {
	t := &Table{
		Title:   "Future work (distributed): MCMC phase quality vs communication",
		Columns: []string{"ranks", "mode", "sweeps", "NMI", "traffic (kB)", "comm/sweep (ms)"},
		Notes: []string{
			"bulk-synchronous ranks with replica blockmodels; traffic = frame bytes of the",
			"per-sweep allgather of accepted moves (8 bytes each) + MDL agreement allreduce;",
			"comm/sweep = rank 0's wall time inside collectives (the wire cost a TCP",
			"deployment pays per sweep)",
		},
	}
	v := int(1200 * (c.Scale / 0.005))
	if v < 300 {
		v = 300
	}
	g, truth, err := gen.Generate(gen.Spec{
		Name: "dist", Vertices: v, Communities: 8, MinDegree: 5, MaxDegree: v / 20,
		Exponent: 2.5, Ratio: 5, SizeSkew: 0.4, Seed: c.Seed + 7,
	})
	if err != nil {
		return nil, err
	}
	// Start each cluster size from the same perturbed partition.
	perturbed := append([]int32(nil), truth...)
	for i := 0; i < len(perturbed); i += 3 {
		perturbed[i] = int32((int(perturbed[i]) + 1) % 8)
	}
	for _, ranks := range []int{1, 2, 4, 8, 16} {
		for _, mode := range []dist.Mode{dist.ModeAsync, dist.ModeHybrid} {
			bm, err := blockmodel.FromAssignment(g, perturbed, 8, c.Workers)
			if err != nil {
				return nil, err
			}
			cfg := dist.DefaultConfig()
			cfg.Ranks = ranks
			cfg.Seed = c.Seed
			st, err := dist.RunMCMCPhase(bm, mode, cfg)
			if err != nil {
				return nil, err
			}
			nmi, err := metrics.NMI(truth, bm.Assignment)
			if err != nil {
				return nil, err
			}
			t.AddRow(ranks, mode.String(), st.Sweeps, nmi, float64(st.TrafficBytes)/1024,
				float64(st.CommPerSweep().Microseconds())/1000)
		}
	}
	return t, nil
}
