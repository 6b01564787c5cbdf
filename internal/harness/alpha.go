package harness

import (
	"repro/internal/blockmodel"
	"repro/internal/influence"
	"repro/internal/mcmc"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sbp"
)

// FigAlpha implements the paper's stated future work: "study
// alternative, easy-to-compute heuristic metrics for predicting whether
// or not A-SBP will converge on large graphs."
//
// For every synthetic graph it computes the sampled total-influence
// estimate α̂ (internal/influence) anchored at the planted partition —
// a cheap proxy for the intractable exact α of De Sa et al. — and pairs
// it with whether A-SBP actually matched SBP's result quality on that
// graph. The emitted table lets the operator judge the heuristic: per
// De Sa's theory, higher influence means asynchronous Gibbs mixes less
// reliably.
func (c Config) FigAlpha() (*Table, error) {
	t := &Table{
		Title: "Future work (alpha): sampled influence α̂ vs A-SBP convergence",
		Columns: []string{
			"ID", "alpha_sampled", "NMI SBP", "NMI A-SBP", "A-SBP matched",
		},
		Notes: []string{
			"α̂ anchored at the planted partition; 'matched' = A-SBP within 0.05 NMI of SBP",
		},
	}
	rn := rng.New(c.Seed + 99)
	for n := 1; n <= 24; n++ {
		g, truth, spec, err := c.syntheticGraph(n)
		if err != nil {
			return nil, err
		}
		communities := int32(0)
		for _, b := range truth {
			if b >= communities {
				communities = b + 1
			}
		}
		anchor, err := blockmodel.FromAssignment(g, truth, int(communities), c.Workers)
		if err != nil {
			return nil, err
		}
		alpha, err := influence.Sampled(anchor, 8, 8, 3, rn)
		if err != nil {
			return nil, err
		}

		nmiOf := func(alg mcmc.Algorithm) (float64, error) {
			res := sbp.Run(g, c.options(alg, c.Seed))
			return metrics.NMI(truth, res.Best.Assignment)
		}
		nmiSBP, err := nmiOf(mcmc.SerialMH)
		if err != nil {
			return nil, err
		}
		nmiASBP, err := nmiOf(mcmc.AsyncGibbs)
		if err != nil {
			return nil, err
		}
		matched := "yes"
		if nmiASBP < nmiSBP-0.05 {
			matched = "no"
		}
		t.AddRow(spec.Name, alpha, nmiSBP, nmiASBP, matched)
	}
	return t, nil
}
