package harness

import (
	"math"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mcmc"
	"repro/internal/parallel"
	"repro/internal/sbp"
)

// costFitIDs are the Table 1 graphs the cost-model weights are fit on,
// beside every Table 2 stand-in: dense and sparse, strong and weak
// structure.
var costFitIDs = []int{2, 5, 9, 13, 21}

// CostFit fits the cost model's per-layer weights (parallel.Weights) to
// measured one-worker layer times. It runs every engine, B-SBP
// included, with one worker on the costFitIDs graphs and on every
// Table 2 stand-in, and fits each layer's weight to minimise the fit
// error: the RMS, over the runs where the layer ran, of the relative
// gap between weight × units and the measured time. The "total" row
// compares each run's modelled and measured one-worker time (SBP's MCMC
// and merge phases together). The error is also given over the Table 1
// and the Table 2 runs alone. The committed weights are printed beside
// the fitted ones; to adopt a fit, copy its weights into
// internal/parallel/weights.go.
func (c Config) CostFit() (*Table, error) {
	c.Workers = 1
	var graphs []*graph.Graph
	for _, n := range costFitIDs {
		g, _, _, err := c.syntheticGraph(n)
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, g)
	}
	synthetic := len(graphs)
	specs, err := gen.TableTwoSpecs(c.RealScale)
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		g, err := gen.GenerateRealWorld(s)
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, g)
	}
	var runs []parallel.CostModel
	split := 0 // runs[:split] are the Table 1 runs
	for gi, g := range graphs {
		if gi == synthetic {
			split = len(runs)
		}
		for _, alg := range []mcmc.Algorithm{mcmc.SerialMH, mcmc.Hybrid, mcmc.AsyncGibbs, mcmc.BatchedGibbs} {
			for i := 0; i < c.Runs; i++ {
				res := sbp.Run(g, c.options(alg, c.Seed+uint64(1000*i)+uint64(alg)))
				cost := res.MCMCCost
				cost.Merge(res.MergeCost)
				runs = append(runs, cost)
			}
		}
	}
	var fitted [parallel.NumLayers]float64
	t := &Table{
		Title: "Cost-model weights fit to one-worker layer times",
		Columns: []string{"layer", "units", "measured ms", "fitted ns/unit", "committed ns/unit",
			"RMS rel. err (fitted)", "RMS rel. err (committed)", "(committed, Table 1)", "(committed, Table 2)"},
		Notes: []string{"every engine, B-SBP included, at one worker on Table 1 graphs S2, S5, S9, S13 and S21 and on every Table 2 stand-in"},
	}
	for l := range fitted {
		fitted[l] = fitWeight(runs, l)
	}
	for l := 0; l <= int(parallel.NumLayers); l++ {
		name := "total"
		var units int64
		var ns float64
		for _, r := range runs {
			for k := range r.Units {
				if k == l || l == int(parallel.NumLayers) {
					units += r.Units[k]
					ns += r.MeasuredNS[k]
				}
			}
		}
		var fit, committed any = "", ""
		if l < int(parallel.NumLayers) {
			name = parallel.Layer(l).String()
			fit, committed = fitted[l], parallel.Weights[l]
		}
		t.AddRow(name, units, ns/1e6, fit, committed,
			rmsRelErr(runs, &fitted, l), rmsRelErr(runs, &parallel.Weights, l),
			rmsRelErr(runs[:split], &parallel.Weights, l), rmsRelErr(runs[split:], &parallel.Weights, l))
	}
	return t, nil
}

// fitWeight returns the weight of layer l that minimises rmsRelErr over
// runs: with x = units/measured per run, Σx / Σx².
func fitWeight(runs []parallel.CostModel, l int) float64 {
	var sx, sxx float64
	for _, r := range runs {
		if r.MeasuredNS[l] > 0 {
			x := float64(r.Units[l]) / r.MeasuredNS[l]
			sx += x
			sxx += x * x
		}
	}
	if sxx == 0 {
		return 0
	}
	return sx / sxx
}

// rmsRelErr returns the RMS of (modelled − measured)/measured, under
// weights w, of layer l's time or, when l is NumLayers, of the whole
// run's, over the runs whose measured time is positive.
func rmsRelErr(runs []parallel.CostModel, w *[parallel.NumLayers]float64, l int) float64 {
	var sum float64
	n := 0
	for _, r := range runs {
		var modelled, measured float64
		for k := range w {
			if k == l || l == int(parallel.NumLayers) {
				modelled += w[k] * float64(r.Units[k])
				measured += r.MeasuredNS[k]
			}
		}
		if measured > 0 {
			e := (modelled - measured) / measured
			sum += e * e
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}
