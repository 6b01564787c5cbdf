package parallel

// CostModel accumulates a work/span account of an algorithm's execution so
// that strong-scaling behaviour (paper Figs 4b, 6, 7) can be modelled
// faithfully on hosts with fewer cores than the paper's 128-core node.
//
// Code paths charge counted work to a Layer: serial work (the live
// Metropolis-Hastings pass, blockmodel rebuilds, the MDL pass, the merge
// sort and relabel) and parallel work (asynchronous Gibbs passes, merge
// candidate scoring), plus a per-parallel-region overhead modelling
// barrier + fork/join cost. Each layer counts units that depend only on
// the chain (blockmodel.Scratch.Work lists them) and converts them to
// nanoseconds with its committed weight (Weights), fit to measured
// one-worker layer times. So T(1) approximates the measured one-worker
// runtime, T(1)/T(p) gives the modelled speedup, and both are the same
// bits in every run of one chain, whatever the worker count or the
// host's load.
//
// Plain Amdahl accounting (parallel work ÷ p) would predict ~100×
// speedups for asynchronous Gibbs at 128 threads; the paper measures at
// most 7.6× and a strong-scaling taper starting around 16 threads
// (Fig 7). The missing ingredient is memory-bandwidth saturation: every
// A-SBP worker makes random reads into the shared blockmodel, so beyond
// a modest thread count added cores contend for the same DRAM channels.
// The model captures this with a saturating effective parallelism
//
//	pEff(p) = p / (1 + (p−1)/Saturation)
//
// so pEff grows almost linearly at low p and approaches Saturation+1 as
// p → ∞. Saturation defaults to DefaultSaturation, calibrated so that
// pEff(128) ≈ 20 — which together with the 2–4× sweep inflation of
// asynchronous processing reproduces the paper's 1.7–7.6× MCMC speedup
// band and the ≥16-thread taper.
type CostModel struct {
	SerialWork   float64 // modelled ns of inherently serial work
	ParallelWork float64 // modelled ns of perfectly divisible work
	Regions      int64   // number of parallel regions (async passes, merge scans)

	// Saturation is the memory-bandwidth saturation point; 0 selects
	// DefaultSaturation.
	Saturation float64

	// Units counts each layer's charged work, and MeasuredNS the wall
	// time the same work took. Time never reads MeasuredNS; the weight
	// fit (harness.Config.CostFit) compares the two.
	Units      [NumLayers]int64
	MeasuredNS [NumLayers]float64
}

// DefaultSaturation is the effective-parallelism asymptote used when
// CostModel.Saturation is unset. See the package comment for the
// calibration rationale.
const DefaultSaturation = 24.0

// RegionOverheadNs is the modelled per-region fork/join + barrier cost in
// nanoseconds, growing logarithmically with p as tree barriers do. The
// magnitude matches goroutine wake/park cost (~1µs), the same order as
// an OpenMP barrier on the paper's EPYC node.
const RegionOverheadNs = 1000.0

// AddSerial charges units of layer l's work as serial work, at
// Weights[l] ns a unit; ns is the time the work took, kept for the fit.
func (c *CostModel) AddSerial(l Layer, units int64, ns float64) {
	c.SerialWork += Weights[l] * float64(units)
	c.count(l, units, ns)
}

// AddParallel charges units of layer l's work as divisible work spread
// over one parallel region, at Weights[l] ns a unit; ns is the summed
// busy time of the region's workers, kept for the fit.
func (c *CostModel) AddParallel(l Layer, units int64, ns float64) {
	c.ParallelWork += Weights[l] * float64(units)
	c.Regions++
	c.count(l, units, ns)
}

func (c *CostModel) count(l Layer, units int64, ns float64) {
	c.Units[l] += units
	c.MeasuredNS[l] += ns
}

// Merge adds o's accounts into c.
func (c *CostModel) Merge(o CostModel) {
	c.SerialWork += o.SerialWork
	c.ParallelWork += o.ParallelWork
	c.Regions += o.Regions
	for l := range c.Units {
		c.count(Layer(l), o.Units[l], o.MeasuredNS[l])
	}
}

// effectiveParallelism returns pEff(p) under the saturation model.
func (c *CostModel) effectiveParallelism(p int) float64 {
	sat := c.Saturation
	if sat <= 0 {
		sat = DefaultSaturation
	}
	pf := float64(p)
	return pf / (1 + (pf-1)/sat)
}

// Time returns the modelled execution time in nanoseconds at p threads.
func (c *CostModel) Time(p int) float64 {
	if p < 1 {
		p = 1
	}
	overhead := float64(c.Regions) * RegionOverheadNs * log2(p)
	return c.SerialWork + c.ParallelWork/c.effectiveParallelism(p) + overhead
}

// Speedup returns T(1)/T(p) under the model.
func (c *CostModel) Speedup(p int) float64 {
	t1 := c.Time(1)
	tp := c.Time(p)
	if tp == 0 {
		return 1
	}
	return t1 / tp
}

// RelativeSpeedup returns base.Time(p) / variant.Time(p): the modelled
// speedup of `variant` over `base` when both run with p threads — the
// quantity the paper's Figs 4b and 6 report (SBP MCMC time ÷ variant
// MCMC time, both on the 128-thread node).
func RelativeSpeedup(base, variant CostModel, p int) float64 {
	tv := variant.Time(p)
	if tv == 0 {
		return 1
	}
	return base.Time(p) / tv
}

func log2(p int) float64 {
	l := 0.0
	for v := 1; v < p; v <<= 1 {
		l++
	}
	if l == 0 {
		return 1
	}
	return l
}
