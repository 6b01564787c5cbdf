package blockmodel

import "math"

// The DCSBM minimum description length (paper Eq. 2):
//
//	MDL = E·h(C²/E) + V·ln C − L(G|B)
//
// with h(x) = (1+x)·ln(1+x) − x·ln x, and the log-likelihood (Eq. 1)
//
//	L(G|B) = Σ_{rs} M_rs · ln( M_rs / (d_out_r · d_in_s) ),
//
// which LogLikelihood sums in the split form ΔS also uses (delta.go):
// with f(x) = x·ln x read from xlogxTable,
//
//	L(G|B) = Σ_{rs} f(M_rs) − Σ_r [f(d_out_r) + f(d_in_r)],
//
// because row r of M sums to d_out_r and column s to d_in_s. That
// takes no division and, for counts below the table's length, no
// logarithm.
//
// Natural logarithms are used throughout; MDL values are therefore in
// nats, and all ratios (ΔMDL thresholds, normalized MDL) are base-
// independent.

// hFunc is h(x) = (1+x)ln(1+x) − x ln x, with h(0) = 0.
func hFunc(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return (1+x)*math.Log(1+x) - x*math.Log(x)
}

// LogLikelihood returns L(G|B) (Eq. 1) from the x·ln x split. The cells
// are summed in row-major order in both storage modes — dense storage
// adds its zero cells, and f(0) = 0 changes no bit — and the block
// degrees after them in block order. The value is therefore a pure
// function of the state: dense and sparse storage of one state give the
// same bits, and so does Compact's renumbering, since the empty blocks
// it drops add only zeros. FromCheckpoint's exact check relies on both.
func (bm *Blockmodel) LogLikelihood() float64 {
	var cells float64
	if data, ok := bm.M.DenseData(); ok {
		for _, m := range data {
			cells += xlogx(m)
		}
	} else {
		for r := 0; r < bm.C; r++ {
			_, vals, _ := bm.M.RowView(r)
			for _, m := range vals {
				cells += xlogx(m)
			}
		}
	}
	var degrees float64
	for r := 0; r < bm.C; r++ {
		degrees += xlogx(bm.DOut[r]) + xlogx(bm.DIn[r])
	}
	return cells - degrees
}

// MDLWork returns the units of work of one MDL pass, in Scratch.Work's
// terms: the cells LogLikelihood sums (all C² in dense storage, the
// nonzeros in sparse) and the 2C block degrees.
func (bm *Blockmodel) MDLWork() int64 {
	cells := bm.C * bm.C
	if !bm.M.IsDense() {
		cells = bm.M.NonZeros()
	}
	return int64(cells + 2*bm.C)
}

// ModelTerm returns E·h(C²/E) + V·ln(C) for the given block count — the
// part of the MDL that penalises model complexity. c counts non-empty
// blocks.
func (bm *Blockmodel) ModelTerm(c int) float64 {
	e := float64(bm.G.NumEdges())
	v := float64(bm.G.NumVertices())
	if e == 0 || c <= 0 {
		return 0
	}
	cf := float64(c)
	return e*hFunc(cf*cf/e) + v*math.Log(cf)
}

// MDL returns the full description length of the current state (Eq. 2).
// The block count used in the model term is the number of non-empty
// blocks, so states that empty blocks during MCMC are scored correctly.
func (bm *Blockmodel) MDL() float64 {
	return bm.ModelTerm(bm.NumNonEmptyBlocks()) - bm.LogLikelihood()
}

// NullDescriptionLength returns the description length of the structure-
// less null blockmodel in which every vertex belongs to a single
// community — the normaliser for the paper's MDL_norm metric. For C=1:
// L = E·ln(E/(E·E)) = −E·ln E, so MDL_null = E·h(1/E) + E·ln E.
func NullDescriptionLength(v, e int) float64 {
	if e == 0 {
		return 0
	}
	ef := float64(e)
	// ModelTerm with C=1: E·h(1/E) + V·ln 1 = E·h(1/E).
	// L = E·ln(1/E) = −E·ln E  ⇒  MDL = E·h(1/E) + E·ln E.
	return ef*hFunc(1/ef) + ef*math.Log(ef)
}

// NormalizedMDL returns MDL / MDL_null, the paper's graph-size-independent
// quality metric (lower is better; values ≥ 1 indicate no structure
// beyond the null model was found).
func (bm *Blockmodel) NormalizedMDL() float64 {
	null := NullDescriptionLength(bm.G.NumVertices(), bm.G.NumEdges())
	if null == 0 {
		return 1
	}
	return bm.MDL() / null
}
