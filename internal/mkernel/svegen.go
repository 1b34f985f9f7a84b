package mkernel

import (
	"fmt"

	"autogemm/internal/asm"
)

// PredConfig selects a predicated SVE micro-kernel. Unlike the NEON-style
// generator, n_r may be ANY positive width: the tail vector column is
// governed by a WHILELT predicate, so no column padding and no buffer
// over-read are needed — the SVE-native edge handling the paper lists as
// future work for A64FX (§V-C). The k tail is predicated too, so the
// kernel performs no out-of-bounds access at all.
type PredConfig struct {
	Tile  Tile // NR need not be a multiple of Lanes
	KC    int
	Lanes int
	LoadC bool
}

// Name returns a stable identifier.
func (c PredConfig) Name() string {
	s := fmt.Sprintf("mksve_%dx%dx%d_l%d", c.Tile.MR, c.Tile.NR, c.KC, c.Lanes)
	if !c.LoadC {
		s += "_bz"
	}
	return s
}

// Feasible reports whether the predicated kernel fits the register
// files: ⌈n_r/σ⌉ vector columns plus A and B registers within 32.
func (c PredConfig) Feasible() bool {
	if c.Tile.MR < 1 || c.Tile.MR > MaxMR || c.Tile.NR < 1 || c.KC < 1 || c.Lanes < 1 {
		return false
	}
	nhat := (c.Tile.NR + c.Lanes - 1) / c.Lanes
	return c.Tile.MR*nhat+c.Tile.MR+nhat <= 32
}

// Predicate-construction temporaries. They are x6 and x7 — the same
// registers the row pointers later occupy — which is safe because every
// predicate is built up front, before the row-pointer setup, and
// predicates never change afterwards (the k-tail predicate only applies
// to the final block, so one WHILELT covers it).
const (
	regPredIdx   = regRowBase
	regPredLimit = regRowBase + 1
)

// GeneratePredicated emits a fully-unrolled predicated kernel computing
// C(m_r, n_r) (+)= A(m_r, k_c)·B(k_c, n_r) with exact bounds: predicated
// loads/stores at the n tail and k tail. The argument convention matches
// Generate.
func GeneratePredicated(cfg PredConfig) (*asm.Program, error) {
	if !cfg.Feasible() {
		return nil, fmt.Errorf("mkernel: predicated config %s not feasible", cfg.Name())
	}
	mr := cfg.Tile.MR
	lanes := cfg.Lanes
	nhat := (cfg.Tile.NR + lanes - 1) / lanes
	kc := cfg.KC

	regC := func(row, col int) asm.Reg { return asm.V(row*nhat + col) }
	regA := func(row int) asm.Reg { return asm.V(mr*nhat + row) }
	regB := func(col int) asm.Reg { return asm.V(mr*nhat + mr + col) }
	pFull := asm.P(0) // all lanes
	pTail := asm.P(1) // n-tail lanes
	pK := asm.P(2)    // k-tail lanes for A loads
	colPred := func(col int) asm.Reg {
		if col == nhat-1 {
			return pTail
		}
		return pFull
	}

	p := asm.NewProgram(cfg.Name())
	// Predicates first, while x6/x7 are still free: full, the n-tail
	// (whilelt((n̂-1)·σ, n_r)) and the k-tail for the final block.
	blocks := (kc + lanes - 1) / lanes
	p.PTrue(pFull)
	p.MovI(asm.X(regPredIdx), int64((nhat-1)*lanes))
	p.MovI(asm.X(regPredLimit), int64(cfg.Tile.NR))
	p.Whilelt(pTail, asm.X(regPredIdx), asm.X(regPredLimit)).Comment("n-tail lanes")
	p.MovI(asm.X(regPredIdx), int64((blocks-1)*lanes))
	p.MovI(asm.X(regPredLimit), int64(kc))
	p.Whilelt(pK, asm.X(regPredIdx), asm.X(regPredLimit)).Comment("k-tail lanes")

	// Strides to bytes; row pointers (reusing x6/x7 onwards).
	p.Lsl(asm.X(regArgLda), asm.X(regArgLda), 2)
	p.Lsl(asm.X(regArgLdb), asm.X(regArgLdb), 2)
	p.Lsl(asm.X(regArgLdc), asm.X(regArgLdc), 2)
	p.Mov(asm.X(regRowBase), asm.X(regArgA))
	p.Mov(asm.X(regRowBase+mr), asm.X(regArgC))
	for row := 1; row < mr; row++ {
		p.Add(asm.X(regRowBase+row), asm.X(regRowBase+row-1), asm.X(regArgLda))
		p.Add(asm.X(regRowBase+mr+row), asm.X(regRowBase+mr+row-1), asm.X(regArgLdc))
	}

	// Accumulators.
	for row := 0; row < mr; row++ {
		for col := 0; col < nhat; col++ {
			if cfg.LoadC {
				p.Ld1W(regC(row, col), colPred(col), asm.X(regRowBase+mr+row), int64(col*lanes*4))
			} else {
				p.VZero(regC(row, col))
			}
		}
	}

	// Fully unrolled k blocks with an exact k-tail predicate. B rows are
	// loaded one step ahead, as in the NEON generator's pipeline; because
	// the unroll is total, the final step simply omits its load — exact
	// bounds without losing the load/FMA overlap.
	for col := 0; col < nhat; col++ {
		p.Ld1W(regB(col), colPred(col), asm.X(regArgB), int64(col*lanes*4)).
			Comment("load B row 0")
	}
	p.Add(asm.X(regArgB), asm.X(regArgB), asm.X(regArgLdb))
	g := 0
	for blk := 0; blk < blocks; blk++ {
		kbase := blk * lanes
		steps := min(lanes, kc-kbase)
		aPred := pFull
		if blk == blocks-1 {
			aPred = pK
		}
		for row := 0; row < mr; row++ {
			p.Ld1W(regA(row), aPred, asm.X(regRowBase+row), int64(kbase*4))
		}
		for i := 0; i < steps; i++ {
			for col := 0; col < nhat; col++ {
				for row := 0; row < mr; row++ {
					p.Fmla(regC(row, col), regB(col), regA(row), i)
				}
				if g+1 < kc {
					p.Ld1W(regB(col), colPred(col), asm.X(regArgB), int64(col*lanes*4))
				}
			}
			if g+1 < kc {
				p.Add(asm.X(regArgB), asm.X(regArgB), asm.X(regArgLdb))
			}
			g++
		}
	}

	// Stores, exact to the n edge.
	for row := 0; row < mr; row++ {
		for col := 0; col < nhat; col++ {
			p.St1W(regC(row, col), colPred(col), asm.X(regRowBase+mr+row), int64(col*lanes*4))
		}
	}
	p.Ret()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if _, err := analyzeGate(p, cfg.AnalysisOptions()); err != nil {
		return nil, err
	}
	return p, nil
}
