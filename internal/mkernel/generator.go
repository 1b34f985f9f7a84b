package mkernel

import (
	"fmt"

	"autogemm/internal/asm"
)

// Config selects a micro-kernel variant.
//
// The generated kernel computes C(m_r, n_r) (+)= A(m_r, k_c) · B(k_c, n_r)
// with the AAPCS64-style argument convention
//
//	x0 = &A, x1 = &B, x2 = &C, x3 = lda, x4 = ldb, x5 = ldc
//
// where leading dimensions are in elements (the kernel converts them to
// bytes itself, as in the paper's Listing 1). Matrices are row-major.
//
// Over-read contract: like the paper's kernels (and most hand-written
// BLAS micro-kernels), the generated code may read up to one vector past
// the end of each A row and up to two rows past the end of the B panel.
// Callers must allocate panels with that much slack; package core does.
type Config struct {
	Tile  Tile
	KC    int
	Lanes int // σ_lane

	// Rotate enables rotating register allocation (§III-C1). The flavour
	// is chosen from register headroom alone: B double-buffering
	// (Eqn 10) whenever its second register set fits, then A rotation
	// (Eqn 9) with whatever registers remain.
	Rotate bool
	// LoadC selects accumulate-into-C (load C in the prologue) versus
	// overwrite (zero the accumulators; used for the first k_c chunk).
	LoadC bool
	// Prefetch emits the prologue PRFM hints of Listing 1.
	Prefetch bool
}

// Name returns a stable identifier for the kernel variant.
func (c Config) Name() string {
	s := fmt.Sprintf("mk_%dx%dx%d_l%d", c.Tile.MR, c.Tile.NR, c.KC, c.Lanes)
	if c.Rotate {
		s += "_rot"
	}
	if !c.LoadC {
		s += "_bz"
	}
	return s
}

// Argument register assignments shared by all generated kernels.
const (
	regArgA    = 0
	regArgB    = 1
	regArgC    = 2
	regArgLda  = 3
	regArgLdb  = 4
	regArgLdc  = 5
	regRowBase = 6  // x6..x6+mr-1: A row pointers; x6+mr..x6+2mr-1: C row pointers
	regBBase   = 28 // band kernels: saved B panel base
	regCounter = 29 // main loop counter
)

// MaxMR is the largest m_r the scalar-register convention supports
// (A and C row pointers occupy x6..x6+2·m_r−1, capped below x28).
const MaxMR = 11

// MaxNROverhang bounds how far a padded tile may write past a block's
// lane-quantized n extent: the padded strategies use tiles no wider than
// 8·σ_lane, so buffers sized with this slack absorb every overhang.
func MaxNROverhang(lanes int) int { return 8 * lanes }

// Generatable reports whether a kernel can actually be emitted for the
// tile: register-feasible and within the row-pointer ABI limit. Table II
// enumerates all 58 register-feasible tiles; a handful of extreme-m_r
// corner shapes (m_r > 11, all with lower AI than available
// alternatives) are excluded from generation.
func (t Tile) Generatable(lanes int) bool {
	return t.Feasible(lanes) && t.MR <= MaxMR
}

// gen is the emission state for one kernel.
type gen struct {
	cfg  Config
	p    *asm.Program
	mr   int
	nhat int // n̂_r
	khat int // ⌊k_c / σ_lane⌋
	rem  int // k_c mod σ_lane

	rotA int  // rows with a second A register set (compute-bound rotation)
	rotB bool // B double-buffering (memory-bound rotation)

	labelSeq int
}

func (g *gen) regC(row, col int) asm.Reg { return asm.V(row*g.nhat + col) }
func (g *gen) regA(row int) asm.Reg      { return asm.V(g.mr*g.nhat + row) }
func (g *gen) regB(col int) asm.Reg      { return asm.V(g.mr*g.nhat + g.mr + col) }
func (g *gen) regB2(col int) asm.Reg     { return asm.V(g.mr*g.nhat + g.mr + g.nhat + col) }

// regA2 places the rotated A set after the (possibly doubled) B sets.
func (g *gen) regA2(row int) asm.Reg {
	off := g.mr*g.nhat + g.mr + g.nhat
	if g.rotB {
		off += g.nhat
	}
	return asm.V(off + row)
}

// aReg returns the A register for a row under rotation parity. Parity 0
// is the primary set; in parity 1 the first rotA rows live in the spare
// set (they were preloaded during the previous block).
func (g *gen) aReg(row, parity int) asm.Reg {
	if parity == 1 && row < g.rotA {
		return g.regA2(row)
	}
	return g.regA(row)
}

// bReg returns the B register for a column at global k-step parity.
func (g *gen) bReg(col, parity int) asm.Reg {
	if g.rotB && parity == 1 {
		return g.regB2(col)
	}
	return g.regB(col)
}

func newGen(cfg Config) (*gen, error) {
	t := cfg.Tile
	if cfg.Lanes <= 0 {
		return nil, fmt.Errorf("mkernel: lanes must be positive")
	}
	if cfg.KC <= 0 {
		return nil, fmt.Errorf("mkernel: kc must be positive, got %d", cfg.KC)
	}
	if !t.Generatable(cfg.Lanes) {
		return nil, fmt.Errorf("mkernel: tile %s is not generatable for %d lanes", t, cfg.Lanes)
	}
	g := &gen{
		cfg:  cfg,
		mr:   t.MR,
		nhat: t.NR / cfg.Lanes,
		khat: cfg.KC / cfg.Lanes,
		rem:  cfg.KC % cfg.Lanes,
	}
	if cfg.Rotate {
		spare := 32 - t.RegistersNeeded(cfg.Lanes)
		// B-side double buffering (Eqn 10) removes the FMA→LOAD→FMA
		// bubble that dominates memory-bound tiles — and, on chips whose
		// load latency exceeds one k-step of FMA work, hurts nominally
		// compute-bound tiles too. Apply it whenever the registers fit,
		// then spend what remains on the A-side rotation (Eqn 9). A-side
		// preloads are spread across the σ_lane k-steps of a block, so at
		// most σ_lane rows can rotate.
		if spare >= g.nhat {
			g.rotB = true
			spare -= g.nhat
		}
		g.rotA = min(min(spare, g.mr), cfg.Lanes)
	}
	return g, nil
}

// Generate emits a single-tile micro-kernel.
func Generate(cfg Config) (*asm.Program, error) {
	k, err := build(cfg)
	return k.prog, err
}

// emit generates and validates a single-tile micro-kernel.
func (c Config) emit() (*asm.Program, error) {
	g, err := newGen(c)
	if err != nil {
		return nil, err
	}
	g.p = asm.NewProgram(c.Name())
	g.emitSetup(true)
	g.emitPrologue()
	g.emitMainloop("kloop")
	g.emitEpilogueFMA()
	for _, in := range g.storeInstrs() {
		g.p.Instrs = append(g.p.Instrs, in)
	}
	g.p.Ret()
	return g.p, g.p.Validate()
}

// emitSetup converts strides to bytes and materializes the A and C row
// pointers (Listing 1 lines 5–16). When convertStrides is false the
// strides are assumed already converted (band kernels do it once).
func (g *gen) emitSetup(convertStrides bool) {
	p := g.p
	if g.cfg.Prefetch {
		p.Prfm(asm.X(regArgA), 0).Comment("prefetch A")
		p.Prfm(asm.X(regArgB), 0).Comment("prefetch B")
		p.Prfm(asm.X(regArgC), 0).Comment("prefetch C")
	}
	if convertStrides {
		p.Lsl(asm.X(regArgLda), asm.X(regArgLda), 2).Comment("lda *= 4 bytes")
		p.Lsl(asm.X(regArgLdb), asm.X(regArgLdb), 2).Comment("ldb *= 4 bytes")
		p.Lsl(asm.X(regArgLdc), asm.X(regArgLdc), 2).Comment("ldc *= 4 bytes")
	}
	p.Mov(asm.X(regRowBase), asm.X(regArgA)).Comment("A row 0")
	p.Mov(asm.X(regRowBase+g.mr), asm.X(regArgC)).Comment("C row 0")
	for row := 1; row < g.mr; row++ {
		p.Add(asm.X(regRowBase+row), asm.X(regRowBase+row-1), asm.X(regArgLda))
		p.Add(asm.X(regRowBase+g.mr+row), asm.X(regRowBase+g.mr+row-1), asm.X(regArgLdc))
	}
}

// cLoadInstrs returns the prologue accumulator initialization: loads of
// C(m_r, n_r) when accumulating, or register zeroing otherwise, in the
// same (row, col) order that storeInstrs uses.
func (g *gen) cLoadInstrs() []asm.Instr {
	var out []asm.Instr
	vb := int64(g.cfg.Lanes * 4)
	for row := 0; row < g.mr; row++ {
		for col := 0; col < g.nhat; col++ {
			if g.cfg.LoadC {
				out = append(out, asm.Instr{
					Op: asm.OpLdrQ, Dst: g.regC(row, col),
					Src1: asm.X(regRowBase + g.mr + row), Imm: int64(col) * vb,
				})
			} else {
				out = append(out, asm.Instr{Op: asm.OpVZero, Dst: g.regC(row, col)})
			}
		}
	}
	return out
}

// abLoadInstrs returns the prologue loads of the first A block and first
// B row(s) (Listing 1 lines 17–24), including the B pointer advance.
func (g *gen) abLoadInstrs() []asm.Instr {
	var out []asm.Instr
	vb := int64(g.cfg.Lanes * 4)
	for row := 0; row < g.mr; row++ {
		out = append(out, asm.Instr{
			Op: asm.OpLdrQPost, Dst: g.regA(row), Src1: asm.X(regRowBase + row), Imm: vb,
			Comment: "load A block 0",
		})
	}
	rows := 1
	if g.rotB {
		rows = 2 // double-buffered B: preload rows 0 and 1
	}
	for r := 0; r < rows; r++ {
		for col := 0; col < g.nhat; col++ {
			out = append(out, asm.Instr{
				Op: asm.OpLdrQ, Dst: g.bReg(col, r%2), Src1: asm.X(regArgB), Imm: int64(col) * vb,
				Comment: fmt.Sprintf("load B row %d", r),
			})
		}
		out = append(out, asm.Instr{
			Op: asm.OpAdd, Dst: asm.X(regArgB), Src1: asm.X(regArgB), Src2: asm.X(regArgLdb),
		})
	}
	return out
}

func (g *gen) emitPrologue() {
	for _, in := range g.cLoadInstrs() {
		g.p.Instrs = append(g.p.Instrs, in)
	}
	for _, in := range g.abLoadInstrs() {
		g.p.Instrs = append(g.p.Instrs, in)
	}
}

// emitBlock emits one unrolled block of σ_lane k-steps. blockParity
// selects the A register set under compute-bound rotation.
func (g *gen) emitBlock(blockParity int) {
	p := g.p
	lanes := g.cfg.Lanes
	vb := int64(lanes * 4)
	for i := 0; i < lanes; i++ {
		kParity := i % 2 // B set parity under memory-bound rotation
		for col := 0; col < g.nhat; col++ {
			for row := 0; row < g.mr; row++ {
				p.Fmla(g.regC(row, col), g.bReg(col, kParity), g.aReg(row, blockParity), i)
			}
			// Load B for the upcoming k-step into the set this step just
			// finished reading (one step ahead normally, two with rotB).
			p.LdrQ(g.bReg(col, kParity), asm.X(regArgB), int64(col)*vb)
		}
		p.Add(asm.X(regArgB), asm.X(regArgB), asm.X(regArgLdb))
		// Compute-bound rotation: spread the next block's A loads for the
		// first rotA rows across the FMA stream (Fig 3-c).
		if i < g.rotA {
			p.LdrQPost(g.aReg(i, 1-blockParity), asm.X(regRowBase+i), vb).
				Comment("rotated A preload")
		}
	}
	// Remaining A rows reload in place at block end (Listing 1 line 36-38).
	for row := g.rotA; row < g.mr; row++ {
		p.LdrQPost(g.regA(row), asm.X(regRowBase+row), vb).Comment("load next A block")
	}
	if g.cfg.Prefetch {
		// L2 prefetch hints for the upcoming panel data (§V-C: the
		// kernels keep L2 prefetch instructions; L1 residency comes from
		// blocking, not prefetch). Constant byte distances ahead of the
		// walking pointers, as hand-written kernels do.
		p.Prfm(asm.X(regArgB), 256).Comment("L2 prefetch B ahead")
		p.Prfm(asm.X(regRowBase), 64).Comment("L2 prefetch A ahead")
	}
}

// emitMainloop emits the k̂_c unrolled loop. With compute-bound rotation
// the body holds two blocks (register sets swap each block), so the loop
// iterates ⌊k̂_c/2⌋ times with a peeled trailing block when k̂_c is odd.
func (g *gen) emitMainloop(label string) {
	p := g.p
	if g.khat == 0 {
		return
	}
	label = fmt.Sprintf("%s_%d", label, g.labelSeq)
	g.labelSeq++
	if g.rotA > 0 {
		pairs := g.khat / 2
		if pairs > 0 {
			p.MovI(asm.X(regCounter), int64(pairs)).Comment("loop counter (block pairs)")
			p.Label(label)
			g.emitBlock(0)
			g.emitBlock(1)
			p.Subs(asm.X(regCounter), asm.X(regCounter), 1)
			p.Bne(label)
		}
		if g.khat%2 == 1 {
			g.emitBlock(0)
		}
		return
	}
	p.MovI(asm.X(regCounter), int64(g.khat)).Comment("loop counter k̂c")
	p.Label(label)
	g.emitBlock(0)
	p.Subs(asm.X(regCounter), asm.X(regCounter), 1)
	p.Bne(label)
}

// epilogueAParity returns which A register set holds the remainder block
// after the main loop.
func (g *gen) epilogueAParity() int {
	if g.rotA > 0 {
		return g.khat % 2
	}
	return 0
}

// emitEpilogueFMA emits the k_c-remainder FMAs (Eqn 7's post-remainder
// computation). The remainder A block was loaded by the final main-loop
// block (or the prologue when k̂_c = 0); B rows stream as in the body.
func (g *gen) emitEpilogueFMA() {
	p := g.p
	vb := int64(g.cfg.Lanes * 4)
	aParity := g.epilogueAParity()
	for i := 0; i < g.rem; i++ {
		kParity := i % 2
		for col := 0; col < g.nhat; col++ {
			for row := 0; row < g.mr; row++ {
				p.Fmla(g.regC(row, col), g.bReg(col, kParity), g.aReg(row, aParity), i)
			}
		}
		if i < g.rem-1 {
			for col := 0; col < g.nhat; col++ {
				p.LdrQ(g.bReg(col, kParity), asm.X(regArgB), int64(col)*vb)
			}
			p.Add(asm.X(regArgB), asm.X(regArgB), asm.X(regArgLdb))
		}
	}
}

// storeInstrs returns the epilogue stores of C(m_r, n_r). Stores
// post-increment the C row pointers so that, in a band kernel, they end
// up pointing at the next tile's columns.
func (g *gen) storeInstrs() []asm.Instr {
	var out []asm.Instr
	vb := int64(g.cfg.Lanes * 4)
	for row := 0; row < g.mr; row++ {
		for col := 0; col < g.nhat; col++ {
			out = append(out, asm.Instr{
				Op: asm.OpStrQPost, Dst: g.regC(row, col),
				Src1: asm.X(regRowBase + g.mr + row), Imm: vb,
			})
		}
	}
	return out
}
