package mkernel

import (
	"fmt"

	"autogemm/internal/asm"
)

// PackConfig describes a generated packing kernel: the vectorized copy
// that moves a Rows × Cols panel from a strided source (leading
// dimension in x3) into a contiguous destination (leading dimension in
// x4). The paper describes autoGEMM as generating "in-library packing
// kernels" alongside the compute kernels; this generator produces them
// in the same IR so the simulator can time packing with the same
// machinery (the pack-kernels experiment compares the measurement with
// the analytic cost model used by Estimate).
//
// Convention: x0 = src, x1 = dst, x3 = src leading dimension, x4 = dst
// leading dimension (elements). Cols is rounded up to σ_lane by the
// caller; the generated kernel copies whole vectors.
type PackConfig struct {
	Rows, Cols int
	Lanes      int
}

// Name returns a stable identifier.
func (c PackConfig) Name() string {
	return fmt.Sprintf("pack_%dx%d_l%d", c.Rows, c.Cols, c.Lanes)
}

// GeneratePack emits the packing kernel. The row loop is a real loop
// (SUBS/BNE); the column copies are unrolled with a rotating pair of
// vector registers so loads and stores overlap.
func GeneratePack(cfg PackConfig) (*asm.Program, error) {
	if cfg.Rows < 1 || cfg.Cols < 1 || cfg.Lanes < 1 {
		return nil, fmt.Errorf("mkernel: bad pack config %+v", cfg)
	}
	if cfg.Cols%cfg.Lanes != 0 {
		return nil, fmt.Errorf("mkernel: pack cols %d not a multiple of σ_lane %d", cfg.Cols, cfg.Lanes)
	}
	p := asm.NewProgram(cfg.Name())
	vb := int64(cfg.Lanes * 4)
	nv := cfg.Cols / cfg.Lanes

	p.Lsl(asm.X(3), asm.X(3), 2).Comment("src stride to bytes")
	p.Lsl(asm.X(4), asm.X(4), 2).Comment("dst stride to bytes")
	p.Mov(asm.X(6), asm.X(0))
	p.Mov(asm.X(7), asm.X(1))
	p.MovI(asm.X(29), int64(cfg.Rows))
	p.Label("rows")
	// Copy one row, unrolled over vector chunks with two rotating regs.
	for v := 0; v < nv; v++ {
		p.LdrQ(asm.V(v%2), asm.X(6), int64(v)*vb)
		p.StrQ(asm.V(v%2), asm.X(7), int64(v)*vb)
	}
	p.Add(asm.X(6), asm.X(6), asm.X(3))
	p.Add(asm.X(7), asm.X(7), asm.X(4))
	p.Subs(asm.X(29), asm.X(29), 1)
	p.Bne("rows")
	p.Ret()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if _, err := analyzeGate(p, cfg.AnalysisOptions()); err != nil {
		return nil, err
	}
	return p, nil
}
