package mkernel

import (
	"testing"

	"autogemm/internal/asm/analysis"
	"autogemm/internal/refgemm"
	"autogemm/internal/sim"
)

// FuzzGenerate feeds arbitrary tile/depth/option combinations to the
// generator: any configuration it accepts must validate, encode (NEON)
// and compute the reference result.
func FuzzGenerate(f *testing.F) {
	f.Add(uint8(5), uint8(16), uint8(32), true, true)
	f.Add(uint8(2), uint8(16), uint8(7), false, true)
	f.Add(uint8(1), uint8(4), uint8(1), true, false)
	f.Add(uint8(8), uint8(8), uint8(64), false, false)
	f.Fuzz(func(t *testing.T, mrRaw, nrRaw, kcRaw uint8, rotate, loadC bool) {
		mr := int(mrRaw)%12 + 1
		nr := (int(nrRaw)%8 + 1) * 4
		kc := int(kcRaw)%80 + 1
		cfg := Config{Tile: Tile{MR: mr, NR: nr}, KC: kc, Lanes: 4,
			Rotate: rotate, LoadC: loadC}
		prog, err := Generate(cfg)
		if err != nil {
			return // infeasible configurations may be rejected
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("%s: generated program invalid: %v", cfg.Name(), err)
		}
		if n := prog.VectorRegsUsed(); n > 32 {
			t.Fatalf("%s: %d vector registers", cfg.Name(), n)
		}
		// The dataflow analyzer must agree: zero findings on anything the
		// generator accepts (Generate gates on this too, but assert it
		// explicitly so a gate regression cannot hide it).
		opts, err := cfg.AnalysisOptions()
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		rep, err := analysis.Analyze(prog, opts)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		if !rep.OK() {
			t.Fatalf("%s: analyzer findings:\n%s", cfg.Name(), rep.String())
		}
		// Functional check against the reference.
		arena := sim.NewArena(1 << 14)
		aAddr := arena.Alloc(mr*kc + 8)
		bAddr := arena.Alloc((kc+2)*nr + 8)
		cAddr := arena.Alloc(mr*nr + 8)
		a := arena.Slice(aAddr, mr*kc)
		b := arena.Slice(bAddr, kc*nr)
		c := arena.Slice(cAddr, mr*nr)
		refgemm.Fill(a, mr, kc, kc, uint64(mrRaw)+1)
		refgemm.Fill(b, kc, nr, nr, uint64(nrRaw)+2)
		refgemm.Fill(c, mr, nr, nr, uint64(kcRaw)+3)
		want := make([]float32, mr*nr)
		if loadC {
			copy(want, c)
		}
		refgemm.GEMM(mr, nr, kc, a, kc, b, nr, want, nr)
		m := sim.NewMachine(arena, 4)
		m.SetArg(0, aAddr)
		m.SetArg(1, bAddr)
		m.SetArg(2, cAddr)
		m.SetArg(3, int64(kc))
		m.SetArg(4, int64(nr))
		m.SetArg(5, int64(nr))
		if err := m.Run(prog, 50_000_000); err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		if e := refgemm.MaxRelErr(c, want, mr, nr, nr, nr); e > refgemm.Tolerance {
			t.Fatalf("%s: rel err %.3g", cfg.Name(), e)
		}
	})
}

// FuzzPredicated does the same for the SVE predicated generator with
// zero-slack buffers.
func FuzzPredicated(f *testing.F) {
	f.Add(uint8(4), uint8(17), uint8(16))
	f.Add(uint8(1), uint8(1), uint8(1))
	// Regression: m_r = 9 once collided the C row pointers with the
	// predicate scratch registers (found by fuzzing).
	f.Add(uint8(8), uint8(8), uint8(26))
	f.Fuzz(func(t *testing.T, mrRaw, nrRaw, kcRaw uint8) {
		cfg := PredConfig{
			Tile:  Tile{MR: int(mrRaw)%11 + 1, NR: int(nrRaw)%50 + 1},
			KC:    int(kcRaw)%40 + 1,
			Lanes: 16, LoadC: true,
		}
		if !cfg.Feasible() {
			return
		}
		prog, err := GeneratePredicated(cfg)
		if err != nil {
			t.Fatalf("feasible config rejected: %v", err)
		}
		rep, err := analysis.Analyze(prog, cfg.AnalysisOptions())
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		if !rep.OK() {
			t.Fatalf("%s: analyzer findings:\n%s", cfg.Name(), rep.String())
		}
		mr, nr, kc := cfg.Tile.MR, cfg.Tile.NR, cfg.KC
		arena := sim.NewArena(4)
		aAddr := arena.Alloc(mr * kc)
		bAddr := arena.Alloc(kc * nr)
		cAddr := arena.Alloc(mr * nr)
		a := arena.Slice(aAddr, mr*kc)
		b := arena.Slice(bAddr, kc*nr)
		c := arena.Slice(cAddr, mr*nr)
		refgemm.Fill(a, mr, kc, kc, 5)
		refgemm.Fill(b, kc, nr, nr, 6)
		want := make([]float32, mr*nr)
		refgemm.GEMM(mr, nr, kc, a, kc, b, nr, want, nr)
		m := sim.NewMachine(arena, 16)
		m.SetArg(0, aAddr)
		m.SetArg(1, bAddr)
		m.SetArg(2, cAddr)
		m.SetArg(3, int64(kc))
		m.SetArg(4, int64(nr))
		m.SetArg(5, int64(nr))
		if err := m.Run(prog, 50_000_000); err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		if e := refgemm.MaxRelErr(c, want, mr, nr, nr, nr); e > refgemm.Tolerance {
			t.Fatalf("%s: rel err %.3g", cfg.Name(), e)
		}
	})
}

// TestDescribe covers the kernel introspection report.
func TestDescribe(t *testing.T) {
	info, err := Describe(Config{Tile: Tile{MR: 5, NR: 16}, KC: 32, Lanes: 4,
		Rotate: true, LoadC: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.AIMax < 7.6 || info.AIMax > 7.63 {
		t.Errorf("AIMax = %.2f, want 7.62", info.AIMax)
	}
	if info.VectorRegs > 32 || info.VectorRegs < 29 {
		t.Errorf("VectorRegs = %d", info.VectorRegs)
	}
	if info.RotateA != 3 {
		t.Errorf("RotateA = %d, want 3 (the paper's 3 redundant registers for 5x16)", info.RotateA)
	}
	if info.Instrs.FMA == 0 || info.FLOPsPerIns <= 0 {
		t.Error("instruction mix empty")
	}
	if info.String() == "" {
		t.Error("empty report")
	}
	if _, err := Describe(Config{Tile: Tile{MR: 99, NR: 4}, KC: 4, Lanes: 4}); err == nil {
		t.Error("bad config described")
	}
}
