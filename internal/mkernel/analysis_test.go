package mkernel

import (
	"strings"
	"testing"

	"autogemm/internal/asm"
	"autogemm/internal/asm/analysis"
	"autogemm/internal/hw"
)

// analyzed tallies the distinct kernels a differential test proved
// clean.
type analyzed map[string]bool

// check re-analyzes a generated (and therefore already gated) kernel
// and fails the test on any finding. With wantBounds the report must
// also show the bounds pass ran.
func (seen analyzed) check(t *testing.T, name string, p *asm.Program, opts analysis.Options, wantBounds bool) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rep, err := analysis.Analyze(p, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !rep.OK() {
		t.Errorf("%s:\n%s", name, rep.String())
	}
	if wantBounds && !rep.BoundsChecked {
		t.Errorf("%s: bounds pass did not run", name)
	}
	seen[name] = true
}

// TestDifferentialAnalysis is the generator/analyzer differential over
// the whole generation space, once per modeled lane width (chips that
// share a width emit identical kernels): every generatable tile at
// k_c ∈ {σ, 2σ+1, 32} × rotation × accumulate, a uniform two-tile band
// and a mixed-width band that switches register layouts at the seam
// (each fused and unfused, with and without LoadC), predicated SVE
// kernels with ragged n and k tails, and a packing kernel. Every kernel
// must generate (which runs the analyzer gate) and re-analyze with zero
// findings. A finding here is a generator bug, an analyzer false
// positive, or both; either way it fails.
func TestDifferentialAnalysis(t *testing.T) {
	seen := analyzed{}
	done := map[int]bool{}
	for _, chip := range hw.All() {
		if done[chip.Lanes] {
			continue
		}
		done[chip.Lanes] = true
		lanes := chip.Lanes

		for _, tile := range FeasibleTiles(lanes) {
			if !tile.Generatable(lanes) {
				continue
			}
			for _, kc := range []int{lanes, 2*lanes + 1, 32} {
				for _, rotate := range []bool{false, true} {
					for _, loadC := range []bool{false, true} {
						cfg := Config{Tile: tile, KC: kc, Lanes: lanes,
							Rotate: rotate, LoadC: loadC}
						p, err := Generate(cfg)
						if err != nil {
							t.Fatalf("%s: %v", cfg.Name(), err)
						}
						opts, err := cfg.AnalysisOptions()
						if err != nil {
							t.Fatalf("%s: %v", cfg.Name(), err)
						}
						seen.check(t, cfg.Name(), p, opts, true)
					}
				}
			}
		}

		bands := []BandConfig{
			{Segments: []Segment{{Tile: Tile{MR: 4, NR: 2 * lanes}, Count: 2}},
				KC: 2*lanes + 1, Lanes: lanes, Rotate: true},
			{Segments: []Segment{
				{Tile: Tile{MR: 4, NR: 2 * lanes}, Count: 1},
				{Tile: Tile{MR: 4, NR: lanes}, Count: 1}},
				KC: 2*lanes + 1, Lanes: lanes, Rotate: true},
		}
		for _, bc := range bands {
			for _, fuse := range []bool{false, true} {
				for _, loadC := range []bool{false, true} {
					cfg := bc
					cfg.Fuse, cfg.LoadC = fuse, loadC
					p, err := GenerateBand(cfg)
					if err != nil {
						t.Fatalf("%s: %v", cfg.Name(), err)
					}
					opts, err := cfg.AnalysisOptions()
					if err != nil {
						t.Fatalf("%s: %v", cfg.Name(), err)
					}
					seen.check(t, cfg.Name(), p, opts, true)
				}
			}
		}

		if chip.SVE {
			for _, nr := range []int{lanes - 1, lanes + 3, 3 * lanes} {
				for _, kc := range []int{lanes, lanes + 5} {
					cfg := PredConfig{Tile: Tile{MR: 4, NR: nr}, KC: kc, Lanes: lanes, LoadC: true}
					if !cfg.Feasible() {
						continue
					}
					p, err := GeneratePredicated(cfg)
					if err != nil {
						t.Fatalf("%s: %v", cfg.Name(), err)
					}
					seen.check(t, cfg.Name(), p, cfg.AnalysisOptions(), true)
				}
			}
		}

		pack := PackConfig{Rows: 8, Cols: 4 * lanes, Lanes: lanes}
		p, err := GeneratePack(pack)
		if err != nil {
			t.Fatalf("%s: %v", pack.Name(), err)
		}
		seen.check(t, pack.Name(), p, pack.AnalysisOptions(), false)
	}
	// 657 kernels at σ_lane = 4 and 663 at σ_lane = 16.
	if len(seen) < 1320 {
		t.Errorf("differential covered only %d distinct kernels, want 1320", len(seen))
	}
}

// TestDifferentialAnalysisBandsAndSVE extends the differential to band,
// predicated-SVE and packing shapes off the main grid: a three-tile
// band, a mixed band whose narrow segment repeats, an unrotated
// unfused band, predicated kernels at m_r = 3 with both accumulate
// modes, and a pack whose row count is odd.
func TestDifferentialAnalysisBandsAndSVE(t *testing.T) {
	seen := analyzed{}
	lanes := 4
	bands := []BandConfig{
		{Segments: []Segment{{Tile: Tile{MR: 4, NR: 2 * lanes}, Count: 3}},
			KC: 2*lanes + 1, Lanes: lanes, Rotate: true, Fuse: true, LoadC: true},
		{Segments: []Segment{
			{Tile: Tile{MR: 4, NR: 2 * lanes}, Count: 1},
			{Tile: Tile{MR: 4, NR: lanes}, Count: 2}},
			KC: 13, Lanes: lanes, Rotate: true, Fuse: true, LoadC: true},
		{Segments: []Segment{{Tile: Tile{MR: 2, NR: lanes}, Count: 2}},
			KC: lanes, Lanes: lanes},
	}
	for _, bc := range bands {
		p, err := GenerateBand(bc)
		if err != nil {
			t.Fatalf("%s: %v", bc.Name(), err)
		}
		opts, err := bc.AnalysisOptions()
		if err != nil {
			t.Fatalf("%s: %v", bc.Name(), err)
		}
		seen.check(t, bc.Name(), p, opts, false)
	}

	for _, nr := range []int{7, 16, 33} {
		for _, loadC := range []bool{false, true} {
			cfg := PredConfig{Tile: Tile{MR: 3, NR: nr}, KC: 21, Lanes: 16, LoadC: loadC}
			if !cfg.Feasible() {
				continue
			}
			p, err := GeneratePredicated(cfg)
			if err != nil {
				t.Fatalf("%s: %v", cfg.Name(), err)
			}
			seen.check(t, cfg.Name(), p, cfg.AnalysisOptions(), true)
		}
	}

	pack := PackConfig{Rows: 5, Cols: 12, Lanes: 4}
	p, err := GeneratePack(pack)
	if err != nil {
		t.Fatal(err)
	}
	seen.check(t, pack.Name(), p, pack.AnalysisOptions(), false)
}

// findUnusedVector returns a vector register the program neither reads
// nor writes.
func findUnusedVector(p *asm.Program) asm.Reg {
	used := map[asm.Reg]bool{}
	for i := range p.Instrs {
		for _, r := range p.Instrs[i].Reads() {
			used[r] = true
		}
		for _, r := range p.Instrs[i].Writes() {
			used[r] = true
		}
	}
	for v := 0; v < asm.NumVectorRegs; v++ {
		if !used[asm.V(v)] {
			return asm.V(v)
		}
	}
	return asm.NoReg
}

// TestAnalysisGateRejects exercises the gate itself on a generated
// 4×8, k_c = 9 rotated kernel: the pristine program passes analyzeGate
// (exactly what Generate runs), and each defect class — corrupting the
// code or claiming a contract it does not keep — comes back as a hard
// error naming its diagnostic.
func TestAnalysisGateRejects(t *testing.T) {
	cfg := Config{Tile: Tile{MR: 4, NR: 8}, KC: 9, Lanes: 4, Rotate: true, LoadC: true}
	generate := func(t *testing.T, cfg Config) (*asm.Program, analysis.Options) {
		t.Helper()
		p, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts, err := cfg.AnalysisOptions()
		if err != nil {
			t.Fatal(err)
		}
		return p, opts
	}
	p, opts := generate(t, cfg)
	if _, err := analyzeGate(p, opts); err != nil {
		t.Fatalf("clean kernel rejected by gate: %v", err)
	}

	cases := []struct {
		name   string
		inject func(t *testing.T, p *asm.Program, opts *analysis.Options) *asm.Program
		want   string
	}{
		{
			// The first C store becomes a load of the same accumulator,
			// throwing the partial sum away.
			name: "clobber",
			inject: func(t *testing.T, p *asm.Program, _ *analysis.Options) *asm.Program {
				for i := range p.Instrs {
					if in := &p.Instrs[i]; in.Op == asm.OpStrQPost {
						*in = asm.Instr{Op: asm.OpLdrQ, Dst: in.Dst, Src1: in.Src1}
						break
					}
				}
				return p
			},
			want: "accumulator-clobber",
		},
		{
			// The first FMLA's multiplicand points at a vector register
			// nothing ever writes.
			name: "use-before-def",
			inject: func(t *testing.T, p *asm.Program, _ *analysis.Options) *asm.Program {
				unused := findUnusedVector(p)
				if unused == asm.NoReg {
					t.Fatal("no unused vector register to inject with")
				}
				for i := range p.Instrs {
					if p.Instrs[i].Op == asm.OpFmla {
						p.Instrs[i].Src1 = unused
						break
					}
				}
				return p
			},
			want: "use-before-def",
		},
		{
			// The kernel is untouched; the budget is shrunk below its
			// true working set.
			name: "pressure",
			inject: func(t *testing.T, p *asm.Program, opts *analysis.Options) *asm.Program {
				opts.VectorBudget = 4
				return p
			},
			want: "register-pressure",
		},
		{
			// Claim B double-buffering on the same tile generated without
			// rotation.
			name: "rotation",
			inject: func(t *testing.T, _ *asm.Program, opts *analysis.Options) *asm.Program {
				plain := cfg
				plain.Rotate = false
				p, _ := generate(t, plain)
				opts.Rotation = &analysis.RotationHint{BDouble: true}
				return p
			},
			want: "rotation-broken",
		},
		{
			// Drop the last C store of a KC=32 kernel. With no k_c
			// remainder the dropped accumulator's FMLA chain is read
			// across the loop back edge, so no dead-def fires: only the
			// check that every accumulator is stored before RET sees it.
			name: "unstored",
			inject: func(t *testing.T, _ *asm.Program, opts *analysis.Options) *asm.Program {
				deep := cfg
				deep.KC = 32
				p, o := generate(t, deep)
				*opts = o
				last := -1
				for i := range p.Instrs {
					if p.Instrs[i].Op == asm.OpStrQPost {
						last = i
					}
				}
				p.Instrs = append(p.Instrs[:last], p.Instrs[last+1:]...)
				return p
			},
			want: "accumulator-unstored",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, opts := generate(t, cfg)
			p = tc.inject(t, p, &opts)
			_, err := analyzeGate(p, opts)
			if err == nil {
				t.Fatalf("%s injection passed the gate", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("gate error misses the %s diagnostic: %v", tc.want, err)
			}
		})
	}
}
