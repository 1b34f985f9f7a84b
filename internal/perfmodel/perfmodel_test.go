package perfmodel

import (
	"math"
	"testing"

	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
	"autogemm/internal/sim"
)

// didactic matches the worked example of Fig 3: L = 8 and IPC = 1 for
// load, store and FMA.
func didactic() Params {
	return Params{
		IPCFMA: 1, IPCLoad: 1, IPCStore: 1,
		LFMA: 8, LLoad: 8, LStore: 8,
		Lanes: 4, SigmaAI: 6.15, Launch: 0,
	}
}

// TestPaper5x16Formula reproduces the paper's closed form for the 5×16
// compute-bound tile: besides launch, 20·k_c + 13·⌊k̂_c⌋ + 65 cycles.
func TestPaper5x16Formula(t *testing.T) {
	p := didactic()
	tile := mkernel.Tile{MR: 5, NR: 16}
	for _, kc := range []int{4, 8, 16, 32, 64, 128} {
		khat := float64(kc / 4)
		want := 20*float64(kc) + 13*khat + 65
		got := p.TileTime(tile, kc, Opt{})
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("kc=%d: TileTime = %g, want %g", kc, got, want)
		}
	}
}

// TestPaper5x16RotatedFormula: with rotation the A-reload stall halves,
// giving 20·k_c + 13·⌈⌊k̂_c⌋/2⌉ + 65 (§III-C1).
func TestPaper5x16RotatedFormula(t *testing.T) {
	p := didactic()
	tile := mkernel.Tile{MR: 5, NR: 16}
	for _, kc := range []int{4, 8, 12, 16, 64} {
		khat := float64(kc / 4)
		want := 20*float64(kc) + 13*math.Ceil(khat/2) + 65
		got := p.TileTime(tile, kc, Opt{Rotate: true})
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("kc=%d: rotated TileTime = %g, want %g", kc, got, want)
		}
	}
}

// TestPaper2x16Mainloop reproduces the memory-bound figures: 48·⌊k̂_c⌋
// for the basic kernel and 42·⌊k̂_c⌋ after B double-buffering.
func TestPaper2x16Mainloop(t *testing.T) {
	p := didactic()
	tile := mkernel.Tile{MR: 2, NR: 16}
	if tile.ComputeBound(4, p.SigmaAI) {
		t.Fatal("2x16 should be memory-bound at σ_AI = 6.15")
	}
	for _, kc := range []int{4, 16, 64} {
		khat := float64(kc / 4)
		if got := p.MainloopMemory(tile, kc); math.Abs(got-48*khat) > 1e-9 {
			t.Errorf("kc=%d: memory mainloop = %g, want %g", kc, got, 48*khat)
		}
		if got := p.MainloopMemoryRotated(tile, kc); math.Abs(got-42*khat) > 1e-9 {
			t.Errorf("kc=%d: rotated memory mainloop = %g, want %g", kc, got, 42*khat)
		}
	}
}

// TestPrologueEpilogueShares checks the paper's §III-C2 observation: for
// 5×16 with k_c = 18, prologue and epilogue account for ≈8.2% and ≈15.1%
// of the projected runtime.
func TestPrologueEpilogueShares(t *testing.T) {
	p := didactic()
	tile := mkernel.Tile{MR: 5, NR: 16}
	kc := 18
	total := p.TileTime(tile, kc, Opt{})
	pro := p.Prologue(tile) / total
	epi := p.Epilogue(tile, kc) / total
	if math.Abs(pro-0.082) > 0.02 {
		t.Errorf("prologue share %.3f, paper says ≈0.082", pro)
	}
	if math.Abs(epi-0.151) > 0.02 {
		t.Errorf("epilogue share %.3f, paper says ≈0.151", epi)
	}
}

// TestFusionGainSmallK: fusing epilogue with next prologue should give a
// double-digit percentage gain at K=4 (the paper reports 15.8–17.3%).
func TestFusionGainSmallK(t *testing.T) {
	p := FromChip(hw.KP920())
	tile := mkernel.Tile{MR: 5, NR: 16}
	const n = 32
	unfused := p.SequenceTime(tile, 4, n, Opt{Rotate: true})
	fused := p.SequenceTime(tile, 4, n, Opt{Rotate: true, Fuse: true})
	gain := unfused/fused - 1
	// The paper's 15.8–17.3% is end-to-end; at the micro-kernel level the
	// boundary replaces the whole launch+epilogue+prologue, so the model
	// projects a larger gain for tiny K.
	if gain < 0.08 || gain > 0.80 {
		t.Errorf("fusion gain at K=4 is %.1f%%, expected substantial", gain*100)
	}
	// At large K the prologue/epilogue vanish in the main loop and the
	// gain must shrink substantially.
	unfusedBig := p.SequenceTime(tile, 256, n, Opt{Rotate: true})
	fusedBig := p.SequenceTime(tile, 256, n, Opt{Rotate: true, Fuse: true})
	gainBig := unfusedBig/fusedBig - 1
	if gainBig >= gain/2 {
		t.Errorf("fusion gain did not shrink with K: %.1f%% at K=4 vs %.1f%% at K=256",
			gain*100, gainBig*100)
	}
}

// TestRotationNeverHurts: the projected rotated time is never above the
// basic time, for any feasible tile.
func TestRotationNeverHurts(t *testing.T) {
	p := FromChip(hw.KP920())
	for _, tile := range mkernel.FeasibleTiles(4) {
		for _, kc := range []int{4, 32, 128} {
			base := p.TileTime(tile, kc, Opt{})
			rot := p.TileTime(tile, kc, Opt{Rotate: true})
			if rot > base+1e-9 {
				t.Errorf("%v kc=%d: rotation raises projection %g -> %g", tile, kc, base, rot)
			}
		}
	}
}

// TestEfficiencyBounds: projected efficiency lies in (0, 1] and grows
// with k_c for a compute-bound tile (the Fig 2 trend).
func TestEfficiencyBounds(t *testing.T) {
	chip := hw.Graviton2()
	p := FromChip(chip)
	tile := mkernel.Tile{MR: 5, NR: 16}
	prev := 0.0
	for _, kc := range []int{4, 8, 16, 32, 64, 128, 256} {
		e := Efficiency(chip, FLOPs(tile, kc), p.TileTime(tile, kc, Opt{Rotate: true, Fuse: true}))
		if e <= 0 || e > 1 {
			t.Fatalf("kc=%d: efficiency %g out of range", kc, e)
		}
		if e < prev {
			t.Errorf("kc=%d: efficiency fell %g -> %g; Fig 2 trend is monotone", kc, prev, e)
		}
		prev = e
	}
	if prev < 0.85 {
		t.Errorf("asymptotic efficiency %.2f, expected near peak for 5x16", prev)
	}
}

// TestModelTracksSimulator: the analytic projection and the cycle-level
// simulator must agree within a tolerance band across tiles and depths
// on the didactic machine (constant load latency, single ports).
func TestModelTracksSimulator(t *testing.T) {
	chip := hw.Didactic()
	p := FromChip(chip)
	p.Launch = 0
	for _, tile := range []mkernel.Tile{{MR: 5, NR: 16}, {MR: 4, NR: 20}, {MR: 8, NR: 8}, {MR: 2, NR: 16}, {MR: 6, NR: 12}, {MR: 3, NR: 8}} {
		for _, kc := range []int{8, 32, 96} {
			for _, rotate := range []bool{false, true} {
				cfg := mkernel.Config{Tile: tile, KC: kc, Lanes: 4,
					Rotate: rotate, LoadC: true}
				prog, err := mkernel.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				arena := sim.NewArena(1 << 15)
				aAddr := arena.Alloc(tile.MR*kc + 8)
				bAddr := arena.Alloc((kc+2)*tile.NR + 8)
				cAddr := arena.Alloc(tile.MR*tile.NR + 8)
				m := sim.NewMachine(arena, 4)
				m.SetArg(0, aAddr)
				m.SetArg(1, bAddr)
				m.SetArg(2, cAddr)
				m.SetArg(3, int64(kc))
				m.SetArg(4, int64(tile.NR))
				m.SetArg(5, int64(tile.NR))
				model := sim.NewModel(chip)
				model.AssumeLoadLat = chip.LatLoad
				res, err := model.RunAndTime(prog, m, 10_000_000)
				if err != nil {
					t.Fatal(err)
				}
				proj := p.TileTime(tile, kc, Opt{Rotate: rotate})
				ratio := proj / float64(res.Cycles)
				if ratio < 0.5 || ratio > 2.0 {
					t.Errorf("%s: model %g vs simulator %d (ratio %.2f)",
						cfg.Name(), proj, res.Cycles, ratio)
				}
			}
		}
	}
}
