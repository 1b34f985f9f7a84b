package experiments

import (
	"fmt"

	"autogemm/internal/asm"
	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
	"autogemm/internal/perfmodel"
	"autogemm/internal/sim"
)

// TableII regenerates the arithmetic-intensity table of feasible
// register tiles (Eqn 2 over the 32-register space); the blue preferred
// shapes are flagged.
func TableII() Table {
	t := Table{ID: "table2", Title: "AI of feasible register tiles (Eqn 2), NEON σ_lane=4",
		Header: []string{"mr\\nr", "4", "8", "12", "16", "20", "24", "28"}}
	preferred := map[mkernel.Tile]bool{}
	for _, p := range mkernel.PreferredTiles(4) {
		preferred[p] = true
	}
	for mr := 2; mr <= 8; mr++ {
		row := []interface{}{fmt.Sprintf("%d", mr)}
		for nr := 4; nr <= 28; nr += 4 {
			tile := mkernel.Tile{MR: mr, NR: nr}
			if !tile.Feasible(4) {
				row = append(row, "-")
				continue
			}
			cell := fmt.Sprintf("%.2f", tile.AIMax(4))
			if preferred[tile] {
				cell += "*"
			}
			row = append(row, cell)
		}
		t.Add(row...)
	}
	t.Note("* = preferred (blue) shapes; %d feasible tiles in total (paper: 58)",
		len(mkernel.FeasibleTiles(4)))
	return t
}

// Fig2 regenerates the AI-versus-k_c trend for m_r×16 micro-kernels
// (Eqn 3) together with each chip's σ_AI threshold line.
func Fig2() Table {
	t := Table{ID: "fig2", Title: "AI vs k_c for m_r x 16 tiles (Eqn 3) and hardware σ_AI",
		Header: []string{"kc", "2x16", "3x16", "4x16", "5x16"}}
	for _, kc := range []int{4, 8, 16, 32, 64, 128, 256} {
		row := []interface{}{kc}
		for mr := 2; mr <= 5; mr++ {
			row = append(row, mkernel.Tile{MR: mr, NR: 16}.AI(kc, 4))
		}
		t.Add(row...)
	}
	for _, chip := range hw.All() {
		t.Note("σ_AI(%s) = %.2f", chip.Name, chip.SigmaAI)
	}
	return t
}

// Fig3 regenerates the pipeline walk-through: projected and simulated
// cycles for the compute-bound 5×16 and memory-bound 2×16 kernels, with
// and without rotating register allocation, on the didactic machine
// (L = 8, IPC = 1).
func Fig3() (Table, error) {
	chip := hw.Didactic()
	params := perfmodel.FromChip(chip)
	params.Launch = 0
	t := Table{ID: "fig3", Title: "Micro-kernel cycles on the didactic machine (L=8, IPC=1)",
		Header: []string{"tile", "kc", "rotate", "model-cycles", "sim-cycles", "model/sim"}}
	for _, tile := range []mkernel.Tile{{MR: 5, NR: 16}, {MR: 2, NR: 16}} {
		for _, kc := range []int{16, 64, 128} {
			for _, rotate := range []bool{false, true} {
				proj := params.TileTime(tile, kc, perfmodel.Opt{Rotate: rotate})
				cycles, err := simulateKernel(chip, tile, kc, rotate)
				if err != nil {
					return t, err
				}
				t.Add(tile.String(), kc, rotate, proj, cycles, proj/float64(cycles))
			}
		}
	}
	t.Note("paper closed forms at k̂_c=16: 5x16 basic = 20·64+13·16+65 = %v; "+
		"2x16 mainloop 48·k̂_c basic vs 42·k̂_c rotated", 20*64+13*16+65)
	return t, nil
}

// Fig4 regenerates the four epilogue–prologue fusion boundary costs
// (c_to_c, m_to_m, c_to_m, m_to_c) versus the unfused launch+epilogue+
// prologue they replace.
func Fig4() Table {
	chip := hw.KP920()
	p := perfmodel.FromChip(chip)
	comp := mkernel.Tile{MR: 5, NR: 16} // compute-bound at σ_AI = 6
	mem := mkernel.Tile{MR: 2, NR: 16}  // memory-bound
	kc := 16
	t := Table{ID: "fig4", Title: "Fusion boundary cost vs unfused gap (KP920, kc=16)",
		Header: []string{"mode", "fused-cycles", "unfused-cycles", "saving%"}}
	cases := []struct {
		name     string
		cur, nxt mkernel.Tile
	}{
		{"c_to_c", comp, comp},
		{"m_to_m", mem, mem},
		{"c_to_m", comp, mem},
		{"m_to_c", mem, comp},
	}
	for _, c := range cases {
		fused := p.FuseBoundary(c.cur, kc, c.nxt, kc)
		unfused := p.Epilogue(c.cur, kc) + p.Launch + p.Prologue(c.nxt)
		t.Add(c.name, fused, unfused, 100*(1-fused/unfused))
	}
	return t
}

// simulateKernel measures one micro-kernel on the cycle simulator with a
// fixed load latency.
func simulateKernel(chip *hw.Chip, tile mkernel.Tile, kc int, rotate bool) (int64, error) {
	prog, err := mkernel.Generate(mkernel.Config{
		Tile: tile, KC: kc, Lanes: chip.Lanes,
		Rotate: rotate, LoadC: true,
	})
	if err != nil {
		return 0, err
	}
	return timeAtLoadLat(chip, prog, tile.MR, tile.NR, kc)
}

// timeAtLoadLat times one kernel over an mr×nr tile at the chip's fixed
// load latency, with no cache hierarchy.
func timeAtLoadLat(chip *hw.Chip, prog *asm.Program, mr, nr, kc int) (int64, error) {
	model := &sim.Model{Chip: chip, AssumeLoadLat: chip.LatLoad}
	res, err := model.TimeKernel(prog, mr, nr, kc)
	return res.Cycles, err
}
