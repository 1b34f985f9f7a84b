package tiling

import (
	"math"
	"testing"

	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
	"autogemm/internal/perfmodel"
)

// directSequence is the fused-run composition written out from the
// perfmodel equations alone: n full Eqn-4 tiles, or with fusion one
// launch and prologue, n−1 fused interiors, and the last main loop and
// epilogue, summed left to right.
func directSequence(p perfmodel.Params, t mkernel.Tile, kc, n int, opt perfmodel.Opt) float64 {
	if n <= 0 {
		return 0
	}
	if !opt.Fuse || n == 1 {
		return float64(n) * p.TileTime(t, kc, opt)
	}
	interior := p.Mainloop(t, kc, opt) + p.FuseBoundary(t, kc, t, kc)
	return p.Launch + p.Prologue(t) + float64(n-1)*interior +
		p.Mainloop(t, kc, opt) + p.Epilogue(t, kc)
}

// directGridCost prices an mm×nn cover with tile t straight from the
// model: full tiles, the n-remainder column, the m-remainder row and
// the corner.
func directGridCost(p perfmodel.Params, opt perfmodel.Opt, t mkernel.Tile, mm, nn, kc int) float64 {
	rows, mrem := mm/t.MR, mm%t.MR
	cols, nrem := nn/t.NR, nn%t.NR
	cost := 0.0
	if rows > 0 && cols > 0 {
		cost += float64(rows) * directSequence(p, t, kc, cols, opt)
	}
	if nrem > 0 && rows > 0 {
		cost += float64(rows) * p.TileTime(mkernel.Tile{MR: t.MR, NR: nrem}, kc, opt)
	}
	if mrem > 0 && cols > 0 {
		cost += directSequence(p, mkernel.Tile{MR: mrem, NR: t.NR}, kc, cols, opt)
	}
	if mrem > 0 && nrem > 0 {
		cost += p.TileTime(mkernel.Tile{MR: mrem, NR: nrem}, kc, opt)
	}
	return cost
}

// TestCostTableMatchesModel: the per-search cost table composes every
// grid cost bit for bit as the model does directly, for every chip,
// optimization set, residency latency and k_c, every candidate and the
// fallback strip tile, over panels with m and n remainders. An explicit
// candidate list exercises the table's bounds with a tile taller than
// MaxMR, and its n_r stride with a width that is not a lane multiple.
func TestCostTableMatchesModel(t *testing.T) {
	var checked int
	for _, chip := range hw.All() {
		lanes := chip.Lanes
		for _, lat := range []int{chip.LatLoad, chip.L2.LatCycles} {
			p := perfmodel.FromChip(chip).WithLoadLatency(float64(lat))
			for _, opt := range []perfmodel.Opt{{}, {Rotate: true}, {Fuse: true}, {Rotate: true, Fuse: true}} {
				d := &DMT{Params: p, Opt: opt}
				candSets := [][]mkernel.Tile{
					d.candidates(),
					{{MR: mkernel.MaxMR + 1, NR: lanes}, {MR: 3, NR: 2 * lanes}, {MR: 2, NR: lanes + 2}},
				}
				for _, kc := range []int{1, lanes, lanes + 1, 17, 128, 256} {
					for _, cands := range candSets {
						// A block wider and taller than every tile, and one
						// that clips the table below the largest candidates.
						checked += checkCostTable(t, chip.Name, d, cands, kc, 25, 17)
						checked += checkCostTable(t, chip.Name, d, cands, kc, 5, 3)
					}
				}
			}
		}
	}
	t.Logf("%d grid costs bit-equal", checked)
}

// checkCostTable compares table and direct grid costs over the
// sub-panels of an m × nSteps·σ_lane block and returns how many it
// compared.
func checkCostTable(t *testing.T, chip string, d *DMT, cands []mkernel.Tile, kc, m, nSteps int) int {
	t.Helper()
	lanes := d.Params.Lanes
	nQ := nSteps * lanes
	tab := newCostTable(d.Params, d.Opt, kc, m, nQ, cands)
	var checked int
	tiles := append([]mkernel.Tile{{}}, cands...)
	for mm := 1; mm <= m; mm++ {
		tiles[0] = mkernel.Tile{MR: min(mm, mkernel.MaxMR), NR: lanes} // bestTile's fallback
		for nn := lanes; nn <= nQ; nn += lanes {
			for _, tile := range tiles {
				if tile.MR > mm || tile.NR > nn {
					continue
				}
				got := tab.gridCost(tile, mm, nn)
				want := directGridCost(d.Params, d.Opt, tile, mm, nn, kc)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %+v kc=%d lat=%v: %v over %dx%d: table %v, model %v",
						chip, d.Opt, kc, d.Params.LLoad, tile, mm, nn, got, want)
				}
				checked++
			}
		}
	}
	return checked
}
