package experiments

import (
	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
)

// SVEEdge compares the two ways of handling an n edge that is not a
// multiple of the 512-bit SVE width on A64FX: the NEON-style padded tile
// (compute a full vector column into packing padding — the approach the
// paper transplanted) versus the predicated kernel (WHILELT-governed
// tail, the paper's stated future work). The honest finding: FMLA
// operates on whole vectors either way, so predication does not reduce
// kernel cycles (it costs a few percent in predicate management and lost
// rotation); its benefit is structural — exact bounds, so no padded
// packing buffers, no copy-back of column overhang, and zero
// out-of-bounds access (verified by the zero-slack tests in
// internal/mkernel).
func SVEEdge() (Table, error) {
	chip := hw.A64FX()
	t := Table{ID: "sve-edge",
		Title:  "SVE n-edge handling on A64FX: padded vs predicated (kc=64)",
		Header: []string{"mr x nr", "padded-cycles", "predicated-cycles", "cycle-ratio", "pad-overhang%"}}
	cases := []mkernel.Tile{
		{MR: 4, NR: 17}, {MR: 4, NR: 20}, {MR: 4, NR: 36}, {MR: 3, NR: 41}, {MR: 2, NR: 49},
	}
	const kc = 64
	for _, tile := range cases {
		lanes := chip.Lanes
		nQ := (tile.NR + lanes - 1) / lanes * lanes

		padded, err := timePadded(chip, mkernel.Tile{MR: tile.MR, NR: nQ}, kc)
		if err != nil {
			return t, err
		}
		pred, err := timePredicated(chip, tile, kc)
		if err != nil {
			return t, err
		}
		waste := 100 * float64(nQ-tile.NR) / float64(nQ)
		t.Add(tile.String(), padded, pred, float64(padded)/float64(pred), waste)
	}
	t.Note("cycles are comparable by design (whole-vector FMLA); predication removes the padding")
	t.Note("padded tiles need buffers rounded to n_q = ⌈n_r/16⌉·16; predicated kernels touch exactly n_r columns")
	return t, nil
}

// timePadded measures the lane-quantized kernel (full-width tile).
func timePadded(chip *hw.Chip, tile mkernel.Tile, kc int) (int64, error) {
	prog, err := mkernel.Generate(mkernel.Config{
		Tile: tile, KC: kc, Lanes: chip.Lanes,
		Rotate: true, LoadC: true,
	})
	if err != nil {
		return 0, err
	}
	return timeAtLoadLat(chip, prog, tile.MR, tile.NR, kc)
}

// timePredicated measures the exact-width predicated kernel.
func timePredicated(chip *hw.Chip, tile mkernel.Tile, kc int) (int64, error) {
	prog, err := mkernel.GeneratePredicated(mkernel.PredConfig{
		Tile: tile, KC: kc, Lanes: chip.Lanes, LoadC: true,
	})
	if err != nil {
		return 0, err
	}
	return timeAtLoadLat(chip, prog, tile.MR, tile.NR, kc)
}
