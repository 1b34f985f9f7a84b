package compile_test

import (
	"math"
	"math/rand"
	"testing"

	"autogemm/internal/mkernel"
	"autogemm/internal/sim/compile"
)

// TestAffineSSEMatchesGo runs whole generated 4-lane kernels, each a
// tile program, twice, once with the executor's native tile loop and
// once with every chunk on the pure-Go execTile, over one set of
// operands, and requires the C panels to match bit for bit, except where
// both hold a NaN (see TestTileMatchesGo for why payloads cannot be
// pinned). Where TestTileMatchesGo feeds the loop random tiles, this
// feeds it the chunks Layout resolves from real kernels: their strides,
// row offsets and chunk cuts, and their C tiles, which every chunk of
// these kernels loads or zeroes and stores itself. The operands, C included,
// mix in ±0, subnormals, ±Inf, overflowing magnitudes and NaN, which
// TestDifferentialSweep's finite operands never reach. (The name dates
// from the SSE strided loop that the AVX register-tile loop replaced.)
func TestAffineSSEMatchesGo(t *testing.T) {
	if !compile.NativeTiles() {
		t.Skip("no native tile loop on this host")
	}
	var specs []mkernel.Spec
	for _, tile := range mkernel.FeasibleTiles(4) {
		if !tile.Generatable(4) {
			continue
		}
		for _, kc := range []int{1, 5, 33} {
			for _, rotate := range []bool{false, true} {
				specs = append(specs, mkernel.Config{Tile: tile, KC: kc, Lanes: 4,
					Rotate: rotate, LoadC: true})
			}
		}
	}
	specs = append(specs, benchBand, benchResNetBand, benchAffine)
	cache := mkernel.NewCache()
	rng := rand.New(rand.NewSource(3))
	for si, spec := range specs {
		cp, err := cache.Compiled(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !compile.TileProgram(cp) {
			t.Fatalf("%s: not a tile program", cp.Name)
		}
		// Special operands in none, a few or a third of the values.
		special := []int{0, 64, 3}[si%3]
		a, bp, c, lda, ldb, ldc := benchOperands(cp)
		for _, s := range [][]float32{a, bp, c} {
			for i := range s {
				if special > 0 && rng.Intn(special) == 0 {
					s[i] = compile.SpecialOperands[rng.Intn(len(compile.SpecialOperands))]
				} else {
					s[i] = rng.Float32()*4 - 2
				}
			}
		}
		run := func(c []float32) {
			if err := cp.Layout(lda, ldb, ldc).Run(compile.NewEnv(cp.Lanes), a, bp, c, 0, 0, 0, 1<<30); err != nil {
				t.Fatalf("%s: %v", cp.Name, err)
			}
		}
		got, want := append([]float32(nil), c...), c
		run(got)
		compile.WithPortableTiles(func() { run(want) })
		same := func(what string, i int, gv, wv float32) {
			if gv != gv && wv != wv {
				return
			}
			if math.Float32bits(gv) != math.Float32bits(wv) {
				t.Fatalf("%s (special odds %d, 0 = none): %s[%d]: native %#08x (%g), go %#08x (%g)",
					cp.Name, special, what, i, math.Float32bits(gv), gv, math.Float32bits(wv), wv)
			}
		}
		for i := range got {
			same("C", i, got[i], want[i])
		}
	}
}
