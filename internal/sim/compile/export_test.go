package compile

// Test-only accessors for the external compile_test package.

import (
	"math"
	"reflect"
	"unsafe"
)

// SpecialOperands are the values the register-tile tests draw panels
// and accumulators from: signed zeros, subnormals, the largest finite
// magnitudes (whose products overflow to ±Inf), infinities (Inf·0 is
// NaN), a quiet NaN with a payload, and ordinary values.
var SpecialOperands = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	1e-40, -3e-39, 1.1754942e-38, // subnormals; the last is just below the smallest normal
	1.1754944e-38, // smallest normal
	3.4e38, -3.4e38, math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00123),
	1, -1, 0.5, 3, -7.25, 1e-20, 1e20,
}

// NativeTiles reports whether the executor runs tile chunks through a
// native loop rather than the pure-Go execTile.
func NativeTiles() bool {
	return reflect.ValueOf(runTile).Pointer() != reflect.ValueOf(execTile).Pointer()
}

// WithPortableTiles runs f with every tile chunk on the pure-Go
// execTile, then restores the installed loop.
func WithPortableTiles(f func()) {
	loop := runTile
	runTile = execTile
	defer func() { runTile = loop }()
	f()
}

// AffineFmlas reports the program's static FMLA count and how many of
// those landed in an affine region.
func AffineFmlas(cp *Program) (affine, total int) {
	return cp.affineFmlas, cp.fmlas
}

// Grid is one affine region's accumulator grid before chunking: Rows ×
// Cols (1×1 when the accumulators form no complete contiguous grid),
// and the region's FMLAs.
type Grid struct{ Rows, Cols, Fmlas int }

// TileGrids returns the grid of every affine region of cp, in program
// order.
func TileGrids(cp *Program) []Grid {
	var out []Grid
	for _, s := range cp.segs {
		for _, r := range s.aff {
			out = append(out, Grid{r.grid[0], r.grid[1], r.fmlas})
		}
	}
	return out
}

// LooseC returns the C loads and stores of cp that run outside its
// affine regions, as micro-ops of its segments.
func LooseC(cp *Program) int {
	n := 0
	for _, s := range cp.segs {
		for _, u := range s.body {
			if (u.kind == uLoad4 || u.kind == uStore4 || u.kind == uLoadN || u.kind == uStoreN) && u.bank == bankC {
				n++
			}
		}
	}
	return n
}

// Vector returns architectural vector register r of the environment.
func (e *Env) Vector(r int) []float32 {
	return e.v[r*e.lanes : (r+1)*e.lanes]
}

// AffineRunner runs cp once over the operands to record the tile chunks
// its affine regions resolve, and returns run, which executes those
// chunks again, and the number of FMLAs one call executes: each chunk's
// accumulators × its steps. run uses the loop the executor installs on
// this host, or the pure-Go reference when portable is set. Each chunk
// sets up its accumulators, runs and stores them again, as in the
// kernel. The operand slices must stay live while run is used.
func AffineRunner(cp *Program, e *Env, a, b, c []float32, lda, ldb, ldc int64, portable bool) (run func(), fmlas int, err error) {
	loop := runTile
	var tiles []tile
	var base [3]unsafe.Pointer
	runTile = func(e *Env, t *tile) {
		tiles = append(tiles, *t)
		base = e.base
		loop(e, t)
	}
	err = cp.Run(e, cp.Layout(lda, ldb, ldc), a, b, c, 0, 0, 0, 1<<30)
	runTile = loop
	if portable {
		loop = execTile
	}
	for _, t := range tiles {
		fmlas += int(t.rows * t.cols * t.n)
	}
	return func() {
		e.base = base
		for i := range tiles {
			loop(e, &tiles[i])
		}
	}, fmlas, err
}
