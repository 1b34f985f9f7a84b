package compile

// Test-only accessors for the external compile_test package.

import (
	"math"
	"reflect"
	"testing"
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
func WithPortableTiles(f func()) { withTile(execTile, f) }

// withTile runs f with every tile chunk on loop, then restores the
// installed one.
func withTile(loop func(*Env, *tile), f func()) {
	installed := runTile
	runTile = loop
	defer func() { runTile = installed }()
	f()
}

// tileLoop is a native register-tile loop; host is whether this host
// can run it.
type tileLoop struct {
	name string
	run  func(*Env, *tile)
	host bool
}

// tileLoops are this GOARCH's native register-tile loops, widest first;
// tile_amd64_test.go lists amd64's.
var tileLoops []tileLoop

// TileLoops names the native register-tile loops this host runs,
// widest first, and logs each loop of this GOARCH that it cannot run.
// A host that runs none gets "go", the pure-Go execTile.
func TileLoops(tb testing.TB) []string {
	var names []string
	for _, l := range tileLoops {
		if l.host {
			names = append(names, l.name)
		} else {
			tb.Logf("%s tile loop skipped: this host cannot run it", l.name)
		}
	}
	if names == nil {
		names = []string{"go"}
	}
	return names
}

// WithTileLoop runs f with every tile chunk on the loop TileLoops
// names, then restores the installed one.
func WithTileLoop(name string, f func()) { withTile(tileLoopNamed(name), f) }

func tileLoopNamed(name string) func(*Env, *tile) {
	for _, l := range tileLoops {
		if l.name == name {
			return l.run
		}
	}
	if name != "go" {
		panic("compile: no tile loop " + name)
	}
	return execTile
}

// TileRunner builds one rows × cols chunk of n steps over packed
// panels, as a kernel tile runs it: set up from C, stored back to C,
// write-back off. It returns run, which executes the chunk on the named
// loop of TileLoops, and the FMLAs one run executes.
func TileRunner(rows, cols, n int64, loop string) (run func(), fmlas int) {
	a := make([]float32, rows*n)
	b := make([]float32, n*4*cols)
	c := make([]float32, rows*4*cols)
	for i := range a {
		a[i] = float32(i%13) * 0.5
	}
	for i := range b {
		b[i] = float32(i%7) * 0.25
	}
	e := NewEnv(4)
	e.base = [3]unsafe.Pointer{unsafe.Pointer(&a[0]), unsafe.Pointer(&b[0]), unsafe.Pointer(&c[0])}
	t := tile{sa: 4, sb: 16 * cols, bbank: 1, n: n, rows: rows, cols: cols, init: tileC, store: 1}
	for i := int64(0); i < rows; i++ {
		t.off[i] = 4 * n * i
		t.c[i] = 16 * cols * i
	}
	exec := tileLoopNamed(loop)
	return func() { exec(e, &t) }, int(rows * cols * n)
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

// Vectors returns a copy of the environment's whole vector file.
func (e *Env) Vectors() []float32 {
	return append([]float32(nil), e.v[:]...)
}

// Poison fills the whole vector file with quiet NaNs whose payloads
// count up from seed, so a run that reads a stale register carries a
// NaN into C.
func (e *Env) Poison(seed uint32) {
	for i := range e.v {
		e.v[i] = math.Float32frombits(0x7fc00000 | (seed+uint32(i))&0x3fffff)
	}
}

// ExitLayout resolves cp's offsets at lda, ldb and ldc like Layout, but
// a Run under it always leaves the interpreter's exact exit vector file:
// every region reloads and zeroes its final registers, and every tile
// writes its accumulators back. The exit-register differentials use it.
func ExitLayout(cp *Program, lda, ldb, ldc int64) *Layout {
	return cp.layout(lda, ldb, ldc, true)
}

// TileOnly reports whether cp's Layout drops the exit vector file.
func TileOnly(cp *Program) bool { return cp.tileOnly }

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

// ExactExtents returns the elements past each panel base, A, B and C,
// that a Run of tile-only cp under its Layout reaches at lda, ldb and
// ldc.
func ExactExtents(cp *Program, lda, ldb, ldc int64) [3]int64 {
	return [3]int64{cp.exact[0].at(lda), cp.exact[1].at(ldb), cp.exact[2].at(ldc)}
}
