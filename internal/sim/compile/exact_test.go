package compile_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"autogemm/internal/asm"
	"autogemm/internal/mkernel"
	"autogemm/internal/sim/compile"
)

// TestExactExtents holds a tile program's exact extents to what its
// Run really touches. Over the 4-lane grid of TestDifferentialSweep each
// program must be a tile program, with exact extents no larger than its
// declared Bounds extents and A's and B's strictly smaller (a generated
// kernel declares over-read slack on both). Its Run on A, B and C cut
// to the exact extents, each followed in memory by a NaN tail, must
// bit-match sim.Machine on the full declared panels and leave every
// tail as it was, and each operand cut one element shorter is refused
// with ErrBounds. It runs once per register-tile loop the host can run.
func TestExactExtents(t *testing.T) { forEachTileLoop(t, exactExtents) }

func exactExtents(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cache := mkernel.NewCache()
	for _, spec := range gridSpecs() {
		cp, err := cache.Compiled(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Key(), err)
		}
		p, err := cache.Program(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !compile.TileProgram(cp) {
			t.Fatalf("%s: not a tile program", cp.Name)
		}
		ops, lda, ldb, ldc := randOperands(rng, cp.Bounds)
		exact := compile.ExactExtents(cp, lda, ldb, ldc)
		if exact[0] >= int64(len(ops[0])) || exact[1] >= int64(len(ops[1])) || exact[2] > int64(len(ops[2])) {
			t.Fatalf("%s: exact extents %v, declared %d, %d, %d: want A and B below, C at most",
				cp.Name, exact, len(ops[0]), len(ops[1]), len(ops[2]))
		}
		_, want := interpret(t, p, compile.NewEnv(cp.Lanes), ops, lda, ldb, ldc)
		requireExactCut(t, cp, ops, want, lda, ldb, ldc)
	}
}

// requireExactCut runs tile program cp under Layout on copies of the
// operands cut to its exact extents, each cut at the end of a larger
// buffer whose tail is NaN, and requires C to bit-match want on the
// cut and every tail to be left as it was. ops are the panels want was
// computed from, at least as long as the exact extents. Each operand
// cut one element shorter must be refused with ErrBounds, before any
// work.
func requireExactCut(t *testing.T, cp *compile.Program, ops [3][]float32, want []float32, lda, ldb, ldc int64) {
	t.Helper()
	exact := compile.ExactExtents(cp, lda, ldb, ldc)
	const tail = 64
	var cut, full [3][]float32
	for i, op := range ops {
		buf := make([]float32, exact[i]+tail)
		copy(buf, op[:exact[i]])
		for j := exact[i]; j < int64(len(buf)); j++ {
			buf[j] = float32(math.NaN())
		}
		cut[i], full[i] = buf[:exact[i]], buf
	}
	c := append([]float32(nil), cut[2]...)
	for i := range cut {
		if exact[i] == 0 {
			continue
		}
		short := cut
		short[i] = cut[i][:exact[i]-1]
		err := cp.Layout(lda, ldb, ldc).Run(compile.NewEnv(cp.Lanes), short[0], short[1], short[2], 0, 0, 0, 1<<30)
		if !errors.Is(err, compile.ErrBounds) {
			t.Fatalf("%s: operand %d one element short of its exact extent %d: %v, want ErrBounds", cp.Name, i, exact[i], err)
		}
	}
	for j := range c {
		if math.Float32bits(cut[2][j]) != math.Float32bits(c[j]) {
			t.Fatalf("%s: a refused run wrote C[%d]", cp.Name, j)
		}
	}
	if err := cp.Layout(lda, ldb, ldc).Run(compile.NewEnv(cp.Lanes), cut[0], cut[1], cut[2], 0, 0, 0, 1<<30); err != nil {
		t.Fatalf("%s: run on operands cut to the exact extents %v: %v", cp.Name, exact, err)
	}
	for i := range cut[2] {
		if math.Float32bits(cut[2][i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: exact cut: C[%d] %#08x, interpreted %#08x", cp.Name, i, math.Float32bits(cut[2][i]), math.Float32bits(want[i]))
		}
	}
	for i, buf := range full {
		for j := exact[i]; j < int64(len(buf)); j++ {
			if !math.IsNaN(float64(buf[j])) {
				t.Fatalf("%s: exact cut: operand %d's tail element %d was written", cp.Name, i, j-exact[i])
			}
		}
	}
}

// TestExactExtentsNotTileOnly pins that a loose program, one that is not
// a tile program, is held to its declared extents: its loose micro-ops
// may read the over-read slack.
func TestExactExtentsNotTileOnly(t *testing.T) {
	bounds := fuzzBounds()
	lda, ldb, ldc := int64(bounds.KC+bounds.AOverVectors*bounds.Lanes), int64(bounds.NR), int64(bounds.NR)
	for _, lf := range looseFallbacks {
		p := asm.NewProgram(lf.name)
		lf.build(p)
		cp, err := compile.Compile(p, compile.Options{Lanes: bounds.Lanes, Bounds: bounds})
		if err != nil {
			t.Fatal(err)
		}
		if compile.TileProgram(cp) {
			t.Fatalf("%s: a tile program, but it needs the vector file a region leaves", lf.name)
		}
		a := make([]float32, bounds.AExtent(lda)-1)
		bp := make([]float32, bounds.BExtent(ldb))
		c := make([]float32, bounds.CExtent(ldc))
		l := cp.Layout(lda, ldb, ldc)
		if l.Fits(len(a), len(bp), len(c), 0, 0, 0) {
			t.Errorf("%s: Fits with A one short of its declared extent", lf.name)
		}
		if err := l.Run(compile.NewEnv(bounds.Lanes), a, bp, c, 0, 0, 0, 1<<20); !errors.Is(err, compile.ErrBounds) {
			t.Errorf("%s: Run with A one short of its declared extent: %v, want ErrBounds", lf.name, err)
		}
	}
}
