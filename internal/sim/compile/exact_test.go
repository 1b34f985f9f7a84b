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

// TestExactExtents holds a tile-only program's exact extents to what
// its Run under Layout really touches. Over the 4-lane grid of
// TestDifferentialSweep each program must be tile-only, with exact
// extents no larger than its declared Bounds extents and A's and B's
// strictly smaller (a generated kernel declares over-read slack on
// both). Its Run on A, B and C cut to the exact extents, each followed
// in memory by a NaN tail, must bit-match sim.Machine on the full
// declared panels and leave every tail as it was; under ExitLayout,
// whose final reloads read the slack, the cut A and the cut B are each
// refused with ErrBounds. It runs once per register-tile loop the host
// can run.
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
		if !compile.TileOnly(cp) {
			t.Fatalf("%s: not tile-only", cp.Name)
		}
		b := cp.Bounds
		lda := int64(b.KC + b.AOverVectors*b.Lanes + 3)
		ldb := int64(b.NR + 5)
		ldc := int64(b.NR + 2)
		exact := compile.ExactExtents(cp, lda, ldb, ldc)
		declared := [3]int64{b.AExtent(lda), b.BExtent(ldb), b.CExtent(ldc)}
		if exact[0] >= declared[0] || exact[1] >= declared[1] || exact[2] > declared[2] {
			t.Fatalf("%s: exact extents %v, declared %v: want A and B below, C at most", cp.Name, exact, declared)
		}
		a := randSlice(rng, int(declared[0]))
		bp := randSlice(rng, int(declared[1]))
		c := randSlice(rng, int(declared[2]))
		want := interpretC(t, p, b, a, bp, c, lda, ldb, ldc)
		requireExactCut(t, cp, [3][]float32{a, bp, c}, want, lda, ldb, ldc)
	}
}

// requireExactCut runs tile-only cp under Layout on copies of the
// operands cut to its exact extents, each cut at the end of a larger
// buffer whose tail is NaN, and requires C to bit-match want on the
// cut and every tail to be left as it was. ops are the panels want was
// computed from, at least as long as the declared extents. Under
// ExitLayout each of A and B cut shorter than its declared extent must
// be refused with ErrBounds, before any work.
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
	if err := cp.Run(compile.NewEnv(cp.Lanes), cp.Layout(lda, ldb, ldc), cut[0], cut[1], cut[2], 0, 0, 0, 1<<30); err != nil {
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

	b := cp.Bounds
	declared := [3]int64{b.AExtent(lda), b.BExtent(ldb), b.CExtent(ldc)}
	c := append([]float32(nil), ops[2]...)
	for i := 0; i < 2; i++ {
		if exact[i] >= declared[i] {
			continue
		}
		a, bp := ops[0], ops[1]
		if i == 0 {
			a = cut[0]
		} else {
			bp = cut[1]
		}
		err := cp.Run(compile.NewEnv(cp.Lanes), compile.ExitLayout(cp, lda, ldb, ldc), a, bp, c, 0, 0, 0, 1<<30)
		if !errors.Is(err, compile.ErrBounds) {
			t.Fatalf("%s: ExitLayout with operand %d cut to its exact extent %d (declared %d): %v, want ErrBounds",
				cp.Name, i, exact[i], declared[i], err)
		}
		for j := range c {
			if math.Float32bits(c[j]) != math.Float32bits(ops[2][j]) {
				t.Fatalf("%s: refused ExitLayout run wrote C[%d]", cp.Name, j)
			}
		}
	}
}

// TestExactExtentsNotTileOnly pins that a program that is not tile-only
// keeps its declared extents under Layout too: its Layout is an exit
// layout, whose final reloads read what the region left.
func TestExactExtentsNotTileOnly(t *testing.T) {
	bounds := fuzzBounds()
	p := asm.NewProgram("reads-region-exit")
	p.LdrQ(asm.V(6), asm.X(0), 0)
	p.LdrQ(asm.V(2), asm.X(1), 0)
	p.VZero(asm.V(1))
	p.Fmla(asm.V(1), asm.V(2), asm.V(6), 1)
	p.StrQ(asm.V(1), asm.X(2), 0)
	p.StrQ(asm.V(2), asm.X(2), 16)
	p.Ret()
	cp, err := compile.Compile(p, compile.Options{Lanes: bounds.Lanes, Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	if compile.TileOnly(cp) {
		t.Fatal("tile-only, but a loose store reads a region's vector file")
	}
	lda, ldb, ldc := int64(bounds.KC+bounds.AOverVectors*bounds.Lanes), int64(bounds.NR), int64(bounds.NR)
	a := make([]float32, bounds.AExtent(lda)-1)
	bp := make([]float32, bounds.BExtent(ldb))
	c := make([]float32, bounds.CExtent(ldc))
	if err := cp.Precheck(len(a), len(bp), len(c), 0, 0, 0, lda, ldb, ldc); !errors.Is(err, compile.ErrBounds) {
		t.Errorf("Precheck with A one short of its declared extent: %v, want ErrBounds", err)
	}
	if err := cp.Run(compile.NewEnv(bounds.Lanes), cp.Layout(lda, ldb, ldc), a, bp, c, 0, 0, 0, 1<<20); !errors.Is(err, compile.ErrBounds) {
		t.Errorf("Run with A one short of its declared extent: %v, want ErrBounds", err)
	}
}
