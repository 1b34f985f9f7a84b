package compile_test

import (
	"errors"
	"math"
	"sync"
	"testing"

	"autogemm/internal/mkernel"
	"autogemm/internal/sim/compile"
)

// TestPrecheckCRows pins the rule that C rows are disjoint: with more
// than one row, a layout at ldc < NR fails Fits and its Run is refused,
// writing nothing; ldc = NR passes, and a one-row kernel takes any ldc.
func TestPrecheckCRows(t *testing.T) {
	cache := mkernel.NewCache()
	for _, c := range []struct {
		spec mkernel.Config
		ldc  int64
		ok   bool
	}{
		{mkernel.Config{Tile: mkernel.Tile{MR: 4, NR: 8}, KC: 9, Lanes: 4, LoadC: true}, 7, false},
		{mkernel.Config{Tile: mkernel.Tile{MR: 4, NR: 8}, KC: 9, Lanes: 4, LoadC: true}, 0, false},
		{mkernel.Config{Tile: mkernel.Tile{MR: 4, NR: 8}, KC: 9, Lanes: 4, LoadC: true}, 8, true},
		{mkernel.Config{Tile: mkernel.Tile{MR: 1, NR: 8}, KC: 9, Lanes: 4, LoadC: true}, 0, true},
		{mkernel.Config{Tile: mkernel.Tile{MR: 1, NR: 8}, KC: 9, Lanes: 4, LoadC: true}, 3, true},
	} {
		cp, err := cache.Compiled(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		a, bp, _, lda, ldb, _ := benchOperands(cp)
		cl := make([]float32, cp.Bounds.CExtent(c.ldc))
		for i := range cl {
			cl[i] = float32(i)
		}
		before := append([]float32(nil), cl...)
		l := cp.Layout(lda, ldb, c.ldc)
		fits := l.Fits(len(a), len(bp), len(cl), 0, 0, 0)
		run := l.Run(compile.NewEnv(4), a, bp, cl, 0, 0, 0, 1<<30)
		if c.ok {
			if !fits || run != nil {
				t.Errorf("%s ldc %d: Fits %v, Run %v; want it accepted", cp.Name, c.ldc, fits, run)
			}
			continue
		}
		if fits || !errors.Is(run, compile.ErrBounds) {
			t.Errorf("%s ldc %d: Fits %v, Run %v; want ErrBounds", cp.Name, c.ldc, fits, run)
		}
		for i := range cl {
			if cl[i] != before[i] {
				t.Fatalf("%s ldc %d: refused Run wrote C[%d]", cp.Name, c.ldc, i)
			}
		}
	}
}

// TestRunAllocs pins that Run allocates nothing: its layout carries
// every offset, and its reach check builds no error when the block
// fits.
func TestRunAllocs(t *testing.T) {
	cp, err := mkernel.NewCache().Compiled(benchResNetBand)
	if err != nil {
		t.Fatal(err)
	}
	a, bp, c, lda, ldb, ldc := benchOperands(cp)
	e := compile.NewEnv(cp.Lanes)
	l := cp.Layout(lda, ldb, ldc)
	if n := testing.AllocsPerRun(100, func() {
		if err := l.Run(e, a, bp, c, 0, 0, 0, 1<<30); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Run: %v allocations, want 0", n)
	}
}

// TestRunSharedLayouts runs one program from several goroutines, each
// cycling through ten (lda, ldb, ldc) triples whose layouts all of them
// share, and requires every C panel to match a serial run at its triple
// bit for bit, on a layout of its own. Under -race it checks that the
// goroutines share the resolved offsets safely.
func TestRunSharedLayouts(t *testing.T) {
	cp, err := mkernel.NewCache().Compiled(benchBand)
	if err != nil {
		t.Fatal(err)
	}
	bo := cp.Bounds
	type triple struct{ lda, ldb, ldc int64 }
	var lds []triple
	for i := int64(0); i < 10; i++ {
		lds = append(lds, triple{int64(bo.KC+bo.AOverVectors*bo.Lanes) + i, int64(bo.NR) + 2*i, int64(bo.NR) + 3*i})
	}
	operands := func(ld triple) (a, b, c []float32) {
		a = make([]float32, bo.AExtent(ld.lda))
		b = make([]float32, bo.BExtent(ld.ldb))
		c = make([]float32, bo.CExtent(ld.ldc))
		for i := range a {
			a[i] = float32(i%13) * 0.5
		}
		for i := range b {
			b[i] = float32(i%7) * 0.25
		}
		for i := range c {
			c[i] = float32(i%5) - 2
		}
		return a, b, c
	}
	want := make([][]float32, len(lds))
	shared := make([]*compile.Layout, len(lds))
	for i, ld := range lds {
		shared[i] = cp.Layout(ld.lda, ld.ldb, ld.ldc)
		a, b, c := operands(ld)
		if err := cp.Layout(ld.lda, ld.ldb, ld.ldc).Run(compile.NewEnv(cp.Lanes), a, b, c, 0, 0, 0, 1<<30); err != nil {
			t.Fatal(err)
		}
		want[i] = c
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := compile.NewEnv(cp.Lanes)
			for r := 0; r < 30; r++ {
				i := (g + r) % len(lds)
				ld := lds[i]
				a, b, c := operands(ld)
				if err := shared[i].Run(e, a, b, c, 0, 0, 0, 1<<30); err != nil {
					t.Error(err)
					return
				}
				for j := range c {
					if math.Float32bits(c[j]) != math.Float32bits(want[i][j]) {
						t.Errorf("goroutine %d, lds %v: C[%d] %g, want %g", g, ld, j, c[j], want[i][j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBlockRefusedWhole: a block is checked once, before any call runs.
// Three calls of one tile program write C tiles side by side, each
// reading B NR columns further on; B is cut so that the first two calls
// fit and the last alone overruns it. The two-call layout runs, and the
// three-call layout is refused with ErrBounds, leaving C bit-unchanged:
// no earlier call wrote.
func TestBlockRefusedWhole(t *testing.T) {
	cp, err := mkernel.NewCache().Compiled(benchBand)
	if err != nil {
		t.Fatal(err)
	}
	if !compile.TileProgram(cp) {
		t.Fatalf("%s: not a tile program", cp.Name)
	}
	bo := cp.Bounds
	nr := int64(bo.NR)
	lda, ldb, ldc := int64(bo.KC), 3*nr, 3*nr
	progs := []*compile.Program{cp, cp, cp}
	offs := [][3]int64{{0, 0, 0}, {0, nr, nr}, {0, 2 * nr, 2 * nr}}
	ext := compile.ExactExtents(cp, lda, ldb, ldc)
	a := make([]float32, ext[0])
	b := make([]float32, offs[1][1]+ext[1])
	c := make([]float32, offs[2][2]+ext[2])
	for i := range a {
		a[i] = float32(i%13) * 0.5
	}
	for i := range b {
		b[i] = float32(i%7) * 0.25
	}
	for i := range c {
		c[i] = float32(i%5) - 2
	}
	before := append([]float32(nil), c...)
	e := compile.NewEnv(cp.Lanes)

	head := compile.NewLayout(lda, ldb, ldc, progs[:2], offs[:2])
	if err := head.Run(e, a, b, append([]float32(nil), c...), 0, 0, 0, 1<<30); err != nil {
		t.Fatalf("the first two calls: %v", err)
	}
	l := compile.NewLayout(lda, ldb, ldc, progs, offs)
	if l.Fits(len(a), len(b), len(c), 0, 0, 0) {
		t.Error("Fits accepts a block whose last call overruns B")
	}
	if err := l.Run(e, a, b, c, 0, 0, 0, 1<<30); !errors.Is(err, compile.ErrBounds) {
		t.Fatalf("Run with the last call past B: %v, want ErrBounds", err)
	}
	for i := range c {
		if math.Float32bits(c[i]) != math.Float32bits(before[i]) {
			t.Fatalf("refused block wrote C[%d]: %g, was %g", i, c[i], before[i])
		}
	}
}

// TestLayoutRefusals pins the refusals a layout carries into every Run,
// each before any call writes C: a negative call offset or leading
// dimension (ErrBounds), programs of two lane widths in one layout, a
// negative base offset (ErrBounds), and an Env of another lane width.
func TestLayoutRefusals(t *testing.T) {
	cache := mkernel.NewCache()
	cp, err := cache.Compiled(benchResNetBand)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := cache.Compiled(mkernel.Config{Tile: mkernel.Tile{MR: 4, NR: 32}, KC: 8, Lanes: 16, LoadC: true})
	if err != nil {
		t.Fatal(err)
	}
	a, bp, c, lda, ldb, ldc := benchOperands(cp)
	before := append([]float32(nil), c...)
	e := compile.NewEnv(cp.Lanes)
	for _, tc := range []struct {
		name   string
		l      *compile.Layout
		e      *compile.Env
		cOff   int64
		bounds bool
	}{
		{"negative call offset", compile.NewLayout(lda, ldb, ldc, []*compile.Program{cp}, [][3]int64{{0, -1, 0}}), e, 0, true},
		{"negative ldb", cp.Layout(lda, -1, ldc), e, 0, true},
		{"mixed lanes", compile.NewLayout(lda, ldb, ldc, []*compile.Program{cp, wide}, [][3]int64{{}, {}}), e, 0, false},
		{"negative base offset", cp.Layout(lda, ldb, ldc), e, -1, true},
		{"16-lane env", cp.Layout(lda, ldb, ldc), compile.NewEnv(16), 0, false},
	} {
		err := tc.l.Run(tc.e, a, bp, c, 0, 0, tc.cOff, 1<<30)
		if err == nil || errors.Is(err, compile.ErrBounds) != tc.bounds {
			t.Errorf("%s: Run %v, want a refusal (ErrBounds %v)", tc.name, err, tc.bounds)
		}
		for i := range c {
			if c[i] != before[i] {
				t.Fatalf("%s: refused Run wrote C[%d]", tc.name, i)
			}
		}
	}
}
