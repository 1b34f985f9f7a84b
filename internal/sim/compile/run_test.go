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
// than one row, ldc < NR is refused by Precheck and Run, and Run writes
// nothing; ldc = NR passes, and a one-row kernel takes any ldc.
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
		pre := cp.Precheck(len(a), len(bp), len(cl), 0, 0, 0, lda, ldb, c.ldc)
		run := cp.Run(compile.NewEnv(4), cp.Layout(lda, ldb, c.ldc), a, bp, cl, 0, 0, 0, 1<<30)
		if c.ok {
			if pre != nil || run != nil {
				t.Errorf("%s ldc %d: Precheck %v, Run %v; want it accepted", cp.Name, c.ldc, pre, run)
			}
			continue
		}
		if !errors.Is(pre, compile.ErrBounds) || !errors.Is(run, compile.ErrBounds) {
			t.Errorf("%s ldc %d: Precheck %v, Run %v; want ErrBounds", cp.Name, c.ldc, pre, run)
		}
		for i := range cl {
			if cl[i] != before[i] {
				t.Fatalf("%s ldc %d: refused Run wrote C[%d]", cp.Name, c.ldc, i)
			}
		}
	}
}

// TestRunAllocs pins that Run allocates nothing: its layout carries
// every offset, and its precheck builds no error when the call fits.
func TestRunAllocs(t *testing.T) {
	cp, err := mkernel.NewCache().Compiled(benchResNetBand)
	if err != nil {
		t.Fatal(err)
	}
	a, bp, c, lda, ldb, ldc := benchOperands(cp)
	e := compile.NewEnv(cp.Lanes)
	l := cp.Layout(lda, ldb, ldc)
	if n := testing.AllocsPerRun(100, func() {
		if err := cp.Run(e, l, a, bp, c, 0, 0, 0, 1<<30); err != nil {
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
		if err := cp.Run(compile.NewEnv(cp.Lanes), cp.Layout(ld.lda, ld.ldb, ld.ldc), a, b, c, 0, 0, 0, 1<<30); err != nil {
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
				if err := cp.Run(e, shared[i], a, b, c, 0, 0, 0, 1<<30); err != nil {
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

// TestRunForeignLayout pins that Run refuses a layout resolved for
// another program, before any work.
func TestRunForeignLayout(t *testing.T) {
	cache := mkernel.NewCache()
	cp, err := cache.Compiled(benchResNetBand)
	if err != nil {
		t.Fatal(err)
	}
	other, err := cache.Compiled(benchBand)
	if err != nil {
		t.Fatal(err)
	}
	a, bp, c, lda, ldb, ldc := benchOperands(cp)
	before := append([]float32(nil), c...)
	if err := cp.Run(compile.NewEnv(cp.Lanes), other.Layout(lda, ldb, ldc), a, bp, c, 0, 0, 0, 1<<30); err == nil {
		t.Fatal("Run accepted another program's layout")
	}
	for i := range c {
		if c[i] != before[i] {
			t.Fatalf("refused Run wrote C[%d]", i)
		}
	}
}
