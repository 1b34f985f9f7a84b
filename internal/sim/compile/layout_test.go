package compile_test

import (
	"math"
	"math/rand"
	"testing"

	"autogemm/internal/asm"
	"autogemm/internal/asm/analysis"
	"autogemm/internal/mkernel"
	"autogemm/internal/sim"
	"autogemm/internal/sim/compile"
)

// TestLayoutDropsOnlyDeadExitState holds the production Layout to the
// contract that a Run's result is C. Over the 4-lane grid of
// TestDifferentialSweep (every generatable tile × the sweep's KC values
// × rotate × LoadC, and its bands fused and not), each program's C under
// Layout, run from a vector file poisoned with NaNs, must bit-match C
// under ExitLayout and C from sim.Machine; a tile-only program must
// leave the poisoned vector file bit for bit as it was. Two hand-built
// programs are not tile-only, because a later part reads what a region
// left in the vector file: their Layout keeps the exit writes, and C
// must still match the interpreter. It runs once per register-tile loop
// the host can run.
func TestLayoutDropsOnlyDeadExitState(t *testing.T) { forEachTileLoop(t, layoutDropsOnlyDeadExitState) }

func layoutDropsOnlyDeadExitState(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	specs := gridSpecs()
	cache := mkernel.NewCache()
	tileOnly := 0
	for _, spec := range specs {
		cp, err := cache.Compiled(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Key(), err)
		}
		p, err := cache.Program(spec)
		if err != nil {
			t.Fatal(err)
		}
		if compile.TileOnly(cp) {
			tileOnly++
		}
		requireLayoutMatches(t, p, cp, rng)
	}
	t.Logf("%d of %d grid programs are tile-only", tileOnly, len(specs))

	// Hand-built programs whose Layout must keep the exit writes.
	bounds := fuzzBounds()
	for _, c := range []struct {
		name   string
		looseC int // C micro-ops outside the regions
		build  func(p *asm.Program)
	}{
		// A loose store after the region reads v2, a B vector the
		// region loaded and left behind by its final reload.
		{"reads-region-exit", 1, func(p *asm.Program) {
			p.LdrQ(asm.V(6), asm.X(0), 0)
			p.LdrQ(asm.V(2), asm.X(1), 0)
			p.VZero(asm.V(1))
			p.Fmla(asm.V(1), asm.V(2), asm.V(6), 1)
			p.StrQ(asm.V(1), asm.X(2), 0)
			p.StrQ(asm.V(2), asm.X(2), 16)
			p.Ret()
		}},
		// The second region accumulates into v1 from the value the
		// first region's tile wrote back: a live-in accumulator staged
		// from the vector file. Every micro-op is a region's.
		{"carried-accumulator", 0, func(p *asm.Program) {
			p.LdrQ(asm.V(6), asm.X(0), 0)
			p.LdrQ(asm.V(2), asm.X(1), 0)
			p.VZero(asm.V(1))
			p.Fmla(asm.V(1), asm.V(2), asm.V(6), 0)
			p.StrQ(asm.V(1), asm.X(2), 0)
			p.LdrQ(asm.V(5), asm.X(0), 16)
			p.LdrQ(asm.V(3), asm.X(1), 16)
			p.Fmla(asm.V(1), asm.V(3), asm.V(5), 2)
			p.StrQ(asm.V(1), asm.X(2), 16)
			p.Ret()
		}},
	} {
		p := asm.NewProgram(c.name)
		c.build(p)
		cp, err := compile.Compile(p, compile.Options{Lanes: bounds.Lanes, Bounds: bounds})
		if err != nil {
			t.Fatalf("%s: %v\n%s", c.name, err, p)
		}
		if compile.TileOnly(cp) {
			t.Fatalf("%s: tile-only, but a later part reads a region's vector file", c.name)
		}
		if s, n := compile.AffineFmlas(cp); s != n || compile.LooseC(cp) != c.looseC {
			t.Fatalf("%s: %d of %d FMLAs in affine regions, %d loose C micro-ops; want all, %d",
				c.name, s, n, compile.LooseC(cp), c.looseC)
		}
		requireLayoutMatches(t, p, cp, rng)
	}
}

// gridSpecs is the 4-lane grid of TestDifferentialSweep: every
// generatable tile (every fifth under -short) × the sweep's KC values ×
// rotate × LoadC, and its two bands fused and not.
func gridSpecs() []mkernel.Spec {
	const lanes = 4
	var specs []mkernel.Spec
	step := 1
	if testing.Short() {
		step = 5
	}
	tiles := mkernel.FeasibleTiles(lanes)
	for ti := 0; ti < len(tiles); ti += step {
		tile := tiles[ti]
		if !tile.Generatable(lanes) {
			continue
		}
		for _, kc := range []int{1, lanes, lanes + 1, 2*lanes + 1, 129} {
			for _, rotate := range []bool{false, true} {
				for _, loadC := range []bool{false, true} {
					specs = append(specs, mkernel.Config{Tile: tile, KC: kc, Lanes: lanes,
						Rotate: rotate, LoadC: loadC})
				}
			}
		}
	}
	for _, segs := range [][]mkernel.Segment{
		{{Tile: mkernel.Tile{MR: 4, NR: 2 * lanes}, Count: 2}},
		{{Tile: mkernel.Tile{MR: 4, NR: 2 * lanes}, Count: 1}, {Tile: mkernel.Tile{MR: 4, NR: lanes}, Count: 1}},
	} {
		for _, fuse := range []bool{false, true} {
			for _, loadC := range []bool{false, true} {
				specs = append(specs, mkernel.BandConfig{Segments: segs, KC: 2*lanes + 1, Lanes: lanes,
					Rotate: true, Fuse: fuse, LoadC: loadC})
			}
		}
	}
	return specs
}

// requireLayoutMatches runs cp on random operands under ExitLayout and
// under Layout from a poisoned vector file, and p on sim.Machine, and
// requires the three C panels to be bit-equal, and a tile-only
// program's Run under Layout to leave the vector file as it was.
func requireLayoutMatches(t *testing.T, p *asm.Program, cp *compile.Program, rng *rand.Rand) {
	t.Helper()
	b := cp.Bounds
	lanes := b.Lanes
	lda := int64(b.KC + b.AOverVectors*lanes + 3)
	ldb := int64(b.NR + 5)
	ldc := int64(b.NR + 2)
	lenA := int(int64(b.MR-1)*lda) + b.KC + b.AOverVectors*lanes
	lenB := int(int64(b.KC+b.BOverRows-1)*ldb) + b.NR
	lenC := int(int64(b.MR-1)*ldc) + b.NR
	a := randSlice(rng, lenA)
	bp := randSlice(rng, lenB)
	c := randSlice(rng, lenC)
	want := interpretC(t, p, b, a, bp, c, lda, ldb, ldc)

	exit := append([]float32(nil), c...)
	if err := cp.Run(compile.NewEnv(lanes), compile.ExitLayout(cp, lda, ldb, ldc), a, bp, exit, 0, 0, 0, 1<<30); err != nil {
		t.Fatalf("%s: run under ExitLayout: %v", cp.Name, err)
	}
	got := append([]float32(nil), c...)
	e := compile.NewEnv(lanes)
	e.Poison(uint32(lenC))
	poisoned := e.Vectors()
	if err := cp.Run(e, cp.Layout(lda, ldb, ldc), a, bp, got, 0, 0, 0, 1<<30); err != nil {
		t.Fatalf("%s: run under Layout: %v", cp.Name, err)
	}
	for i := range got {
		g, x, w := math.Float32bits(got[i]), math.Float32bits(exit[i]), math.Float32bits(want[i])
		if g != w || x != w {
			t.Fatalf("%s (tile-only %v): C[%d]: Layout %#08x, ExitLayout %#08x, interpreted %#08x",
				cp.Name, compile.TileOnly(cp), i, g, x, w)
		}
	}
	if compile.TileOnly(cp) {
		requireVectorsUntouched(t, cp.Name, e, poisoned)
	}
}

// requireVectorsUntouched fails unless e's vector file is bit for bit
// the file before.
func requireVectorsUntouched(t *testing.T, name string, e *compile.Env, before []float32) {
	t.Helper()
	for i, v := range e.Vectors() {
		if math.Float32bits(v) != math.Float32bits(before[i]) {
			t.Fatalf("%s: tile-only Run wrote vector file element %d: %#08x, was %#08x",
				name, i, math.Float32bits(v), math.Float32bits(before[i]))
		}
	}
}

// interpretC runs p on sim.Machine over copies of the panels and
// returns its C panel.
func interpretC(t *testing.T, p *asm.Program, b analysis.Bounds, a, bp, c []float32, lda, ldb, ldc int64) []float32 {
	t.Helper()
	ar := sim.NewArena(len(a) + len(bp) + len(c) + 64)
	aAddr := ar.Alloc(len(a))
	bAddr := ar.Alloc(len(bp))
	cAddr := ar.Alloc(len(c))
	ar.Freeze()
	copy(ar.Slice(aAddr, len(a)), a)
	copy(ar.Slice(bAddr, len(bp)), bp)
	copy(ar.Slice(cAddr, len(c)), c)
	m := sim.NewMachine(ar, b.Lanes)
	for i, v := range []int64{aAddr, bAddr, cAddr, lda, ldb, ldc} {
		m.SetArg(i, v)
	}
	if err := m.Run(p, 1<<31-1); err != nil {
		t.Fatalf("interpret %s: %v", p.Name, err)
	}
	return ar.Slice(cAddr, len(c))
}
