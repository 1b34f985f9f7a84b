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
// contract that a Run's result is C, and that only a tile program drops
// the exit vector file. Each program runs from a vector file poisoned
// with NaNs, and sim.Machine from the same file. Over the 4-lane grid
// of TestDifferentialSweep (every generatable tile × the sweep's KC
// values × rotate × LoadC, and its bands fused and not) each program is
// a tile program: C must bit-match the interpreter's and the vector file
// must stay as it was. Two hand-built programs are loose fallbacks, one
// because a loose store reads a register a region left, one because a
// region accumulates onto a register another region wrote: C and the
// whole vector file must bit-match the interpreter's. It runs once per
// register-tile loop the host can run.
func TestLayoutDropsOnlyDeadExitState(t *testing.T) { forEachTileLoop(t, layoutDropsOnlyDeadExitState) }

func layoutDropsOnlyDeadExitState(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
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
			t.Fatalf("%s: lowered to loose micro-ops, not a tile program", cp.Name)
		}
		ops, lda, ldb, ldc := randOperands(rng, cp.Bounds)
		requireMatches(t, p, cp, ops, lda, ldb, ldc)
	}

	bounds := fuzzBounds()
	for _, c := range looseFallbacks {
		p := asm.NewProgram(c.name)
		c.build(p)
		cp, err := compile.Compile(p, compile.Options{Lanes: bounds.Lanes, Bounds: bounds})
		if err != nil {
			t.Fatalf("%s: %v\n%s", c.name, err, p)
		}
		if compile.TileProgram(cp) {
			t.Fatalf("%s: a tile program, but it needs the vector file a region leaves", c.name)
		}
		ops, lda, ldb, ldc := randOperands(rng, bounds)
		requireMatches(t, p, cp, ops, lda, ldb, ldc)
	}
}

// looseFallbacks are hand-built 4-lane programs whose regions are all
// proven but which are not tile programs: a later part needs what a
// region left in the vector file.
var looseFallbacks = []struct {
	name  string
	build func(p *asm.Program)
}{
	// A loose store after the region reads v2, a B vector the region
	// loaded.
	{"reads-region-exit", func(p *asm.Program) {
		p.LdrQ(asm.V(6), asm.X(0), 0)
		p.LdrQ(asm.V(2), asm.X(1), 0)
		p.VZero(asm.V(1))
		p.Fmla(asm.V(1), asm.V(2), asm.V(6), 1)
		p.StrQ(asm.V(1), asm.X(2), 0)
		p.StrQ(asm.V(2), asm.X(2), 16)
		p.Ret()
	}},
	// The second region accumulates into v1 from the value the first
	// region left there: a live-in accumulator no C load or zeroing
	// sets up.
	{"carried-accumulator", func(p *asm.Program) {
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

// randOperands returns random A, B and C panels for bounds b at leading
// dimensions a few elements past the tightest, each as long as its
// declared extent.
func randOperands(rng *rand.Rand, b analysis.Bounds) (ops [3][]float32, lda, ldb, ldc int64) {
	lda = int64(b.KC + b.AOverVectors*b.Lanes + 3)
	ldb = int64(b.NR + 5)
	ldc = int64(b.NR + 2)
	ops[0] = randSlice(rng, int(b.AExtent(lda)))
	ops[1] = randSlice(rng, int(b.BExtent(ldb)))
	ops[2] = randSlice(rng, int(b.CExtent(ldc)))
	return ops, lda, ldb, ldc
}

// requireMatches runs cp under its Layout over copies of ops, the A, B
// and C panels, from a vector file poisoned with NaNs, and p on
// sim.Machine from the same vector file. C must be bit-equal, and A and
// B untouched. A tile program must leave the vector file as it was, and
// a loose program the interpreter's exit vector file. It returns the
// interpreter's C.
func requireMatches(t *testing.T, p *asm.Program, cp *compile.Program, ops [3][]float32, lda, ldb, ldc int64) []float32 {
	t.Helper()
	e := compile.NewEnv(cp.Lanes)
	e.Poison(uint32(len(ops[2])))
	m, want := interpret(t, p, e, ops, lda, ldb, ldc)
	poisoned := e.Vectors()
	var got [3][]float32
	for i, op := range ops {
		got[i] = append([]float32(nil), op...)
	}
	if err := cp.Layout(lda, ldb, ldc).Run(e, got[0], got[1], got[2], 0, 0, 0, 1<<30); err != nil {
		t.Fatalf("%s: %v", cp.Name, err)
	}
	for i, w := range [3][]float32{ops[0], ops[1], want} {
		for j := range w {
			if math.Float32bits(got[i][j]) != math.Float32bits(w[j]) {
				t.Fatalf("%s (tile program %v): operand %d [%d]: compiled %#08x (%g), interpreted %#08x (%g)",
					cp.Name, compile.TileProgram(cp), i, j, math.Float32bits(got[i][j]), got[i][j], math.Float32bits(w[j]), w[j])
			}
		}
	}
	if compile.TileProgram(cp) {
		requireVectorsUntouched(t, cp.Name, e, poisoned)
	} else {
		requireSameVectors(t, cp.Name, e, m)
	}
	return want
}

// requireVectorsUntouched fails unless e's vector file is bit for bit
// the file before.
func requireVectorsUntouched(t *testing.T, name string, e *compile.Env, before []float32) {
	t.Helper()
	for i, v := range e.Vectors() {
		if math.Float32bits(v) != math.Float32bits(before[i]) {
			t.Fatalf("%s: tile program wrote vector file element %d: %#08x, was %#08x",
				name, i, math.Float32bits(v), math.Float32bits(before[i]))
		}
	}
}

// interpret runs p on sim.Machine over copies of ops, the A, B and C
// panels, from e's vector file, and returns the machine and its C
// panel.
func interpret(t *testing.T, p *asm.Program, e *compile.Env, ops [3][]float32, lda, ldb, ldc int64) (*sim.Machine, []float32) {
	t.Helper()
	ar := sim.NewArena(len(ops[0]) + len(ops[1]) + len(ops[2]) + 64)
	var addr [3]int64
	for i, op := range ops {
		addr[i] = ar.Alloc(len(op))
	}
	ar.Freeze()
	for i, op := range ops {
		copy(ar.Slice(addr[i], len(op)), op)
	}
	m := sim.NewMachine(ar, e.Lanes())
	for r := range m.V {
		copy(m.V[r], e.Vector(r))
	}
	for i, v := range []int64{addr[0], addr[1], addr[2], lda, ldb, ldc} {
		m.SetArg(i, v)
	}
	if err := m.Run(p, 1<<31-1); err != nil {
		t.Fatalf("interpret %s: %v", p.Name, err)
	}
	return m, ar.Slice(addr[2], len(ops[2]))
}
