package compile_test

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"autogemm/internal/asm"
	"autogemm/internal/asm/analysis"
	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
	"autogemm/internal/sim"
	"autogemm/internal/sim/compile"
)

// The differential suite runs kernels through both backends — the
// checked interpreter (sim.Machine) and the compiled static-schedule
// form — on identical random operands and demands bit-identical C
// panels. It mirrors mkernel's analyzer differential (sampled per
// chip/tile) so every kernel class the generator emits is covered:
// plain tiles across KC shapes and flags, uniform and mixed bands, fused
// bands, and predicated SVE kernels.

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
	return s
}

// diffRun executes p on both backends and compares the C panel bitwise.
// It returns the compiled program for further static checks.
func diffRun(t *testing.T, p *asm.Program, aopts analysis.Options, rng *rand.Rand) *compile.Program {
	t.Helper()
	b := aopts.Bounds
	lanes := b.Lanes
	cp, err := compile.Compile(p, compile.Options{Lanes: lanes, Bounds: *b, Rotation: aopts.Rotation})
	if err != nil {
		t.Fatalf("compile %s: %v", p.Name, err)
	}

	lda := int64(b.KC + b.AOverVectors*lanes + 3)
	ldb := int64(b.NR + 5)
	ldc := int64(b.NR + 2)
	lenA := int(int64(b.MR-1)*lda) + b.KC + b.AOverVectors*lanes
	lenB := int(int64(b.KC+b.BOverRows-1)*ldb) + b.NR
	lenC := int(int64(b.MR-1)*ldc) + b.NR
	a := randSlice(rng, lenA)
	bp := randSlice(rng, lenB)
	c := randSlice(rng, lenC)

	// Interpreter over an arena holding copies of the panels.
	ar := sim.NewArena(lenA + lenB + lenC + 64)
	aAddr := ar.Alloc(lenA)
	bAddr := ar.Alloc(lenB)
	cAddr := ar.Alloc(lenC)
	ar.Freeze()
	copy(ar.Slice(aAddr, lenA), a)
	copy(ar.Slice(bAddr, lenB), bp)
	copy(ar.Slice(cAddr, lenC), c)
	m := sim.NewMachine(ar, lanes)
	m.SetArg(0, aAddr)
	m.SetArg(1, bAddr)
	m.SetArg(2, cAddr)
	m.SetArg(3, lda)
	m.SetArg(4, ldb)
	m.SetArg(5, ldc)
	if err := m.Run(p, 1<<31-1); err != nil {
		t.Fatalf("interpret %s: %v", p.Name, err)
	}
	want := ar.Slice(cAddr, lenC)

	// Compiled, in place over the raw slices.
	got := append([]float32(nil), c...)
	e := compile.NewEnv(lanes)
	if err := cp.Run(e, cp.Layout(lda, ldb, ldc), a, bp, got, 0, 0, 0, 1<<30); err != nil {
		t.Fatalf("compiled run %s: %v", p.Name, err)
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: C[%d] differs: compiled %x (%g), interpreted %x (%g)",
				p.Name, i, math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
	// A and B are inputs; the compiled backend must not have touched them
	// (the analyzer rejects stores into A/B, but verify the seam anyway).
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(ar.Slice(aAddr, lenA)[i]) {
			t.Fatalf("%s: compiled run mutated A[%d]", p.Name, i)
		}
	}
	for i := range bp {
		if math.Float32bits(bp[i]) != math.Float32bits(ar.Slice(bAddr, lenB)[i]) {
			t.Fatalf("%s: compiled run mutated B[%d]", p.Name, i)
		}
	}
	requireSameVectors(t, p.Name, e, m)
	return cp
}

// requireSameVectors compares every architectural vector register of
// the two backends bitwise after a run.
func requireSameVectors(t *testing.T, name string, e *compile.Env, m *sim.Machine) {
	t.Helper()
	for r := range m.V {
		got := e.Vector(r)
		for l, w := range m.V[r] {
			if math.Float32bits(got[l]) != math.Float32bits(w) {
				t.Fatalf("%s: v%d[%d] differs: compiled %g, interpreted %g", name, r, l, got[l], w)
			}
		}
	}
}

// requireScheduled fails unless every FMLA of a 4-lane program runs in
// an affine region, every C load and store is folded into one, and the
// regions, in program order, hold the full MR × NR/σ accumulator grid
// of each kernel tile in tiles. So a generator change can neither drop
// the register-tile fast path, nor silently degrade it to 1×1 tiles,
// nor bring back the loose C micro-ops around it.
func requireScheduled(t *testing.T, cp *compile.Program, tiles ...mkernel.Tile) {
	t.Helper()
	if cp.Lanes != 4 {
		return
	}
	if s, n := compile.AffineFmlas(cp); s != n || n == 0 {
		t.Fatalf("%s: %d of %d FMLAs in affine regions", cp.Name, s, n)
	}
	if n := compile.LooseC(cp); n != 0 {
		t.Fatalf("%s: %d C loads and stores outside the affine regions", cp.Name, n)
	}
	grids := compile.TileGrids(cp)
	if len(grids) != len(tiles) {
		t.Fatalf("%s: %d affine regions %v, want one per tile %v", cp.Name, len(grids), grids, tiles)
	}
	for i, g := range grids {
		if g.Rows != tiles[i].MR || g.Cols != tiles[i].NR/cp.Lanes {
			t.Fatalf("%s: region %d is a %d×%d grid, want tile %d×%d's %d×%d",
				cp.Name, i, g.Rows, g.Cols, tiles[i].MR, tiles[i].NR, tiles[i].MR, tiles[i].NR/cp.Lanes)
		}
	}
}

// bandTiles lists a band's tiles in order.
func bandTiles(bc mkernel.BandConfig) []mkernel.Tile {
	var tiles []mkernel.Tile
	for _, s := range bc.Segments {
		for i := 0; i < s.Count; i++ {
			tiles = append(tiles, s.Tile)
		}
	}
	return tiles
}

// TestDifferentialSweep covers the lint sweep's kernel classes per chip.
// The tile grid's KC values include 1 and σ+1 (straight-line kernels
// and one-trip loops) and 129 (a long k-loop). On an AVX host every
// affine region's tile chunks run through the register-tile loop
// (tile_amd64.s), so the sweep holds that loop to sim.Machine too. The
// rule is bit equality except where both results are NaN, whose payload
// neither the AVX loop nor gc's scalar code pins (see
// TestTileMatchesGo). The operands
// here are finite and small, so no result is NaN and the comparison is
// on raw bits.
func TestDifferentialSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, chip := range hw.All() {
		lanes := chip.Lanes
		kcs := []int{1, lanes, lanes + 1, 2*lanes + 1, 129}
		tiles := mkernel.FeasibleTiles(lanes)
		step := 1
		if testing.Short() {
			step = 5
		}
		for ti := 0; ti < len(tiles); ti += step {
			tile := tiles[ti]
			if !tile.Generatable(lanes) {
				continue
			}
			for _, kc := range kcs {
				for _, rotate := range []bool{false, true} {
					for _, loadC := range []bool{false, true} {
						cfg := mkernel.Config{
							Tile: tile, KC: kc, Lanes: lanes,
							Rotate: rotate, LoadC: loadC,
						}
						p, err := mkernel.Generate(cfg)
						if err != nil {
							t.Fatalf("generate %s: %v", cfg.Name(), err)
						}
						aopts, err := cfg.AnalysisOptions()
						if err != nil {
							t.Fatalf("options %s: %v", cfg.Name(), err)
						}
						requireScheduled(t, diffRun(t, p, aopts, rng), tile)
					}
				}
			}
		}

		bands := []mkernel.BandConfig{
			{Segments: []mkernel.Segment{{Tile: mkernel.Tile{MR: 4, NR: 2 * lanes}, Count: 2}},
				KC: 2*lanes + 1, Lanes: lanes, Rotate: true},
			{Segments: []mkernel.Segment{
				{Tile: mkernel.Tile{MR: 4, NR: 2 * lanes}, Count: 1},
				{Tile: mkernel.Tile{MR: 4, NR: lanes}, Count: 1}},
				KC: 2*lanes + 1, Lanes: lanes, Rotate: true},
		}
		for _, bc := range bands {
			for _, fuse := range []bool{false, true} {
				for _, loadC := range []bool{false, true} {
					cfg := bc
					cfg.Fuse, cfg.LoadC = fuse, loadC
					p, err := mkernel.GenerateBand(cfg)
					if err != nil {
						t.Fatalf("generate %s: %v", cfg.Name(), err)
					}
					aopts, err := cfg.AnalysisOptions()
					if err != nil {
						t.Fatalf("options %s: %v", cfg.Name(), err)
					}
					requireScheduled(t, diffRun(t, p, aopts, rng), bandTiles(cfg)...)
				}
			}
		}

		if chip.SVE {
			for _, nr := range []int{lanes - 1, lanes + 3, 3 * lanes} {
				for _, kc := range []int{lanes, lanes + 5} {
					cfg := mkernel.PredConfig{
						Tile: mkernel.Tile{MR: 4, NR: nr}, KC: kc, Lanes: lanes,
						LoadC: true,
					}
					if !cfg.Feasible() {
						continue
					}
					p, err := mkernel.GeneratePredicated(cfg)
					if err != nil {
						t.Fatalf("generate %s: %v", cfg.Name(), err)
					}
					diffRun(t, p, cfg.AnalysisOptions(), rng)
				}
			}
		}
	}
}

// TestCacheCompiled checks the kcache integration: positive memoization
// returns the same compiled program, and the asm and compiled forms stay
// keyed apart.
func TestCacheCompiled(t *testing.T) {
	cache := mkernel.NewCache()
	cfg := mkernel.Config{Tile: mkernel.Tile{MR: 4, NR: 8}, KC: 9, Lanes: 4,
		Rotate: true, LoadC: true}
	cp1, err := cache.Compiled(cfg)
	if err != nil {
		t.Fatalf("Compiled: %v", err)
	}
	cp2, err := cache.Compiled(cfg)
	if err != nil {
		t.Fatalf("Compiled (cached): %v", err)
	}
	if cp1 != cp2 {
		t.Fatalf("compiled program not memoized")
	}
	bc := mkernel.BandConfig{
		Segments: []mkernel.Segment{{Tile: mkernel.Tile{MR: 4, NR: 8}, Count: 2}},
		KC:       9, Lanes: 4, Fuse: true, LoadC: true,
	}
	cb1, err := cache.Compiled(bc)
	if err != nil {
		t.Fatalf("Compiled band: %v", err)
	}
	if cb2, _ := cache.Compiled(bc); cb2 != cb1 {
		t.Fatalf("compiled band not memoized")
	}
}

// TestLoopFuel pins loop fuel on generated kernels, whose counted loops
// the affine regions collapse (or, at σ = 16, run as loop segments): a
// run whose fuel is the kernel's total taken branches, Σ(trips − 1)
// over its loops, succeeds, and one with a branch less fails before it
// does any work.
func TestLoopFuel(t *testing.T) {
	specs := []mkernel.Spec{
		mkernel.Config{Tile: mkernel.Tile{MR: 4, NR: 8}, KC: 64, Lanes: 4, Rotate: true, LoadC: true},
		mkernel.BandConfig{Segments: []mkernel.Segment{{Tile: mkernel.Tile{MR: 4, NR: 8}, Count: 2}},
			KC: 33, Lanes: 4, Rotate: true, Fuse: true},
		mkernel.Config{Tile: mkernel.Tile{MR: 4, NR: 32}, KC: 64, Lanes: 16, LoadC: true},
	}
	for _, s := range specs {
		cache := mkernel.NewCache()
		cp, err := cache.Compiled(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Key(), err)
		}
		p, err := cache.Program(s)
		if err != nil {
			t.Fatal(err)
		}
		var aopts analysis.Options
		switch c := s.(type) {
		case mkernel.Config:
			aopts, err = c.AnalysisOptions()
		case mkernel.BandConfig:
			aopts, err = c.AnalysisOptions()
		}
		if err != nil {
			t.Fatal(err)
		}
		rep, err := analysis.Analyze(p, aopts)
		if err != nil {
			t.Fatal(err)
		}
		taken := 0
		for _, l := range rep.Loops {
			taken += int(l.Trips - 1)
		}
		if taken == 0 {
			t.Fatalf("%s: no taken branches to charge", s.Key())
		}
		a, bp, c, lda, ldb, ldc := benchOperands(cp)
		e := compile.NewEnv(cp.Lanes)
		l := cp.Layout(lda, ldb, ldc)
		if err := cp.Run(e, l, a, bp, c, 0, 0, 0, taken); err != nil {
			t.Errorf("%s: fuel %d (its taken branches): %v", s.Key(), taken, err)
		}
		err = cp.Run(e, l, a, bp, c, 0, 0, 0, taken-1)
		if err == nil || !strings.Contains(err.Error(), "exceeded") || !strings.Contains(err.Error(), "loop iterations") {
			t.Errorf("%s: fuel %d: got %v, want the exceeded-loop-iterations error", s.Key(), taken-1, err)
		}
	}
}

// TestUnprovenLoops checks the refusals the analyzer owns: loops whose
// address registers do not move by one fixed step every trip, and a
// predicated access whose active lanes no constant WHILELT or PTRUE
// proves. Each program is otherwise clean, so Compile's ErrUnproven
// comes from the bounds proof, and the program stays on the
// interpreter.
func TestUnprovenLoops(t *testing.T) {
	// kernel builds C row 0 += A·B over one accumulator, with body as
	// a counted loop of trips after the operand loads.
	kernel := func(p *asm.Program, trips int64, pre, body func()) {
		pre()
		p.LdrQ(asm.V(0), asm.X(2), 0)
		p.LdrQ(asm.V(1), asm.X(0), 0)
		p.LdrQ(asm.V(2), asm.X(1), 0)
		p.MovI(asm.X(29), trips)
		p.Label("loop")
		p.Fmla(asm.V(0), asm.V(2), asm.V(1), 0)
		body()
		p.Subs(asm.X(29), asm.X(29), 1)
		p.Bne("loop")
		p.StrQ(asm.V(0), asm.X(2), 0)
		p.Ret()
	}
	cases := []struct {
		name     string
		lanes    int
		build    func(p *asm.Program)
		complete bool // the bounds pass completes, and compile refuses
	}{
		// x6 trails x1 by one trip: it moves 0 on trip 0 and 16 on
		// trip 1, so the B load through it has no fixed step.
		{"trip-1-mismatch", 4, func(p *asm.Program) {
			kernel(p, 3, func() { p.Mov(asm.X(6), asm.X(1)) }, func() {
				p.LdrQ(asm.V(2), asm.X(6), 0)
				p.Mov(asm.X(6), asm.X(1))
				p.AddI(asm.X(1), asm.X(1), 16)
			})
		}, false},
		// x6 doubles every trip: B at 16, then 32 bytes.
		{"loop-not-affine", 4, func(p *asm.Program) {
			kernel(p, 2, func() { p.MovI(asm.X(6), 16) }, func() {
				p.Add(asm.X(7), asm.X(1), asm.X(6))
				p.LdrQ(asm.V(2), asm.X(7), 0)
				p.Add(asm.X(6), asm.X(6), asm.X(6))
			})
		}, false},
		// The predicate's limit is ldb, an argument: its active lanes
		// are unknown, so the loads are proven for a full vector but
		// cannot be run as any fixed number of lanes.
		{"whilelt-not-constant", 16, func(p *asm.Program) {
			p.MovI(asm.X(9), 0)
			p.Whilelt(asm.P(1), asm.X(9), asm.X(4))
			p.Ld1W(asm.V(0), asm.P(1), asm.X(2), 0)
			p.Ld1W(asm.V(1), asm.P(1), asm.X(0), 0)
			p.Ld1W(asm.V(2), asm.P(1), asm.X(1), 0)
			p.Fmla(asm.V(0), asm.V(2), asm.V(1), 0)
			p.St1W(asm.V(0), asm.P(1), asm.X(2), 0)
			p.Ret()
		}, true},
	}
	for _, c := range cases {
		p := asm.NewProgram(c.name)
		c.build(p)
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		bounds := analysis.Bounds{MR: 2, NR: 16, KC: 4, Lanes: c.lanes, AOverVectors: 1, BOverRows: 2}
		rep, err := analysis.Analyze(p, analysis.Options{Bounds: &bounds})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() || rep.BoundsComplete != c.complete {
			t.Fatalf("%s: complete %v, want %v; findings:\n%s", c.name, rep.BoundsComplete, c.complete, rep)
		}
		if _, err := compile.Compile(p, compile.Options{Lanes: c.lanes, Bounds: bounds}); !errors.Is(err, compile.ErrUnproven) {
			t.Errorf("%s: Compile returned %v, want ErrUnproven", c.name, err)
		}
	}
}
