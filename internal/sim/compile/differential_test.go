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
// panels, a tile program's vector file untouched and a loose program's
// equal to the interpreter's (requireMatches). It mirrors mkernel's analyzer differential (sampled per
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

// diffRun compiles p and runs it on both backends (requireMatches). It
// returns the compiled program for further static checks.
func diffRun(t *testing.T, p *asm.Program, aopts analysis.Options, rng *rand.Rand) *compile.Program {
	t.Helper()
	b := aopts.Bounds
	cp, err := compile.Compile(p, compile.Options{Lanes: b.Lanes, Bounds: *b, Rotation: aopts.Rotation})
	if err != nil {
		t.Fatalf("compile %s: %v", p.Name, err)
	}
	ops, lda, ldb, ldc := randOperands(rng, *b)
	requireMatches(t, p, cp, ops, lda, ldb, ldc)
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

// requireScheduled fails unless a 4-lane program is a tile program
// whose regions, in program order, hold the full MR × NR/σ accumulator
// grid of each kernel tile in tiles. So a generator change can neither
// drop the register-tile fast path for loose micro-ops, nor silently
// degrade it to 1×1 tiles.
func requireScheduled(t *testing.T, cp *compile.Program, tiles ...mkernel.Tile) {
	t.Helper()
	if cp.Lanes != 4 {
		return
	}
	if !compile.TileProgram(cp) {
		t.Fatalf("%s: lowered to loose micro-ops, not a tile program", cp.Name)
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

// TestDifferentialSweep covers the lint sweep's kernel classes once per
// distinct (lane width, SVE) pair of the modeled chips.
// The tile grid's KC values include 1 and σ+1 (straight-line kernels
// and one-trip loops) and 129 (a long k-loop). Every 4-lane kernel is
// a tile program, and on an AVX host its chunks run through a
// register-tile loop (tile_amd64.s), so the sweep runs once per loop
// the host can run (forEachTileLoop) and holds each to sim.Machine. The
// rule is bit equality except where both results are NaN, whose payload
// neither the AVX loops nor gc's scalar code pin (see
// TestTileMatchesGo). The operands here are finite and small, so no
// result is NaN and the comparison is on raw bits.
func TestDifferentialSweep(t *testing.T) { forEachTileLoop(t, differentialSweep) }

// forEachTileLoop runs f as one subtest per native register-tile loop
// this host can run, with that loop installed; compile.TileLoops logs
// each loop the host cannot run, and names the pure-Go execTile when it
// runs none.
func forEachTileLoop(t *testing.T, f func(t *testing.T)) {
	for _, name := range compile.TileLoops(t) {
		t.Run(name, func(t *testing.T) { compile.WithTileLoop(name, func() { f(t) }) })
	}
}

func differentialSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// A kernel's spec carries no chip, so chips of one lane width and
	// SVE flag generate the same programs: sweep each pair once.
	type width struct {
		lanes int
		sve   bool
	}
	swept := map[width]bool{}
	for _, chip := range hw.All() {
		w := width{chip.Lanes, chip.SVE}
		if swept[w] {
			continue
		}
		swept[w] = true
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
		if err := l.Run(e, a, bp, c, 0, 0, 0, taken); err != nil {
			t.Errorf("%s: fuel %d (its taken branches): %v", s.Key(), taken, err)
		}
		err = l.Run(e, a, bp, c, 0, 0, 0, taken-1)
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
