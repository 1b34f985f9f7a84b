package compile_test

import (
	"errors"
	"math"
	"strconv"
	"testing"

	"autogemm/internal/asm"
	"autogemm/internal/asm/analysis"
	"autogemm/internal/sim/compile"
)

// FuzzCompileDiff feeds random short programs through Compile and, for
// every program the analyzer proves, cross-checks the compiled backend
// against the checked interpreter. The invariant under test is the
// bounds-elision contract itself: if Compile succeeds and the layout's
// reach check accepts the operands, the compiled run must neither fault
// nor diverge from the interpreter on C, bit for bit. (The compiled
// form has no scalar registers, flags or predicates: the analyzer
// resolved them into each access's panel position and each loop's trip
// count, and nothing reads them after RET, so there is nothing to
// compare.) Both backends start from one vector file poisoned with
// NaNs (requireMatches): a tile program must leave it untouched, and a
// loose program must leave the interpreter's exit vector file, every
// register bit for bit. On an AVX host a tile program's chunks run
// through a register-tile loop (tile_amd64.s), so each input runs once
// per loop the host can run, and this fuzzes each against sim.Machine,
// 1×1 fallback tiles included. The rule is bit equality except where
// both results are NaN, whose payload neither the AVX loops nor gc's
// scalar code pin (see TestTileMatchesGo). The operands here are finite
// and small, so no result is NaN and the comparison is on raw bits.
// Every proven program is first run with ldc = len(data) mod NR, which
// breaks the rule that C rows are disjoint: Run must refuse it with
// ErrBounds before any work. A tile program then runs once more on
// operands cut to its exact extents, each followed by a NaN tail
// (requireExactCut): C must still be bit-equal and every tail
// untouched. The seeds must hold both lowerings (requireSeedLowerings).
func FuzzCompileDiff(f *testing.F) {
	// Seeds: scalar shuffling, raw bytes that decode into memory ops
	// with varying offsets, and the affine region proof's cases.
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{8, 200, 9, 14, 8, 23, 10, 42, 11, 7, 12, 99})
	f.Add([]byte{13, 1, 2, 3, 13, 13, 13, 5, 6, 0, 0, 9, 9})
	f.Add([]byte{5, 6, 6, 3, 8, 113, 10})
	requireSeedLowerings(f)
	for _, s := range schedSeeds {
		f.Add(s.data)
	}
	loops := compile.TileLoops(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, loop := range loops {
			compile.WithTileLoop(loop, func() {
				defer func() {
					if t.Failed() {
						t.Logf("on the %s tile loop", loop)
					}
				}()
				compileDiff(t, data)
			})
		}
	})
}

func compileDiff(t *testing.T, data []byte) {
	p := buildFuzzProgram(data)
	bounds := fuzzBounds()
	cp, err := compile.Compile(p, compile.Options{Lanes: bounds.Lanes, Bounds: bounds})
	if err != nil {
		return // unproven or invalid: the interpreter path owns it
	}

	lda := int64(bounds.KC + bounds.AOverVectors*bounds.Lanes)
	ldb := int64(bounds.NR)
	ldc := int64(bounds.NR)
	ops := [3][]float32{
		make([]float32, bounds.AExtent(lda)),
		make([]float32, bounds.BExtent(ldb)),
		make([]float32, bounds.CExtent(ldc)),
	}
	for i := range ops[0] {
		ops[0][i] = float32(i%17)*0.5 - 3
	}
	for i := range ops[1] {
		ops[1][i] = float32(i%11)*0.25 - 1
	}
	for i := range ops[2] {
		ops[2][i] = float32(i % 7)
	}

	// C rows that overlap (ldc < NR) must be refused before any work.
	got := append([]float32(nil), ops[2]...)
	overlap := int64(len(data)) % ldc
	err = cp.Layout(lda, ldb, overlap).Run(compile.NewEnv(bounds.Lanes), ops[0], ops[1], got, 0, 0, 0, 1<<20)
	if !errors.Is(err, compile.ErrBounds) {
		t.Fatalf("ldc %d < NR %d: Run returned %v, want ErrBounds", overlap, bounds.NR, err)
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(ops[2][i]) {
			t.Fatalf("ldc %d < NR %d: refused Run wrote C[%d]", overlap, bounds.NR, i)
		}
	}

	want := requireMatches(t, p, cp, ops, lda, ldb, ldc)
	if compile.TileProgram(cp) {
		requireExactCut(t, cp, ops, want, lda, ldb, ldc)
	}
}

// schedSeeds decode into programs that reach the vector half of the
// affine region proof (affine.go) or the rule that lowering is all or
// nothing; loose marks those that must lower to loose micro-ops, the
// rest to tile programs. The address half is the analyzer's:
// TestUnprovenLoops. Reloading or zeroing an accumulator after its first
// FMLA has no seed: with no store between them the analyzer already
// refuses the program as an accumulator clobber, so affine_test.go
// covers that rule on micro-ops directly.
var schedSeeds = []struct {
	name  string
	data  []byte
	loose bool
}{
	// ldr q2 (B); ldr q6, q5, q7 (A); fmla v4, v2, v6.s[0];
	// fmla v2, v5, v7.s[2]; str q4; str q2: v2 is read as a
	// multiplicand and later accumulated into in the same region.
	{"acc-as-source", []byte{6, 2, 5, 6, 5, 5, 5, 7, 8, 212, 8, 234, 10, 4, 10, 2}, true},
	// ldr q6 (A), q3 (B); fmla v1, v6, v3.s[1]; str q1; ldr q6, q2;
	// fmla v4, v2, v6.s[0]; str q4: the loads after the store start a
	// second region, and both are proven, but the prologue zeroes v4
	// inside the first, so the second's accumulator is live-in.
	{"load-after-store", []byte{5, 6, 6, 3, 8, 113, 10, 1, 5, 6, 6, 2, 8, 212, 10, 4}, true},
	// ldr q6 (A), q2 (B), then three trips of { fmla v1, v2, v6.s[1];
	// ldr q2, [x1, #32] }, then str q1: a loop-carried multiplicand
	// whose pre-loop load starts the progression, collapsed with the
	// loop.
	{"counted-loop", []byte{5, 6, 6, 2, 14, 5, 8, 209, 6, 2, 10, 1}, false},
	// As counted-loop, but v2 walks B by post-incrementing x15: the
	// pre-loop load at byte 0, then 16, 32 and 48 on the three trips.
	{"counted-loop-cols", []byte{5, 6, 11, 4, 14, 5, 8, 209, 11, 4, 10, 1}, false},
	// As counted-loop-cols, but v2 walks the B rows through x16 += ldb.
	{"counted-loop-rows", []byte{5, 6, 11, 5, 14, 5, 8, 209, 11, 5, 10, 1}, false},
	// As counted-loop, but the pre-loop v2 comes from A: trip 0's
	// multiplicand is not the progression the body carries.
	{"carried-mismatch", []byte{5, 6, 5, 2, 14, 5, 8, 209, 6, 2, 10, 1}, true},
	// fmla v1, v2, v6.s[1]; fmla v1, v6, v7.s[1]: the multiplicand moves
	// from B to A, so its addresses are not one progression.
	{"non-progression", []byte{5, 6, 5, 7, 6, 2, 8, 209, 8, 241, 10, 1}, true},
	// fmla v1, v6, v3.s[1] on registers only the prologue zeroed: an
	// operand no load produced.
	{"zeroed-operand", []byte{8, 113, 10, 1}, true},
	// As load-after-store, with movi v4 after the first store: the
	// second region sets its accumulator up itself, and the program is
	// two register tiles.
	{"two-regions", []byte{5, 6, 6, 3, 8, 113, 10, 1, 9, 4, 5, 6, 6, 2, 8, 212, 10, 4}, false},
	// ldr q6 (A), q2 (B); fmla v1, v2, v6.s[1]; str q1; str q2: the
	// region is proven, but a loose store reads the B vector it
	// loaded (looseFallbacks' reads-region-exit).
	{"reads-region-exit", []byte{5, 6, 6, 2, 8, 209, 10, 1, 10, 2}, true},
	// As reads-region-exit up to str q1, then ldr q4 (A), q3 (B);
	// fmla v1, v3, v4.s[1]; str q1: both regions are proven, but the
	// second accumulates onto the v1 the first left (looseFallbacks'
	// carried-accumulator).
	{"carried-accumulator", []byte{5, 6, 6, 2, 8, 209, 10, 1, 5, 4, 6, 3, 8, 153, 10, 1}, true},
}

// TestSchedSeeds pins what each seed exercises (requireSeedLowerings).
// The fuzz target runs the seeds against the interpreter.
func TestSchedSeeds(t *testing.T) { requireSeedLowerings(t) }

// requireSeedLowerings fails unless every seed of schedSeeds compiles
// and lowers as it says, and the seeds hold at least one tile program
// and one loose fallback.
func requireSeedLowerings(tb testing.TB) {
	bounds := fuzzBounds()
	var tiles, loose int
	for _, s := range schedSeeds {
		p := buildFuzzProgram(s.data)
		cp, err := compile.Compile(p, compile.Options{Lanes: bounds.Lanes, Bounds: bounds})
		if err != nil {
			tb.Fatalf("%s: %v\n%s", s.name, err, p)
		}
		if got := compile.TileProgram(cp); got == s.loose {
			tb.Fatalf("%s: tile program %v, want %v\n%s", s.name, got, !s.loose, p)
		}
		if s.loose {
			loose++
		} else {
			tiles++
		}
	}
	if tiles == 0 || loose == 0 {
		tb.Fatalf("seeds hold %d tile programs and %d loose fallbacks, want at least one of each", tiles, loose)
	}
}

// fuzzBounds is the fixed panel model fuzz programs are checked
// against: a 2×16 tile over 4 k-steps, wide enough that every immediate
// offset the decoder emits stays inside its panel row.
func fuzzBounds() analysis.Bounds {
	return analysis.Bounds{MR: 2, NR: 16, KC: 4, Lanes: 4, AOverVectors: 1, BOverRows: 2}
}

// buildFuzzProgram decodes bytes into a short program over a
// conservative vocabulary: scalar arithmetic on x6..x12, vector ops on
// v0..v7, A/B loads plus C load/store with small immediate offsets
// derived from the input, B loads through two moving pointers (x15 walks
// a row one vector per load, x16 walks the rows by ldb), and counted
// loops (MovI / label / Subs / Bne on x14) of one to three trips around
// the next one to four ops, so loads in loops step every trip. A
// prologue zeroes each vector register whose first access is a read, so
// programs are self-initializing without dead zeroings. Every program
// ends with Ret and every loop is counted, so all inputs terminate;
// whether the analyzer can prove one is up to the byte stream.
func buildFuzzProgram(data []byte) *asm.Program {
	p := asm.NewProgram("fuzz")
	x := func(b byte) asm.Reg { return asm.X(6 + int(b)%7) }
	v := func(b byte) asm.Reg { return asm.V(int(b) % 8) }
	next := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n := len(data)
	if n > 48 {
		n = 48
	}
	loop, loopLeft := "", 0
	closeLoop := func() {
		p.Subs(asm.X(14), asm.X(14), 1)
		p.Bne(loop)
		loop = ""
	}
	for i := 0; i < n; i += 2 {
		op, arg := next(i), next(i+1)
		if op%15 == 14 {
			if loop == "" {
				loop, loopLeft = "loop"+strconv.Itoa(i), int(arg>>2)%4+1
				p.MovI(asm.X(14), int64(arg%3)+1)
				p.Label(loop)
			}
			continue
		}
		switch op % 15 {
		case 0:
			p.MovI(x(arg), int64(arg%32)*4)
		case 1:
			p.AddI(x(arg), x(arg>>3), int64(arg%8)*4)
		case 2:
			p.SubI(x(arg), x(arg), int64(arg%4)*4)
		case 3:
			p.Mov(x(arg), x(arg>>3))
		case 4:
			p.Add(x(arg), x(arg>>3), x(arg>>5))
		case 5:
			p.LdrQ(v(arg), asm.X(0), int64(arg%2)*16) // A row 0
		case 6:
			p.LdrQ(v(arg), asm.X(1), int64(arg%4)*16) // B rows
		case 7:
			p.LdrQ(v(arg), asm.X(2), 0) // C row 0
		case 8:
			p.Fmla(v(arg), v(arg>>3), v(arg>>5), int(arg)%4)
		case 9:
			p.VZero(v(arg))
		case 10:
			p.StrQ(v(arg), asm.X(2), 0) // C row 0
		case 11:
			if arg%2 == 0 {
				p.LdrQPost(v(arg>>1), asm.X(15), 16)
			} else {
				p.LdrQ(v(arg>>1), asm.X(16), 0)
				p.Add(asm.X(16), asm.X(16), asm.X(17))
			}
		case 12:
			p.Subs(x(arg), x(arg), int64(arg%4))
		case 13:
			// A second-row access through an affine base copy.
			p.Add(asm.X(13), asm.X(0), asm.X(3))
			p.Lsl(asm.X(13), asm.X(3), 2)
			p.Add(asm.X(13), asm.X(0), asm.X(13))
			p.LdrQ(v(arg), asm.X(13), 0)
		}
		if loop != "" {
			if loopLeft--; loopLeft == 0 {
				closeLoop()
			}
		}
	}
	if loop != "" {
		closeLoop()
	}
	p.Ret()

	// The prologue sets up the moving B pointers and zeroes vector
	// registers: the base registers x0..x2 stay the unscaled ABI
	// arguments, so addresses remain affine in the analyzer's panel
	// symbols.
	out := asm.NewProgram(p.Name)
	out.Mov(asm.X(15), asm.X(1))
	out.Mov(asm.X(16), asm.X(1))
	out.Lsl(asm.X(17), asm.X(4), 2)
	var seen [asm.NumVectorRegs]bool
	for i := range p.Instrs {
		in := &p.Instrs[i]
		for _, r := range in.Reads() {
			if r.IsVector() && !seen[r.Index()] {
				seen[r.Index()] = true
				out.VZero(r)
			}
		}
		for _, r := range in.Writes() {
			if r.IsVector() {
				seen[r.Index()] = true
			}
		}
	}
	for _, in := range p.Instrs {
		if in.Op == asm.OpLabel {
			out.Label(in.Label)
		} else {
			out.Instrs = append(out.Instrs, in)
		}
	}
	return out
}
