package compile

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"autogemm/internal/asm"
)

// tilePanel is the number of floats of the panel a random tile reads
// its scalars and multiplicands from, and tileRowsC the rows of the C
// panel it loads and stores.
const (
	tilePanel = 2048
	tileRowsC = 8
)

// randTile builds a rows × cols tile over a panel of tilePanel floats,
// which it reads as both A and B, and a C panel of tileRowsC rows of
// ldc floats. n runs from 0 to 40 steps; the scalar and multiplicand
// strides are drawn from zero, small, negative and large, and the row
// offsets from −32 to 32 floats, negative ones included. Every read
// stays inside the panel. The C rows are distinct rows of the C panel,
// in any order, at one column offset. The set-up is staged, zeros or
// C, and the chunk stores to C or not. The accumulators go back to
// distinct vector registers, in any order: write-back is on.
func randTile(rng *rand.Rand, rows, cols, ldc int64) tile {
	t := tile{rows: rows, cols: cols, bbank: 1}
	switch rng.Intn(4) {
	case 0:
		t.n = 0
	case 1:
		t.n = 1
	default:
		t.n = 2 + rng.Int63n(39)
	}
	stride := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return 1 + rng.Int63n(8)
		case 2:
			return -1 - rng.Int63n(8)
		}
		return 16 + rng.Int63n(8)
	}
	// start returns an element s with s+lo ≥ 0 and s+hi < tilePanel
	// (lo ≤ 0 ≤ hi): a run reading [s+lo, s+hi) fits the panel.
	start := func(lo, hi int64) int64 { return -lo + rng.Int63n(tilePanel-hi+lo) }
	sa, sb := stride(), stride()
	span := func(s int64) (lo, hi int64) {
		d := s * max(t.n-1, 0)
		return min(0, d), max(0, d)
	}
	var offLo, offHi int64
	for i := int64(0); i < rows; i++ {
		off := rng.Int63n(65) - 32
		if i == 0 {
			off = 0
		}
		t.off[i] = off * 4
		offLo, offHi = min(offLo, off), max(offHi, off)
	}
	lo, hi := span(sa)
	t.a, t.sa = start(offLo+lo, offHi+hi+1)*4, sa*4
	lo, hi = span(sb)
	t.b, t.sb = start(lo, hi+4*cols)*4, sb*4

	t.init, t.store, t.wb = int64(rng.Intn(3)), int64(rng.Intn(2)), 1
	col := rng.Int63n(ldc - 4*cols + 1)
	for i, r := range rng.Perm(tileRowsC)[:rows] {
		t.c[i] = (int64(r)*ldc + col) * 4
	}
	for s := range t.v {
		t.v[s] = tileSpill
	}
	regs := rng.Perm(asm.NumVectorRegs)
	for i := int64(0); i < rows; i++ {
		for c := int64(0); c < cols; c++ {
			t.v[slot(i, c, cols)] = int64(regs[i*cols+c]) * 16
		}
	}
	return t
}

// TestRunAffineIsSSE checks that the executor runs every tile chunk
// through the native loop, tileAVX, exactly when CPUID and XGETBV
// report usable AVX (the CPU implements it and the OS saves the YMM
// state), and through the pure-Go execTile otherwise. (The name dates
// from the SSE strided loop that tileAVX replaced.)
func TestRunAffineIsSSE(t *testing.T) {
	ecx := cpuid1()
	avx := ecx&(1<<27) != 0 && ecx&(1<<28) != 0 && xgetbv0()&0b110 == 0b110
	want := reflect.ValueOf(execTile).Pointer()
	if avx {
		want = reflect.ValueOf(tileAVX).Pointer()
	}
	if reflect.ValueOf(runTile).Pointer() != want {
		t.Fatalf("AVX usable %v, but runTile is not the matching loop", avx)
	}
}

// TestTileMatchesGo runs tileAVX and the pure-Go execTile on copies of
// one tile's environment, for every shape the assembly implements and
// every set-up, with and without the C store, and requires the C panel
// and the vector file to match bit for bit, except where both hold a
// NaN. NaN payloads cannot be pinned: when both operands of a multiply
// or add are NaN, x86 returns the first source's payload, and the gc
// compiler picks which operand is the MULSS/ADDSS destination per lane
// by register allocation, so the Go loop itself has no fixed payload to
// match. Neither loop may write the A and B panel; a chunk that does
// not store must leave C alone. Every tile then runs again with its
// vector-file write-back off, as under a tile-only program's Layout, on
// both loops: C must match the write-back run's, and neither loop may
// write a bit of the vector file.
func TestTileMatchesGo(t *testing.T) {
	if !hasAVX() {
		t.Skip("no AVX: tileAVX cannot run here")
	}
	rng := rand.New(rand.NewSource(1))
	panel := make([]float32, tilePanel)
	for rows := int64(1); rows <= maxTileRows; rows++ {
		for cols := int64(1); cols <= maxTileCols(rows); cols++ {
			for iter := 0; iter < 90; iter++ {
				// Special operands in none, a few or a third of the
				// values, so some accumulators stay finite and some meet
				// Inf and NaN.
				special := []int{0, 64, 3}[iter%3]
				value := func() float32 {
					if special > 0 && rng.Intn(special) == 0 {
						return SpecialOperands[rng.Intn(len(SpecialOperands))]
					}
					return rng.Float32()*4 - 2
				}
				for i := range panel {
					panel[i] = value()
				}
				before := append([]float32(nil), panel...)
				ldc := 4*cols + rng.Int63n(9)
				tl := randTile(rng, rows, cols, ldc)
				c := make([]float32, tileRowsC*ldc)
				for i := range c {
					c[i] = value()
				}
				cWant, cGot := append([]float32(nil), c...), append([]float32(nil), c...)
				want, got := NewEnv(4), NewEnv(4)
				for i := range want.v {
					want.v[i] = value()
				}
				for i := range want.acc {
					for l := range want.acc[i] {
						want.acc[i][l] = value()
					}
				}
				got.v, got.acc = want.v, want.acc
				v0 := want.v
				for _, e := range []*Env{want, got} {
					e.base[0] = unsafe.Pointer(&panel[0])
					e.base[1] = unsafe.Pointer(&panel[0])
				}
				want.base[2], got.base[2] = unsafe.Pointer(&cWant[0]), unsafe.Pointer(&cGot[0])
				execTile(want, &tl)
				tileAVX(got, &tl)
				what := fmt.Sprintf("%d×%d iter %d (n %d, sa %d, sb %d, off %v, init %d, store %d, c %v)",
					rows, cols, iter, tl.n, tl.sa, tl.sb, tl.off[:rows], tl.init, tl.store, tl.c[:rows])
				same := func(where string, i int, gv, wv float32) {
					if gv != gv && wv != wv {
						return
					}
					if math.Float32bits(gv) != math.Float32bits(wv) {
						t.Fatalf("%s: %s[%d]: avx %#08x (%g), go %#08x (%g)",
							what, where, i, math.Float32bits(gv), gv, math.Float32bits(wv), wv)
					}
				}
				for i := range cGot {
					same("C", i, cGot[i], cWant[i])
					if tl.store == 0 {
						same("C before", i, cWant[i], c[i])
					}
				}
				for i := 0; i < asm.NumVectorRegs*4; i++ {
					same("v", i, got.v[i], want.v[i])
				}
				for i := range panel {
					if math.Float32bits(panel[i]) != math.Float32bits(before[i]) {
						t.Fatalf("%s: panel[%d] written", what, i)
					}
				}

				off := tl
				off.wb = 0
				for _, loop := range []struct {
					name string
					run  func(*Env, *tile)
				}{{"go", execTile}, {"avx", tileAVX}} {
					e := NewEnv(4)
					e.v, e.acc, e.base = v0, want.acc, want.base
					cOff := append([]float32(nil), c...)
					e.base[2] = unsafe.Pointer(&cOff[0])
					loop.run(e, &off)
					for i := range cOff {
						same(loop.name+" C, write-back off", i, cOff[i], cWant[i])
					}
					for i := range e.v {
						if math.Float32bits(e.v[i]) != math.Float32bits(v0[i]) {
							t.Fatalf("%s: %s loop, write-back off: v[%d] written", what, loop.name, i)
						}
					}
				}
			}
		}
	}
}
