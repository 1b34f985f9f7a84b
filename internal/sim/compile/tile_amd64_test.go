package compile

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
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
// in any order, at one column offset. The set-up is zeros or C, and
// the chunk stores to C or not.
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

	t.init, t.store = int64(rng.Intn(2)), int64(rng.Intn(2))
	col := rng.Int63n(ldc - 4*cols + 1)
	for i, r := range rng.Perm(tileRowsC)[:rows] {
		t.c[i] = (int64(r)*ldc + col) * 4
	}
	return t
}

func init() {
	host := hostTile()
	tileLoops = []tileLoop{
		{"zmm", tileAVX512, sameLoop(host, tileAVX512)},
		{"ymm", tileAVX, !sameLoop(host, execTile)},
	}
}

func sameLoop(a, b func(*Env, *tile)) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// TestRunTile checks pickTile on the CPUID and XGETBV words of AVX-512,
// AVX-only and pre-AVX hosts, each XCR0 state bit dropped in turn, and
// that the executor runs what pickTile picks for this host, which it
// logs.
func TestRunTile(t *testing.T) {
	const (
		osxsave, avx, avx512f = 1 << 27, 1 << 28, 1 << 16
		xcr0                  = 0xe7 // x87, SSE, AVX, opmask, ZMM upper halves, ZMM16..31
	)
	loops := map[uintptr]string{}
	for _, l := range []struct {
		name string
		run  func(*Env, *tile)
	}{{"execTile", execTile}, {"tileAVX", tileAVX}, {"tileAVX512", tileAVX512}} {
		loops[reflect.ValueOf(l.run).Pointer()] = l.name
	}
	for _, c := range []struct {
		what             string
		ecx1, ebx7, xcr0 uint32
		want             string
	}{
		{"AVX-512", osxsave | avx, avx512f, xcr0, "tileAVX512"},
		{"AVX-512, no SSE state", osxsave | avx, avx512f, xcr0 &^ 0x2, "execTile"},
		{"AVX-512, no AVX state", osxsave | avx, avx512f, xcr0 &^ 0x4, "execTile"},
		{"AVX-512, no opmask state", osxsave | avx, avx512f, xcr0 &^ 0x20, "tileAVX"},
		{"AVX-512, no ZMM upper-half state", osxsave | avx, avx512f, xcr0 &^ 0x40, "tileAVX"},
		{"AVX-512, no ZMM16..31 state", osxsave | avx, avx512f, xcr0 &^ 0x80, "tileAVX"},
		{"AVX-512, no OSXSAVE", avx, avx512f, 0, "execTile"},
		{"AVX only", osxsave | avx, 0, 0x7, "tileAVX"},
		{"AVX only, AVX-512 state on", osxsave | avx, 0, xcr0, "tileAVX"},
		{"AVX, no OSXSAVE", avx, 0, 0, "execTile"},
		{"OSXSAVE, no AVX", osxsave, avx512f, xcr0, "execTile"},
		{"no AVX", 0, 0, 0, "execTile"},
	} {
		if got := loops[reflect.ValueOf(pickTile(c.ecx1, c.ebx7, c.xcr0)).Pointer()]; got != c.want {
			t.Errorf("%s (ecx1 %#x, ebx7 %#x, xcr0 %#x): picks %s, want %s", c.what, c.ecx1, c.ebx7, c.xcr0, got, c.want)
		}
	}
	installed := loops[reflect.ValueOf(runTile).Pointer()]
	if !sameLoop(runTile, hostTile()) {
		t.Fatalf("runTile is %s, not the loop pickTile picks for this host", installed)
	}
	t.Logf("installed tile loop: %s", installed)
}

// TestTileMatchesGo runs each native tile loop this host can run
// (tileAVX512 and tileAVX on an AVX-512 host) and the pure-Go execTile
// on copies of one tile's C panel, for every shape there is and both
// set-ups, with and without the C store, and requires the C panels to
// match bit for bit, except where both hold a NaN. NaN payloads cannot
// be pinned: when both operands of a multiply or add are NaN, x86
// returns the first source's payload, and the gc compiler picks which
// operand is the MULSS/ADDSS destination per lane by register
// allocation, so the Go loop itself has no fixed payload to match.
// Neither loop may write the A and B panel or a bit of the vector file,
// and a chunk that does not store must leave C alone.
func TestTileMatchesGo(t *testing.T) {
	for _, name := range TileLoops(t) {
		if name == "go" {
			t.Skip("no AVX: no native tile loop can run here")
		}
		t.Run(name, func(t *testing.T) { tileMatchesGo(t, name, tileLoopNamed(name)) })
	}
}

func tileMatchesGo(t *testing.T, name string, native func(*Env, *tile)) {
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
				want.Poison(uint32(iter))
				got.v = want.v
				v0 := want.v
				for _, e := range []*Env{want, got} {
					e.base[0] = unsafe.Pointer(&panel[0])
					e.base[1] = unsafe.Pointer(&panel[0])
				}
				want.base[2], got.base[2] = unsafe.Pointer(&cWant[0]), unsafe.Pointer(&cGot[0])
				execTile(want, &tl)
				native(got, &tl)
				what := fmt.Sprintf("%d×%d iter %d (n %d, sa %d, sb %d, off %v, init %d, store %d, c %v)",
					rows, cols, iter, tl.n, tl.sa, tl.sb, tl.off[:rows], tl.init, tl.store, tl.c[:rows])
				same := func(where string, i int, gv, wv float32) {
					if gv != gv && wv != wv {
						return
					}
					if math.Float32bits(gv) != math.Float32bits(wv) {
						t.Fatalf("%s: %s[%d]: %s %#08x (%g), go %#08x (%g)",
							what, where, i, name, math.Float32bits(gv), gv, math.Float32bits(wv), wv)
					}
				}
				for i := range cGot {
					same("C", i, cGot[i], cWant[i])
					if tl.store == 0 {
						same("C before", i, cWant[i], c[i])
					}
				}
				for loop, e := range map[string]*Env{"go": want, name: got} {
					for i := range e.v {
						if math.Float32bits(e.v[i]) != math.Float32bits(v0[i]) {
							t.Fatalf("%s: the %s loop wrote v[%d]", what, loop, i)
						}
					}
				}
				for i := range panel {
					if math.Float32bits(panel[i]) != math.Float32bits(before[i]) {
						t.Fatalf("%s: panel[%d] written", what, i)
					}
				}
			}
		}
	}
}
