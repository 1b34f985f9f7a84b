package compile

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// tilePanel is the number of floats of the panel a random tile reads
// its scalars and multiplicands from.
const tilePanel = 2048

// randTile builds a rows × cols tile over panel: n from 0 to 40 steps,
// scalar and multiplicand strides drawn from zero, small, negative and
// large, and row offsets from −32 to 32 floats, negative ones included.
// Every read stays inside the panel. The accumulators are drawn by
// value.
func randTile(rng *rand.Rand, panel []float32, rows, cols int64, value func() float32) tile {
	t := tile{rows: rows, cols: cols}
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
	a := start(offLo+lo, offHi+hi+1)
	lo, hi = span(sb)
	b := start(lo, hi+4*cols)
	base := unsafe.Pointer(&panel[0])
	t.a, t.sa = unsafe.Add(base, a*4), sa*4
	t.b, t.sb = unsafe.Add(base, b*4), sb*4
	for i := range t.acc {
		for l := range t.acc[i] {
			t.acc[i][l] = value()
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
// one tile, for every shape the assembly implements, and requires the
// accumulators to match bit for bit, except where both hold a NaN. NaN
// payloads cannot be pinned: when both operands of a multiply or add
// are NaN, x86 returns the first source's payload, and the gc compiler
// picks which operand is the MULSS/ADDSS destination per lane by
// register allocation, so the Go loop itself has no fixed payload to
// match. Neither loop may write the panel.
func TestTileMatchesGo(t *testing.T) {
	if !hasAVX() {
		t.Skip("no AVX: tileAVX cannot run here")
	}
	rng := rand.New(rand.NewSource(1))
	panel := make([]float32, tilePanel)
	for rows := int64(1); rows <= maxTileRows; rows++ {
		for cols := int64(1); cols <= maxTileCols(rows); cols++ {
			for iter := 0; iter < 60; iter++ {
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
				want := randTile(rng, panel, rows, cols, value)
				got := want
				execTile(&want)
				tileAVX(&got)
				for i := int64(0); i < rows; i++ {
					for c := int64(0); c < cols; c++ {
						k := slot(i, c, cols)
						for l := range got.acc[k] {
							gv, wv := got.acc[k][l], want.acc[k][l]
							if gv != gv && wv != wv {
								continue
							}
							if math.Float32bits(gv) != math.Float32bits(wv) {
								t.Fatalf("%d×%d iter %d (n %d, sa %d, sb %d, off %v): row %d col %d lane %d: avx %#08x (%g), go %#08x (%g)",
									rows, cols, iter, got.n, got.sa, got.sb, got.off[:rows], i, c, l,
									math.Float32bits(gv), gv, math.Float32bits(wv), wv)
							}
						}
					}
				}
				for i := range panel {
					if math.Float32bits(panel[i]) != math.Float32bits(before[i]) {
						t.Fatalf("%d×%d iter %d: panel[%d] written", rows, cols, iter, i)
					}
				}
			}
		}
	}
}
