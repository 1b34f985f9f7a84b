package compile

// tileAVX is execTile with the whole chunk in YMM registers
// (tile_amd64.s): the accumulators go from C, zeros or e.acc into
// registers, stay there for every step, and go from registers to C
// (and to the vector file under an exit layout). Per step it issues one
// VMOVUPS per two multiplicand vectors, one VBROADCASTSS per row and
// one VMULPS+VADDPS per register. Each lane rounds its product and its
// sum exactly as execTile's MULSS and ADDSS do; see docs/INTERNALS.md
// "The AVX register-tile loop" for the bit-identity argument and the
// NaN-payload caveat.
//
//go:noescape
func tileAVX(e *Env, t *tile)

// cpuid1 returns ECX of CPUID leaf 1, and xgetbv0 the low half of XCR0.
func cpuid1() uint32
func xgetbv0() uint32

// hasAVX reports whether the CPU implements AVX and the OS saves the YMM
// state: CPUID.1:ECX.OSXSAVE (bit 27) and AVX (bit 28), then XCR0's SSE
// and AVX state bits (1 and 2). XGETBV is only read once OSXSAVE is
// known to be set.
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	return cpuid1()&(osxsave|avx) == osxsave|avx && xgetbv0()&6 == 6
}

func init() {
	if hasAVX() {
		runTile = tileAVX
	}
}
