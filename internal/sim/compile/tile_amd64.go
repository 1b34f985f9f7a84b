package compile

// tileAVX is execTile with the whole chunk in YMM registers
// (tile_amd64.s): the accumulators go from C or zeros into registers,
// stay there for every step, and go from registers to C. Per step it
// issues one VMOVUPS per two multiplicand vectors, one VBROADCASTSS per
// row and one VMULPS+VADDPS per register. Each lane rounds its product
// and its sum exactly as execTile's MULSS and ADDSS do; see
// docs/INTERNALS.md "The AVX register-tile loop" for the bit-identity
// argument and the NaN-payload caveat.
//
//go:noescape
func tileAVX(e *Env, t *tile)

// tileAVX512 is tileAVX with a row of three or four multiplicand
// vectors in one ZMM register, and a row of five in a ZMM and an XMM
// register: one VMULPS+VADDPS pair per row and step where tileAVX
// issues two, or two where it issues three. It hands a chunk of one or
// two vectors to tileAVX. Its lanes round as tileAVX's do.
//
//go:noescape
func tileAVX512(e *Env, t *tile)

// cpuid1 returns ECX of CPUID leaf 1, cpuid7 EBX of leaf 7 (zero when
// the CPU has no leaf 7), and xgetbv0 the low half of XCR0.
func cpuid1() uint32
func cpuid7() uint32
func xgetbv0() uint32

// pickTile returns the tile loop for a host whose CPUID leaf 1 reports
// ecx1, leaf 7 ebx7 and XGETBV xcr0. AVX needs CPUID.1:ECX.OSXSAVE (bit
// 27) and AVX (bit 28), and XCR0's SSE and AVX state (bits 1 and 2).
// AVX-512 needs that, CPUID.7:EBX.AVX512F (bit 16), and XCR0's opmask,
// upper-ZMM and high-ZMM state (bits 5, 6 and 7). Anything less runs
// execTile.
func pickTile(ecx1, ebx7, xcr0 uint32) func(*Env, *tile) {
	const osxsave, avx, avx512f = 1 << 27, 1 << 28, 1 << 16
	switch {
	case ecx1&(osxsave|avx) != osxsave|avx || xcr0&0x6 != 0x6:
		return execTile
	case ebx7&avx512f == 0 || xcr0&0xe6 != 0xe6:
		return tileAVX
	}
	return tileAVX512
}

// hostTile is the loop pickTile picks for this host. XGETBV is only
// read once OSXSAVE is known to be set.
func hostTile() func(*Env, *tile) {
	const osxsave = 1 << 27
	ecx1 := cpuid1()
	var xcr0 uint32
	if ecx1&osxsave != 0 {
		xcr0 = xgetbv0()
	}
	return pickTile(ecx1, cpuid7(), xcr0)
}

func init() {
	runTile = hostTile()
}
