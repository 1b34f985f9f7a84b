#include "textflag.h"
#include "go_asm.h"

// The register-tile loops: tileAVX on YMM registers for AVX hosts, and
// tileAVX512, which runs the wide chunks on ZMM registers, for AVX-512
// hosts (tile_amd64.go picks one at init). Each runs one chunk of a
// tile program (exec.go, type tile) as the paper's whole micro-kernel:
// set the accumulators up from C or as zeros, run every step, store
// them to C. C is the only thing either writes; neither reads or writes
// the vector file. Both compute every multiply-add as a VMULPS and a
// VADDPS, never an FMA, so each lane rounds as execTile's MULSS and
// ADDSS do.

// func tileAVX(e *Env, t *tile)
//
// Runs one chunk with each of its rows × cols accumulators in a YMM
// register: it sets them up from C when t.init is tileC, else as zeros,
// runs all n steps and stores them to C when t.store is set. Row i's
// register j holds columns 2j and 2j+1; an odd last column sits in the
// lower half, computed as XMM.
//
// Registers in the k-loop: AX the scalars (a, moving sa a step),
// R8..R13 the row offsets, SI the multiplicands (b, moving sb a step),
// CX the steps left; Y0..Y11 the accumulators, Y12 and Y13 the step's
// multiplicands (a fifth vector is read as a memory operand), Y14 the
// row's broadcast scalar and Y15 the product. Every multiply-add is a
// VMULPS and a VADDPS, never an FMA, so each lane rounds as MULSS and
// ADDSS do. Around the loop, DI is t, DX is e, AX the C panel and CX
// the rows left.

// Bc loads a step's c multiplicand vectors.
#define B1 VMOVUPS (SI), X12
#define B2 VMOVUPS (SI), Y12
#define B3 B2; VMOVUPS 32(SI), X13
#define B4 B2; VMOVUPS 32(SI), Y13
#define B5 B4

// Rc runs one row of a step over c vectors: broadcast the row's scalar
// at AX+off, then multiply each multiplicand by it and add the product
// to the row's accumulator.
#define BCAST(off) VBROADCASTSS (AX)(off*1), Y14
#define MADDY(m, acc) VMULPS m, Y14, Y15; VADDPS Y15, acc, acc
#define MADDX(m, acc) VMULPS m, X14, X15; VADDPS X15, acc, acc
#define R1(off, x0) BCAST(off); MADDX(X12, x0)
#define R2(off, y0) BCAST(off); MADDY(Y12, y0)
#define R3(off, y0, x1) R2(off, y0); MADDX(X13, x1)
#define R4(off, y0, y1) R2(off, y0); MADDY(Y13, y1)
#define R5(off, y0, y1, x2) R4(off, y0, y1); MADDX(64(SI), x2)

// STEP moves to the next step and loops back to l while steps are
// left; NEXT then goes to done.
#define STEP(l) ADDQ BX, AX; ADDQ DX, SI; DECQ CX; JNE l
#define NEXT(l) STEP(l); JMP done

// STEPS loads the k-loop's registers from the tile t in DI and the
// Env e in DX, and goes to l when there are no steps.
#define STEPS(l) \
	MOVQ tile_n(DI), CX; \
	TESTQ CX, CX; \
	JEQ l; \
	MOVQ tile_abank(DI), AX; \
	MOVQ Env_base(DX)(AX*8), AX; \
	ADDQ tile_a(DI), AX; \
	MOVQ tile_sa(DI), BX; \
	MOVQ tile_bbank(DI), SI; \
	MOVQ Env_base(DX)(SI*8), SI; \
	ADDQ tile_b(DI), SI; \
	MOVQ tile_sb(DI), DX; \
	MOVQ (tile_off+0)(DI), R8; \
	MOVQ (tile_off+8)(DI), R9; \
	MOVQ (tile_off+16)(DI), R10; \
	MOVQ (tile_off+24)(DI), R11; \
	MOVQ (tile_off+32)(DI), R12; \
	MOVQ (tile_off+40)(DI), R13

// ON jumps to l when the tile's field equals v.
#define ON(field, v, l) CMPQ field(DI), $v; JEQ l

// LCc and SCc load and store row i's c accumulator vectors at C + c[i];
// ROW goes to l when no rows are left.
#define CROW(i) MOVQ (tile_c+8*i)(DI), R8
#define LC1(i, x0) CROW(i); VMOVUPS (AX)(R8*1), x0
#define LC2(i, y0) CROW(i); VMOVUPS (AX)(R8*1), y0
#define LC3(i, y0, x1) LC2(i, y0); VMOVUPS 32(AX)(R8*1), x1
#define LC4(i, y0, y1) LC2(i, y0); VMOVUPS 32(AX)(R8*1), y1
#define LC5(i, y0, y1, x2) LC4(i, y0, y1); VMOVUPS 64(AX)(R8*1), x2
#define SC1(i, x0) CROW(i); VMOVUPS x0, (AX)(R8*1)
#define SC2(i, y0) CROW(i); VMOVUPS y0, (AX)(R8*1)
#define SC3(i, y0, x1) SC2(i, y0); VMOVUPS x1, 32(AX)(R8*1)
#define SC4(i, y0, y1) SC2(i, y0); VMOVUPS y1, 32(AX)(R8*1)
#define SC5(i, y0, y1, x2) SC4(i, y0, y1); VMOVUPS x2, 64(AX)(R8*1)
#define ROW(l) DECQ CX; JEQ l

TEXT ·tileAVX(SB), NOSPLIT, $0-16
	MOVQ e+0(FP), DX
	MOVQ t+8(FP), DI
	ON(tile_init, const_tileC, initc)
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	JMP setup

initc:
	MOVQ (Env_base+16)(DX), AX
	MOVQ tile_rows(DI), CX
	ON(tile_cols, 4, lc4)
	ON(tile_cols, 5, lc5)
	ON(tile_cols, 3, lc3)
	ON(tile_cols, 2, lc2)
	JMP lc1

lc4:
	LC4(0, Y0, Y1); ROW(setup)
	LC4(1, Y2, Y3); ROW(setup)
	LC4(2, Y4, Y5); ROW(setup)
	LC4(3, Y6, Y7); ROW(setup)
	LC4(4, Y8, Y9); ROW(setup)
	LC4(5, Y10, Y11)
	JMP setup

lc5:
	LC5(0, Y0, Y1, X2); ROW(setup)
	LC5(1, Y3, Y4, X5); ROW(setup)
	LC5(2, Y6, Y7, X8); ROW(setup)
	LC5(3, Y9, Y10, X11)
	JMP setup

lc3:
	LC3(0, Y0, X1); ROW(setup)
	LC3(1, Y2, X3); ROW(setup)
	LC3(2, Y4, X5); ROW(setup)
	LC3(3, Y6, X7); ROW(setup)
	LC3(4, Y8, X9); ROW(setup)
	LC3(5, Y10, X11)
	JMP setup

lc2:
	LC2(0, Y0); ROW(setup)
	LC2(1, Y1); ROW(setup)
	LC2(2, Y2); ROW(setup)
	LC2(3, Y3); ROW(setup)
	LC2(4, Y4); ROW(setup)
	LC2(5, Y5)
	JMP setup

lc1:
	LC1(0, X0); ROW(setup)
	LC1(1, X1); ROW(setup)
	LC1(2, X2); ROW(setup)
	LC1(3, X3); ROW(setup)
	LC1(4, X4); ROW(setup)
	LC1(5, X5)

setup:
	STEPS(done)

	// Dispatch on the shape, the hottest first: 5×4 and 4×5.
	ON(tile_cols, 4, c4)
	ON(tile_cols, 5, c5)
	ON(tile_cols, 3, c3)
	ON(tile_cols, 2, c2)
	ON(tile_cols, 1, c1)
	JMP done

c4:
	ON(tile_rows, 5, t5x4)
	ON(tile_rows, 4, t4x4)
	ON(tile_rows, 6, t6x4)
	ON(tile_rows, 3, t3x4)
	ON(tile_rows, 2, t2x4)
	JMP t1x4

c5:
	ON(tile_rows, 4, t4x5)
	ON(tile_rows, 3, t3x5)
	ON(tile_rows, 2, t2x5)
	JMP t1x5

c3:
	ON(tile_rows, 6, t6x3)
	ON(tile_rows, 5, t5x3)
	ON(tile_rows, 4, t4x3)
	ON(tile_rows, 3, t3x3)
	ON(tile_rows, 2, t2x3)
	JMP t1x3

c2:
	ON(tile_rows, 6, t6x2)
	ON(tile_rows, 5, t5x2)
	ON(tile_rows, 4, t4x2)
	ON(tile_rows, 3, t3x2)
	ON(tile_rows, 2, t2x2)
	JMP t1x2

c1:
	ON(tile_rows, 6, t6x1)
	ON(tile_rows, 5, t5x1)
	ON(tile_rows, 4, t4x1)
	ON(tile_rows, 3, t3x1)
	ON(tile_rows, 2, t2x1)
	JMP t1x1

t1x4:
	B4
	R4(R8, Y0, Y1)
	NEXT(t1x4)

t2x4:
	B4
	R4(R8, Y0, Y1)
	R4(R9, Y2, Y3)
	NEXT(t2x4)

t3x4:
	B4
	R4(R8, Y0, Y1)
	R4(R9, Y2, Y3)
	R4(R10, Y4, Y5)
	NEXT(t3x4)

t4x4:
	B4
	R4(R8, Y0, Y1)
	R4(R9, Y2, Y3)
	R4(R10, Y4, Y5)
	R4(R11, Y6, Y7)
	NEXT(t4x4)

t5x4:
	B4
	R4(R8, Y0, Y1)
	R4(R9, Y2, Y3)
	R4(R10, Y4, Y5)
	R4(R11, Y6, Y7)
	R4(R12, Y8, Y9)
	NEXT(t5x4)

t6x4:
	B4
	R4(R8, Y0, Y1)
	R4(R9, Y2, Y3)
	R4(R10, Y4, Y5)
	R4(R11, Y6, Y7)
	R4(R12, Y8, Y9)
	R4(R13, Y10, Y11)
	NEXT(t6x4)

t1x5:
	B5
	R5(R8, Y0, Y1, X2)
	NEXT(t1x5)

t2x5:
	B5
	R5(R8, Y0, Y1, X2)
	R5(R9, Y3, Y4, X5)
	NEXT(t2x5)

t3x5:
	B5
	R5(R8, Y0, Y1, X2)
	R5(R9, Y3, Y4, X5)
	R5(R10, Y6, Y7, X8)
	NEXT(t3x5)

t4x5:
	B5
	R5(R8, Y0, Y1, X2)
	R5(R9, Y3, Y4, X5)
	R5(R10, Y6, Y7, X8)
	R5(R11, Y9, Y10, X11)
	NEXT(t4x5)

t1x3:
	B3
	R3(R8, Y0, X1)
	NEXT(t1x3)

t2x3:
	B3
	R3(R8, Y0, X1)
	R3(R9, Y2, X3)
	NEXT(t2x3)

t3x3:
	B3
	R3(R8, Y0, X1)
	R3(R9, Y2, X3)
	R3(R10, Y4, X5)
	NEXT(t3x3)

t4x3:
	B3
	R3(R8, Y0, X1)
	R3(R9, Y2, X3)
	R3(R10, Y4, X5)
	R3(R11, Y6, X7)
	NEXT(t4x3)

t5x3:
	B3
	R3(R8, Y0, X1)
	R3(R9, Y2, X3)
	R3(R10, Y4, X5)
	R3(R11, Y6, X7)
	R3(R12, Y8, X9)
	NEXT(t5x3)

t6x3:
	B3
	R3(R8, Y0, X1)
	R3(R9, Y2, X3)
	R3(R10, Y4, X5)
	R3(R11, Y6, X7)
	R3(R12, Y8, X9)
	R3(R13, Y10, X11)
	NEXT(t6x3)

t1x2:
	B2
	R2(R8, Y0)
	NEXT(t1x2)

t2x2:
	B2
	R2(R8, Y0)
	R2(R9, Y1)
	NEXT(t2x2)

t3x2:
	B2
	R2(R8, Y0)
	R2(R9, Y1)
	R2(R10, Y2)
	NEXT(t3x2)

t4x2:
	B2
	R2(R8, Y0)
	R2(R9, Y1)
	R2(R10, Y2)
	R2(R11, Y3)
	NEXT(t4x2)

t5x2:
	B2
	R2(R8, Y0)
	R2(R9, Y1)
	R2(R10, Y2)
	R2(R11, Y3)
	R2(R12, Y4)
	NEXT(t5x2)

t6x2:
	B2
	R2(R8, Y0)
	R2(R9, Y1)
	R2(R10, Y2)
	R2(R11, Y3)
	R2(R12, Y4)
	R2(R13, Y5)
	NEXT(t6x2)

t1x1:
	B1
	R1(R8, X0)
	NEXT(t1x1)

t2x1:
	B1
	R1(R8, X0)
	R1(R9, X1)
	NEXT(t2x1)

t3x1:
	B1
	R1(R8, X0)
	R1(R9, X1)
	R1(R10, X2)
	NEXT(t3x1)

t4x1:
	B1
	R1(R8, X0)
	R1(R9, X1)
	R1(R10, X2)
	R1(R11, X3)
	NEXT(t4x1)

t5x1:
	B1
	R1(R8, X0)
	R1(R9, X1)
	R1(R10, X2)
	R1(R11, X3)
	R1(R12, X4)
	NEXT(t5x1)

t6x1:
	B1
	R1(R8, X0)
	R1(R9, X1)
	R1(R10, X2)
	R1(R11, X3)
	R1(R12, X4)
	R1(R13, X5)
	NEXT(t6x1)

done:
	ON(tile_store, 0, end)
	MOVQ e+0(FP), DX
	MOVQ (Env_base+16)(DX), AX
	MOVQ tile_rows(DI), CX
	ON(tile_cols, 4, sc4)
	ON(tile_cols, 5, sc5)
	ON(tile_cols, 3, sc3)
	ON(tile_cols, 2, sc2)
	JMP sc1

sc4:
	SC4(0, Y0, Y1); ROW(end)
	SC4(1, Y2, Y3); ROW(end)
	SC4(2, Y4, Y5); ROW(end)
	SC4(3, Y6, Y7); ROW(end)
	SC4(4, Y8, Y9); ROW(end)
	SC4(5, Y10, Y11)
	JMP end

sc5:
	SC5(0, Y0, Y1, X2); ROW(end)
	SC5(1, Y3, Y4, X5); ROW(end)
	SC5(2, Y6, Y7, X8); ROW(end)
	SC5(3, Y9, Y10, X11)
	JMP end

sc3:
	SC3(0, Y0, X1); ROW(end)
	SC3(1, Y2, X3); ROW(end)
	SC3(2, Y4, X5); ROW(end)
	SC3(3, Y6, X7); ROW(end)
	SC3(4, Y8, X9); ROW(end)
	SC3(5, Y10, X11)
	JMP end

sc2:
	SC2(0, Y0); ROW(end)
	SC2(1, Y1); ROW(end)
	SC2(2, Y2); ROW(end)
	SC2(3, Y3); ROW(end)
	SC2(4, Y4); ROW(end)
	SC2(5, Y5)
	JMP end

sc1:
	SC1(0, X0); ROW(end)
	SC1(1, X1); ROW(end)
	SC1(2, X2); ROW(end)
	SC1(3, X3); ROW(end)
	SC1(4, X4); ROW(end)
	SC1(5, X5)

end:
	VZEROUPPER
	RET

// func cpuid1() uint32
TEXT ·cpuid1(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func cpuid7() uint32
TEXT ·cpuid7(SB), NOSPLIT, $0-4
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JCS noleaf7
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL BX, ret+0(FP)
	RET

noleaf7:
	MOVL $0, ret+0(FP)
	RET

// func tileAVX512(e *Env, t *tile)
//
// Runs a chunk of three, four or five multiplicand vectors as tileAVX
// does, set-up and store included, but with each row's 12 or 16
// columns in one ZMM register and a fifth vector's 4 in an XMM register
// beside it: one VMULPS and one VADDPS per row and step where tileAVX
// issues two, or two where it issues three. A chunk of one or two
// vectors, which fits one YMM register a row, goes to tileAVX.
//
// Registers in the k-loop: as in tileAVX, AX the scalars, R8..R13 the
// row offsets, SI the multiplicands, BX and DX their steps and CX the
// steps left. Three or four vectors: Z0..Z5 hold rows 0..5 and Z12 the
// step's multiplicands, every load and store of them under the lane
// mask K1 (12 or 16 lanes). Five: row i sits in Z(2i) and X(2i+1), and
// Z12 and X13 hold the multiplicands. Z14 is the broadcast scalar and
// Z15 the product. A three-vector row's lanes past 12 load as zeros
// and are never stored to C, and no lane reads another, so they change
// nothing.

// ZONE runs one row of a step: broadcast the row's scalar at AX+off,
// multiply the multiplicands by it and add the product to z.
#define ZONE(off, z) VBROADCASTSS (AX)(off*1), Z14; VMULPS Z12, Z14, Z15; VADDPS Z15, z, z
#define ZFIVE(off, z, x) ZONE(off, z); VMULPS X13, X14, X15; VADDPS X15, x, x
// ZBM loads a step's multiplicands under the lane mask K1, ZB5 a
// five-vector step's.
#define ZBM VMOVUPS.Z (SI), K1, Z12
#define ZB5 VMOVUPS (SI), Z12; VMOVUPS 64(SI), X13

// ZLC and ZSC load and store row i of a masked chunk at C + c[i]; the
// five-vector forms add the XMM register at 64 bytes.
#define ZLC(i, z) CROW(i); VMOVUPS.Z (AX)(R8*1), K1, z
#define ZSC(i, z) CROW(i); VMOVUPS z, K1, (AX)(R8*1)
#define ZLC5(i, z, x) CROW(i); VMOVUPS (AX)(R8*1), z; VMOVUPS 64(AX)(R8*1), x
#define ZSC5(i, z, x) CROW(i); VMOVUPS z, (AX)(R8*1); VMOVUPS x, 64(AX)(R8*1)

TEXT ·tileAVX512(SB), NOSPLIT, $0-16
	MOVQ e+0(FP), DX
	MOVQ t+8(FP), DI
	MOVQ tile_cols(DI), CX
	CMPQ CX, $5
	JEQ five
	MOVL $0xffff, AX
	CMPQ CX, $4
	JEQ masked
	MOVL $0x0fff, AX
	CMPQ CX, $3
	JEQ masked

ymm:
	JMP ·tileAVX(SB)

masked:
	KMOVW AX, K1
	ON(tile_init, const_tileC, mc)
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	VXORPS X4, X4, X4
	VXORPS X5, X5, X5
	JMP msetup

mc:
	MOVQ (Env_base+16)(DX), AX
	MOVQ tile_rows(DI), CX
	ZLC(0, Z0); ROW(msetup)
	ZLC(1, Z1); ROW(msetup)
	ZLC(2, Z2); ROW(msetup)
	ZLC(3, Z3); ROW(msetup)
	ZLC(4, Z4); ROW(msetup)
	ZLC(5, Z5)

msetup:
	STEPS(mdone)
	ON(tile_rows, 5, m5)
	ON(tile_rows, 4, m4)
	ON(tile_rows, 6, m6)
	ON(tile_rows, 3, m3)
	ON(tile_rows, 2, m2)

m1:
	ZBM
	ZONE(R8, Z0)
	STEP(m1)
	JMP mdone

m2:
	ZBM
	ZONE(R8, Z0)
	ZONE(R9, Z1)
	STEP(m2)
	JMP mdone

m3:
	ZBM
	ZONE(R8, Z0)
	ZONE(R9, Z1)
	ZONE(R10, Z2)
	STEP(m3)
	JMP mdone

m4:
	ZBM
	ZONE(R8, Z0)
	ZONE(R9, Z1)
	ZONE(R10, Z2)
	ZONE(R11, Z3)
	STEP(m4)
	JMP mdone

m5:
	ZBM
	ZONE(R8, Z0)
	ZONE(R9, Z1)
	ZONE(R10, Z2)
	ZONE(R11, Z3)
	ZONE(R12, Z4)
	STEP(m5)
	JMP mdone

m6:
	ZBM
	ZONE(R8, Z0)
	ZONE(R9, Z1)
	ZONE(R10, Z2)
	ZONE(R11, Z3)
	ZONE(R12, Z4)
	ZONE(R13, Z5)
	STEP(m6)

mdone:
	ON(tile_store, 0, zend)
	MOVQ e+0(FP), DX
	MOVQ (Env_base+16)(DX), AX
	MOVQ tile_rows(DI), CX
	ZSC(0, Z0); ROW(zend)
	ZSC(1, Z1); ROW(zend)
	ZSC(2, Z2); ROW(zend)
	ZSC(3, Z3); ROW(zend)
	ZSC(4, Z4); ROW(zend)
	ZSC(5, Z5)
	JMP zend

five:
	ON(tile_init, const_tileC, fc)
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	VXORPS X4, X4, X4
	VXORPS X5, X5, X5
	VXORPS X6, X6, X6
	VXORPS X7, X7, X7
	JMP fsetup

fc:
	MOVQ (Env_base+16)(DX), AX
	MOVQ tile_rows(DI), CX
	ZLC5(0, Z0, X1); ROW(fsetup)
	ZLC5(1, Z2, X3); ROW(fsetup)
	ZLC5(2, Z4, X5); ROW(fsetup)
	ZLC5(3, Z6, X7)

fsetup:
	STEPS(fdone)
	ON(tile_rows, 4, f4)
	ON(tile_rows, 3, f3)
	ON(tile_rows, 2, f2)

f1:
	ZB5
	ZFIVE(R8, Z0, X1)
	STEP(f1)
	JMP fdone

f2:
	ZB5
	ZFIVE(R8, Z0, X1)
	ZFIVE(R9, Z2, X3)
	STEP(f2)
	JMP fdone

f3:
	ZB5
	ZFIVE(R8, Z0, X1)
	ZFIVE(R9, Z2, X3)
	ZFIVE(R10, Z4, X5)
	STEP(f3)
	JMP fdone

f4:
	ZB5
	ZFIVE(R8, Z0, X1)
	ZFIVE(R9, Z2, X3)
	ZFIVE(R10, Z4, X5)
	ZFIVE(R11, Z6, X7)
	STEP(f4)

fdone:
	ON(tile_store, 0, zend)
	MOVQ e+0(FP), DX
	MOVQ (Env_base+16)(DX), AX
	MOVQ tile_rows(DI), CX
	ZSC5(0, Z0, X1); ROW(zend)
	ZSC5(1, Z2, X3); ROW(zend)
	ZSC5(2, Z4, X5); ROW(zend)
	ZSC5(3, Z6, X7)

zend:
	VZEROUPPER
	RET
