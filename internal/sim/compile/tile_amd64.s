#include "textflag.h"
#include "go_asm.h"

// func tileAVX(e *Env, t *tile)
//
// Runs one register-tile chunk (exec.go, type tile) as a whole kernel,
// with each of its rows × cols accumulators in a YMM register: it sets
// them up from C, as zeros or from e.acc, runs all n steps, stores them
// to C when t.store is set, and writes every register half back to the
// vector file at e.vp + t.v[slot]. Row i's register j holds columns 2j
// and 2j+1; an odd last column sits in the lower half, computed as XMM.
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

// NEXT moves to the next step and loops back to l while steps are left.
#define NEXT(l) ADDQ BX, AX; ADDQ DX, SI; DECQ CX; JNE l; JMP done

// ON jumps to l when the tile's field equals v.
#define ON(field, v, l) CMPQ field(DI), $v; JEQ l

// LOAD moves accumulator register k from e.acc.
#define LOAD(k, y) VMOVUPS (Env_acc+32*k)(DX), y

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

// WB writes register k's halves, slots 2k and 2k+1, to the vector file.
#define WB(k, x, y) MOVQ (tile_v+16*k)(DI), R8; VMOVUPS x, (BX)(R8*1); MOVQ (tile_v+16*k+8)(DI), R9; VEXTRACTF128 $1, y, (BX)(R9*1)

TEXT ·tileAVX(SB), NOSPLIT, $0-16
	MOVQ e+0(FP), DX
	MOVQ t+8(FP), DI
	MOVQ tile_init(DI), AX
	CMPQ AX, $const_tileC
	JEQ initc
	CMPQ AX, $const_tileZero
	JEQ initz
	LOAD(0, Y0)
	LOAD(1, Y1)
	LOAD(2, Y2)
	LOAD(3, Y3)
	LOAD(4, Y4)
	LOAD(5, Y5)
	LOAD(6, Y6)
	LOAD(7, Y7)
	LOAD(8, Y8)
	LOAD(9, Y9)
	LOAD(10, Y10)
	LOAD(11, Y11)
	JMP setup

initz:
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
	MOVQ tile_n(DI), CX
	TESTQ CX, CX
	JEQ done
	MOVQ tile_abank(DI), AX
	MOVQ Env_base(DX)(AX*8), AX
	ADDQ tile_a(DI), AX
	MOVQ tile_sa(DI), BX
	MOVQ tile_bbank(DI), SI
	MOVQ Env_base(DX)(SI*8), SI
	ADDQ tile_b(DI), SI
	MOVQ tile_sb(DI), DX
	MOVQ (tile_off+0)(DI), R8
	MOVQ (tile_off+8)(DI), R9
	MOVQ (tile_off+16)(DI), R10
	MOVQ (tile_off+24)(DI), R11
	MOVQ (tile_off+32)(DI), R12
	MOVQ (tile_off+40)(DI), R13

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
	MOVQ e+0(FP), DX
	CMPQ tile_store(DI), $0
	JEQ writeback
	MOVQ (Env_base+16)(DX), AX
	MOVQ tile_rows(DI), CX
	ON(tile_cols, 4, sc4)
	ON(tile_cols, 5, sc5)
	ON(tile_cols, 3, sc3)
	ON(tile_cols, 2, sc2)
	JMP sc1

sc4:
	SC4(0, Y0, Y1); ROW(writeback)
	SC4(1, Y2, Y3); ROW(writeback)
	SC4(2, Y4, Y5); ROW(writeback)
	SC4(3, Y6, Y7); ROW(writeback)
	SC4(4, Y8, Y9); ROW(writeback)
	SC4(5, Y10, Y11)
	JMP writeback

sc5:
	SC5(0, Y0, Y1, X2); ROW(writeback)
	SC5(1, Y3, Y4, X5); ROW(writeback)
	SC5(2, Y6, Y7, X8); ROW(writeback)
	SC5(3, Y9, Y10, X11)
	JMP writeback

sc3:
	SC3(0, Y0, X1); ROW(writeback)
	SC3(1, Y2, X3); ROW(writeback)
	SC3(2, Y4, X5); ROW(writeback)
	SC3(3, Y6, X7); ROW(writeback)
	SC3(4, Y8, X9); ROW(writeback)
	SC3(5, Y10, X11)
	JMP writeback

sc2:
	SC2(0, Y0); ROW(writeback)
	SC2(1, Y1); ROW(writeback)
	SC2(2, Y2); ROW(writeback)
	SC2(3, Y3); ROW(writeback)
	SC2(4, Y4); ROW(writeback)
	SC2(5, Y5)
	JMP writeback

sc1:
	SC1(0, X0); ROW(writeback)
	SC1(1, X1); ROW(writeback)
	SC1(2, X2); ROW(writeback)
	SC1(3, X3); ROW(writeback)
	SC1(4, X4); ROW(writeback)
	SC1(5, X5)

writeback:
	MOVQ Env_vp(DX), BX
	WB(0, X0, Y0)
	WB(1, X1, Y1)
	WB(2, X2, Y2)
	WB(3, X3, Y3)
	WB(4, X4, Y4)
	WB(5, X5, Y5)
	WB(6, X6, Y6)
	WB(7, X7, Y7)
	WB(8, X8, Y8)
	WB(9, X9, Y9)
	WB(10, X10, Y10)
	WB(11, X11, Y11)
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
