#include "textflag.h"
#include "go_asm.h"

// func tileAVX(t *tile)
//
// Runs one register-tile chunk (exec.go, type tile) with each of its
// rows × cols accumulators in a YMM register for all n steps. The
// accumulators are loaded from and stored back to t.acc, two vectors
// to a register: row i's register j holds columns 2j and 2j+1, and an
// odd last column sits in the lower half, computed as XMM.
//
// Registers: AX the scalars (a, moving sa a step), R8..R13 the row
// offsets, SI the multiplicands (b, moving sb a step), CX the steps
// left; Y0..Y11 the accumulators, Y12 and Y13 the step's multiplicands
// (a fifth vector is read as a memory operand), Y14 the row's broadcast
// scalar and Y15 the product. Every multiply-add is a VMULPS and a
// VADDPS, never an FMA, so each lane rounds as MULSS and ADDSS do.

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

// LOAD and STORE move accumulator register k between t.acc and y.
#define LOAD(k, y) VMOVUPS (tile_acc+32*k)(DI), y
#define STORE(k, y) VMOVUPS y, (tile_acc+32*k)(DI)

TEXT ·tileAVX(SB), NOSPLIT, $0-8
	MOVQ t+0(FP), DI
	MOVQ tile_n(DI), CX
	TESTQ CX, CX
	JEQ ret
	MOVQ tile_a(DI), AX
	MOVQ tile_sa(DI), BX
	MOVQ tile_b(DI), SI
	MOVQ tile_sb(DI), DX
	MOVQ (tile_off+0)(DI), R8
	MOVQ (tile_off+8)(DI), R9
	MOVQ (tile_off+16)(DI), R10
	MOVQ (tile_off+24)(DI), R11
	MOVQ (tile_off+32)(DI), R12
	MOVQ (tile_off+40)(DI), R13
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
	STORE(0, Y0)
	STORE(1, Y1)
	STORE(2, Y2)
	STORE(3, Y3)
	STORE(4, Y4)
	STORE(5, Y5)
	STORE(6, Y6)
	STORE(7, Y7)
	STORE(8, Y8)
	STORE(9, Y9)
	STORE(10, Y10)
	STORE(11, Y11)
	VZEROUPPER

ret:
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
