#include "textflag.h"

// func execAffineSSE(grp *affineGroup)
//
// affineGroup is {a ptr, sa, n, k int64, d [4]ptr, b [4]ptr, sb [4]int64,
// s [4]ptr} (160 bytes). Step j reads the multiplicand at a + j·sa and
// accumulator i's scalar at b[i] + j·sb[i]. k is 1, 2 or 4; accumulator
// i is loaded from s[i] into X0..X3, stays there for all n steps and is
// stored once, to d[i].
TEXT ·execAffineSSE(SB), NOSPLIT, $0-8
	MOVQ grp+0(FP), DI
	MOVQ 0(DI), AX    // multiplicand
	MOVQ 8(DI), BX    // its stride
	MOVQ 16(DI), CX   // steps
	MOVQ 24(DI), DX   // accumulators
	MOVQ 64(DI), R8   // b[0]
	MOVQ 96(DI), R12  // sb[0]
	MOVQ 128(DI), SI  // s[0]
	MOVUPS (SI), X0
	CMPQ DX, $2
	JEQ pair
	JGT quad
	TESTQ CX, CX
	JEQ singledone

single:
	MOVUPS (AX), X4
	MOVSS (R8), X5
	SHUFPS $0, X5, X5
	MULPS X4, X5
	ADDPS X5, X0
	ADDQ BX, AX
	ADDQ R12, R8
	DECQ CX
	JNE single

singledone:
	MOVQ 32(DI), SI
	MOVUPS X0, (SI)
	RET

pair:
	MOVQ 136(DI), SI  // s[1]
	MOVUPS (SI), X1
	MOVQ 72(DI), R9   // b[1]
	MOVQ 104(DI), R13 // sb[1]
	TESTQ CX, CX
	JEQ pairdone

pairloop:
	MOVUPS (AX), X4
	MOVSS (R8), X5
	SHUFPS $0, X5, X5
	MOVSS (R9), X6
	SHUFPS $0, X6, X6
	MULPS X4, X5
	ADDPS X5, X0
	MULPS X4, X6
	ADDPS X6, X1
	ADDQ BX, AX
	ADDQ R12, R8
	ADDQ R13, R9
	DECQ CX
	JNE pairloop

pairdone:
	MOVQ 32(DI), SI
	MOVUPS X0, (SI)
	MOVQ 40(DI), SI
	MOVUPS X1, (SI)
	RET

quad:
	MOVQ 136(DI), SI  // s[1..3]
	MOVUPS (SI), X1
	MOVQ 144(DI), SI
	MOVUPS (SI), X2
	MOVQ 152(DI), SI
	MOVUPS (SI), X3
	MOVQ 72(DI), R9   // b[1]
	MOVQ 80(DI), R10  // b[2]
	MOVQ 88(DI), R11  // b[3]
	MOVQ 104(DI), R13 // sb[1]
	MOVQ 112(DI), SI  // sb[2]
	MOVQ 120(DI), DX  // sb[3]
	TESTQ CX, CX
	JEQ quaddone

quadloop:
	MOVUPS (AX), X4
	MOVSS (R8), X5
	SHUFPS $0, X5, X5
	MULPS X4, X5
	ADDPS X5, X0
	MOVSS (R9), X6
	SHUFPS $0, X6, X6
	MULPS X4, X6
	ADDPS X6, X1
	MOVSS (R10), X7
	SHUFPS $0, X7, X7
	MULPS X4, X7
	ADDPS X7, X2
	MOVSS (R11), X8
	SHUFPS $0, X8, X8
	MULPS X4, X8
	ADDPS X8, X3
	ADDQ BX, AX
	ADDQ R12, R8
	ADDQ R13, R9
	ADDQ SI, R10
	ADDQ DX, R11
	DECQ CX
	JNE quadloop

quaddone:
	MOVQ 32(DI), R8
	MOVUPS X0, (R8)
	MOVQ 40(DI), R8
	MOVUPS X1, (R8)
	MOVQ 48(DI), R8
	MOVUPS X2, (R8)
	MOVQ 56(DI), R8
	MOVUPS X3, (R8)
	RET
