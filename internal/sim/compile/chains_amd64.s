#include "textflag.h"

// func execChainsSSE(vp unsafe.Pointer, chains []chain, steps []step)
//
// chain is {d1, d2, lo, hi int32} (16 bytes), step is {a, b1, b2 int32}
// (12 bytes); every operand is a byte offset from vp. A chain with
// d2 < 0 has one accumulator, otherwise two sharing each step's
// multiplicand. The accumulators stay in X0/X1 from the chain's first
// step to its last and are stored once.
TEXT ·execChainsSSE(SB), NOSPLIT, $0-56
	MOVQ vp+0(FP), DI
	MOVQ chains_base+8(FP), SI
	MOVQ chains_len+16(FP), CX
	MOVQ steps_base+32(FP), R8
	TESTQ CX, CX
	JEQ done

chain:
	MOVLQSX 0(SI), AX     // d1
	MOVLQSX 4(SI), BX     // d2
	MOVLQSX 8(SI), R9     // lo
	MOVLQSX 12(SI), R10   // hi
	SUBQ R9, R10          // steps in the chain
	LEAQ (R9)(R9*2), R11
	LEAQ (R8)(R11*4), R11 // &steps[lo]
	MOVUPS (DI)(AX*1), X0
	TESTQ BX, BX
	JLT single
	MOVUPS (DI)(BX*1), X1
	TESTQ R10, R10
	JLE pairdone

pair:
	MOVLQSX 0(R11), R12
	MOVLQSX 4(R11), R13
	MOVLQSX 8(R11), DX
	MOVUPS (DI)(R12*1), X2
	MOVSS (DI)(R13*1), X3
	SHUFPS $0, X3, X3
	MOVSS (DI)(DX*1), X4
	SHUFPS $0, X4, X4
	MULPS X2, X3
	ADDPS X3, X0
	MULPS X2, X4
	ADDPS X4, X1
	ADDQ $12, R11
	DECQ R10
	JNE pair

pairdone:
	MOVUPS X1, (DI)(BX*1)
	JMP next

single:
	TESTQ R10, R10
	JLE next

singleloop:
	MOVLQSX 0(R11), R12
	MOVLQSX 4(R11), R13
	MOVUPS (DI)(R12*1), X2
	MOVSS (DI)(R13*1), X3
	SHUFPS $0, X3, X3
	MULPS X2, X3
	ADDPS X3, X0
	ADDQ $12, R11
	DECQ R10
	JNE singleloop

next:
	MOVUPS X0, (DI)(AX*1)
	ADDQ $16, SI
	DECQ CX
	JNE chain

done:
	RET
