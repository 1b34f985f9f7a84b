package compile

import "unsafe"

// execChainsSSE is execChains with each accumulator in one XMM register:
// per step one MOVUPS of the shared multiplicand, a MOVSS+SHUFPS
// broadcast per by-element scalar, and one MULPS+ADDPS per accumulator
// (chains_amd64.s). Each lane rounds its product and its sum exactly as
// the scalar loop's MULSS and ADDSS do; see docs/INTERNALS.md "Block
// scheduling" for the bit-identity argument and the NaN-payload caveat.
//
//go:noescape
func execChainsSSE(vp unsafe.Pointer, chains []chain, steps []step)

func init() { runChains = execChainsSSE }
