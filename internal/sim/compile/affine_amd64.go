package compile

// execAffineSSE is execAffine with each accumulator in one XMM register:
// per step one MOVUPS of the shared multiplicand, a MOVSS+SHUFPS
// broadcast per by-element scalar, and one MULPS+ADDPS per accumulator,
// with separate loops for one, two and four accumulators
// (affine_amd64.s). Each lane rounds its product and its sum exactly as
// the scalar loop's MULSS and ADDSS do; see docs/INTERNALS.md "The SSE
// strided loop" for the bit-identity argument and the NaN-payload
// caveat.
//
//go:noescape
func execAffineSSE(grp *affineGroup)

func init() { runAffine = execAffineSSE }
