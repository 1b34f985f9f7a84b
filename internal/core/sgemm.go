package core

import "fmt"

// Transpose selects op(X) for the full SGEMM interface
// C = α·op(A)·op(B) + β·C.
type Transpose bool

// Transpose values.
const (
	NoTrans Transpose = false
	Trans   Transpose = true
)

// SGEMMParams carries the BLAS-level parameters beyond the plain
// C += A·B kernel: scaling factors and operand transposition.
type SGEMMParams struct {
	Alpha, Beta float32
	TransA      Transpose
	TransB      Transpose
}

// DefaultSGEMM returns α = β = 1, no transposition (the paper's kernel).
func DefaultSGEMM() SGEMMParams { return SGEMMParams{Alpha: 1, Beta: 1} }

// RunSGEMM computes C = α·op(A)·op(B) + β·C through the plan, handing
// the canonical C += A·B product to run — Plan.Run, or the owning
// engine's request path so the job carries the engine's QoS. The plan's
// (M, N, K) describe the *operated* shapes: op(A) is M×K and op(B) is
// K×N, so A is stored K×M when TransA is set (leading dimension M), and
// B is stored N×K when TransB is set (leading dimension K).
//
// Scaling and transposition are folded into buffer preparation — the
// generated kernels always see the canonical row-major accumulate form,
// the same way BLAS libraries fold them into their packing routines:
//
//   - β scales the C operand up front (β = 0 clears it, honouring the
//     BLAS convention that NaNs in C are not propagated);
//   - α scales a working copy of A;
//   - transposed operands are materialized row-major.
func (p *Plan) RunSGEMM(params SGEMMParams, c, a, b []float32, run func(c, a, b []float32) error) error {
	m, n, k := p.M, p.N, p.K
	if err := checkSGEMMSizes(params, len(a), len(b), len(c), m, n, k); err != nil {
		return err
	}

	// β handling on C.
	switch params.Beta {
	case 1:
		// accumulate as-is
	case 0:
		for i := 0; i < m*n; i++ {
			c[i] = 0
		}
	default:
		for i := 0; i < m*n; i++ {
			c[i] *= params.Beta
		}
	}
	if params.Alpha == 0 {
		return nil // C = β·C only
	}

	// Materialize op(A), folding α.
	ka := a
	if params.TransA == Trans || params.Alpha != 1 {
		ka = make([]float32, m*k)
		if params.TransA == Trans {
			for i := 0; i < m; i++ {
				for l := 0; l < k; l++ {
					ka[i*k+l] = params.Alpha * a[l*m+i]
				}
			}
		} else {
			for i := range ka {
				ka[i] = params.Alpha * a[i]
			}
		}
	}
	kb := b
	if params.TransB == Trans {
		kb = make([]float32, k*n)
		for l := 0; l < k; l++ {
			for j := 0; j < n; j++ {
				kb[l*n+j] = b[j*k+l]
			}
		}
	}
	return run(c, ka, kb)
}

func checkSGEMMSizes(params SGEMMParams, la, lb, lc, m, n, k int) error {
	needA, needB := m*k, k*n
	if la < needA || lb < needB || lc < m*n {
		return fmt.Errorf("core: sgemm buffers (%d,%d,%d) too small for %dx%dx%d",
			la, lb, lc, m, n, k)
	}
	return nil
}
