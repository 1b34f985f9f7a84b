package autogemm

import (
	"context"

	"autogemm/internal/core"
)

// plan resolves public options and returns the cached executor for the
// problem, planning (or registry warm-starting) on first request, with
// any planning helper job under the engine's default class. See
// planResolved in plan.go for the cache and registry mechanics.
func (e *Engine) plan(opts *Options, m, n, k int) (*core.Plan, error) {
	return e.planIn(opts, m, n, k, "")
}

// planIn is plan for a request of QoS class class ("" is the engine's
// default class): a cold miss fans its planning out under that class.
func (e *Engine) planIn(opts *Options, m, n, k int, class string) (*core.Plan, error) {
	co, err := e.resolve(opts)
	if err != nil {
		return nil, err
	}
	return e.planResolved(co, m, n, k, class)
}

// SGEMM computes C = α·op(A)·op(B) + β·C with the full BLAS-3 parameter
// set. m, n, k describe the operated shapes: op(A) is m×k and op(B) is
// k×n; when transA is set, A is stored k×m row-major (and likewise B is
// n×k when transB is set). β = 0 overwrites C without reading it.
// Scaling and transposition fold into operand preparation; the
// canonical product runs like Multiply, on the calling goroutine. A C
// that shares memory with A or B is refused with an error matching
// ErrOverlap before C is written, whatever α and β are.
func (e *Engine) SGEMM(transA, transB bool, m, n, k int,
	alpha float32, a, b []float32, beta float32, c []float32) error {
	p, err := e.plan(nil, m, n, k)
	if err != nil {
		return err
	}
	return p.RunSGEMM(core.SGEMMParams{
		Alpha: alpha, Beta: beta,
		TransA: core.Transpose(transA), TransB: core.Transpose(transB),
	}, c, a, b, func(c, a, b []float32) error {
		return e.runPlan(context.Background(), p, GEMM{C: c, A: a, B: b})
	})
}

// CachedPlans reports how many resolved plans the engine holds.
func (e *Engine) CachedPlans() int {
	return e.plans.Len()
}
