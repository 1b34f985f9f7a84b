package autogemm

import (
	"context"
	"fmt"

	"autogemm/internal/core"
	"autogemm/internal/sched"
)

// This file is the engine's request path: the GEMM request every
// execution entry point takes, its two internal forms — run, which
// blocks and executes the job on the calling goroutine, and submit,
// which enqueues it — and the serving surface on top of submit: batch
// submission (many GEMMs, one barrier) and asynchronous submission (a
// future per GEMM). Submitted jobs run on the engine's persistent
// worker pool — no per-call goroutines — with inter-job parallelism:
// workers that exhaust one GEMM's tasks move to the next submitted
// GEMM, so a batch of small shapes never strands workers behind one
// slow multiplication. See docs/INTERNALS.md, "Runtime & scheduling".

// GEMM describes one C += A·B request: row-major float32 matrices A
// (M×K), B (K×N) and C (M×N), with optional per-problem algorithm
// parameters (nil Opts uses the engine's defaults) and scheduling
// treatment (a zero QoS runs under the engine's default class). Shapes
// and classes may differ freely across a batch; plans are served from
// the engine's plan cache per (shape, options) request. C must not
// share memory with A or B: the request fails before any work with an
// error matching ErrOverlap. A and B may overlap each other.
type GEMM struct {
	C, A, B []float32
	M, N, K int
	Opts    *Options
	QoS     QoS
}

// submit resolves g's plan (a plan-cache hit after the first call on a
// shape) and enqueues g as one scheduler job that every pool worker may
// claim. The asynchronous and batch forms go through it.
func (e *Engine) submit(ctx context.Context, g GEMM) (*core.RunFuture, error) {
	p, err := e.planIn(g.Opts, g.M, g.N, g.K, g.QoS.Class)
	if err != nil {
		return nil, err
	}
	rf, err := p.Submit(ctx, g.C, g.A, g.B, 0, e.schedQoS(g.QoS))
	return rf, wrapExec(err)
}

// run is the blocking request path: it resolves g's plan and executes g
// as one scheduler job on the calling goroutine.
func (e *Engine) run(ctx context.Context, g GEMM) error {
	p, err := e.planIn(g.Opts, g.M, g.N, g.K, g.QoS.Class)
	if err != nil {
		return err
	}
	return e.runPlan(ctx, p, g)
}

// runPlan executes g's operands as one job of the resolved plan p,
// admitted under g.QoS like any submission, with the calling goroutine
// its only participant: it claims the C-tile groups in order and no
// pool worker is woken (core.Plan.RunQoS). g's shape and options are
// p's. On p's first blocking execution the kernels of its blocks are
// compiled first, by a helper job the caller joins and the whole pool
// may help with (core.Plan.Prebuild), under the same ctx and QoS.
func (e *Engine) runPlan(ctx context.Context, p *core.Plan, g GEMM) error {
	q := e.schedQoS(g.QoS)
	if err := p.Prebuild(ctx, q); err != nil {
		return wrapExec(err)
	}
	return wrapExec(p.RunQoS(ctx, g.C, g.A, g.B, 1, q))
}

// schedQoS is q for the scheduler, with the engine's default class
// filling in an empty class.
func (e *Engine) schedQoS(q QoS) sched.QoS {
	if q.Class == "" {
		q.Class = e.defaultClass
	}
	return q.toSched()
}

// Future is a pending asynchronous GEMM. Wait blocks until the
// submitted job has completed and returns its first error; it is
// idempotent and safe to call from multiple goroutines.
type Future struct{ f *core.RunFuture }

// Wait blocks for completion and returns the job's first error.
func (f *Future) Wait() error { return f.f.Wait() }

// Done returns a channel closed when the job completes (every task ran
// or was skipped). After Done, Wait returns without blocking — the
// select-friendly completion signal a server multiplexing many futures
// needs.
func (f *Future) Done() <-chan struct{} { return f.f.Done() }

// OnDone invokes fn with the job's completion error exactly once, on a
// goroutine owned by the scheduler runtime — never inside a pool
// worker, so fn may submit follow-up work or block briefly. It is how
// a streaming server fans many futures into one channel without
// parking a goroutine per Wait. The ordering contract matches the
// scheduler's: fn is asynchronous with respect to Wait and Done — see
// docs/INTERNALS.md, "Runtime & scheduling".
func (f *Future) OnDone(fn func(error)) { f.f.OnDone(fn) }

// Submit enqueues one GEMM on the engine's scheduler and returns a
// future for its completion; every pool worker may claim the job's
// tasks. Planning (or a plan-cache hit) happens synchronously, so
// shape and option errors surface here; execution errors surface from
// Wait. The operand slices must stay untouched until Wait returns.
// Submit blocks while the scheduler is at its queue depth (see
// WithQueueDepth) and fails with ErrClosed after Close; a g.QoS class
// at its depth bound, or an already expired deadline, fails it with
// ErrAdmission.
//
// ctx and the QoS deadline compose, whichever fires first cancelling
// the job: cancellation while blocked on backpressure aborts the
// submission with ctx.Err(); cancellation after acceptance skips the
// job's remaining tasks and its future returns ctx.Err().
//
// Results are bit-identical to a serial Multiply of the same problem:
// the k chunks of each C tile accumulate in ascending order inside one
// task regardless of how many workers claim the job.
func (e *Engine) Submit(ctx context.Context, g GEMM) (*Future, error) {
	rf, err := e.submit(ctx, g)
	if err != nil {
		return nil, err
	}
	return &Future{f: rf}, nil
}

// MultiplyBatch is MultiplyBatchContext without a context.
func (e *Engine) MultiplyBatch(batch []GEMM) error {
	return e.MultiplyBatchContext(context.Background(), batch)
}

// MultiplyBatchContext computes C += A·B for every problem of the batch
// and returns after all of them have completed — one barrier, not one
// per problem. All jobs are in flight together (subject to the queue
// depth), claimed by the engine's workers with inter-job parallelism;
// each element runs under its own QoS.
//
// Batch elements are independent, and a failing element does not take
// the rest of the batch with it: any per-element submit error — an
// admission refusal (ErrAdmission), bad geometry, a plan failure —
// marks that element failed and the batch keeps submitting, and every
// accepted job is waited for, so the operand slices are quiescent on
// return and each healthy element has executed. The first error,
// tagged with its element index, is returned.
//
// When ctx fires, in-flight jobs of the batch are cancelled (their
// remaining tasks skipped) and not-yet-submitted elements are
// short-circuited without resolving a plan or enqueueing a job, with
// the element's error reporting ctx.Err().
func (e *Engine) MultiplyBatchContext(ctx context.Context, batch []GEMM) error {
	if ctx == nil {
		ctx = context.Background()
	}
	futs := make([]*core.RunFuture, len(batch))
	var firstErr error
	fail := func(i int, err error) {
		if firstErr == nil {
			firstErr = fmt.Errorf("autogemm: batch element %d: %w", i, err)
		}
	}
	for i := range batch {
		if err := ctx.Err(); err != nil {
			// Cancelled mid-batch: submitting the tail would plan and
			// enqueue jobs that only fail with the same error.
			fail(i, err)
			break
		}
		f, err := e.submit(ctx, batch[i])
		if err != nil {
			fail(i, err)
			continue // remaining elements are independent: keep submitting
		}
		futs[i] = f
	}
	for i, f := range futs {
		if f == nil {
			continue
		}
		if err := f.Wait(); err != nil {
			fail(i, err)
		}
	}
	return firstErr
}
