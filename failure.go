package autogemm

import (
	"context"
	"errors"
	"fmt"
	"time"

	"autogemm/internal/sched"
)

// This file is the public face of the runtime's hardened failure
// semantics: exported sentinel errors, their translation at the API
// boundary, context-bounded waiting and the bounded-drain shutdown.
// Cancellation rides on the ctx every request path takes
// (MultiplyContext, Submit, MultiplyBatchContext). The guarantees —
// panic containment, prompt cancellation, drain deadlines — live in
// internal/sched; see docs/INTERNALS.md, "Failure semantics".

// ErrClosed matches (via errors.Is) every execution error returned
// after Engine.Close: every execution entry point (Multiply, SGEMM,
// MultiplyPlanned, Submit, the batch calls) fails with an error
// wrapping it. It also matches the underlying sched.ErrClosed, so
// pre-existing checks keep working.
var ErrClosed = fmt.Errorf("autogemm: engine closed: %w", sched.ErrClosed)

// ErrPanicked matches (via errors.Is) the error a Future (or a
// synchronous Multiply) returns when a task of its job panicked. The
// panic is contained by the scheduler: the worker survives, the engine
// keeps serving, and the concrete error (a *sched.PanicError) carries
// the panic value and stack.
var ErrPanicked = sched.ErrPanicked

// ErrDrainTimeout matches (via errors.Is) the error CloseWithTimeout
// returns when the drain deadline expires with jobs still running —
// the signal a serving front door's graceful shutdown turns into "some
// requests were abandoned" instead of hanging its process exit.
var ErrDrainTimeout = sched.ErrDrainTimeout

// ErrBadPlan matches (via errors.Is) every error LoadPlan returns for
// a plan that cannot be trusted: JSON that fails to decode, a format
// version this build does not read, or a decoded plan that fails the
// static audit (fingerprint mismatch, tiles that do not partition the
// output, placements outside the proven kernel bounds, kernel keys the
// plan's tilings do not reach). It also matches the underlying
// audit.ErrAuditFailed. Registry entries failing these checks never
// reach execution — the engine falls back to cold planning.
var ErrBadPlan = errors.New("autogemm: bad plan")

// wrapExec translates scheduler sentinel errors crossing the public API
// boundary into their exported, prefixed forms.
func wrapExec(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, sched.ErrClosed) {
		return ErrClosed
	}
	return err
}

// WaitContext is Wait bounded by a context: it returns the job's first
// error once the job completes, or ctx.Err() if the context fires
// first. An early return does not abandon the job — it keeps running
// unless its submission context is cancelled too, and the operand
// slices stay in use until it completes.
func (f *Future) WaitContext(ctx context.Context) error { return f.f.WaitContext(ctx) }

// CloseWithTimeout is Close with a bounded drain: accepted jobs get at
// most d to finish; if the deadline expires the engine reports how many
// jobs are still running via an error matching sched.ErrDrainTimeout
// instead of hanging. Draining continues in the background and a later
// Close waits for it. New submissions are refused either way.
func (e *Engine) CloseWithTimeout(d time.Duration) error {
	return e.sched.CloseWithTimeout(d)
}
