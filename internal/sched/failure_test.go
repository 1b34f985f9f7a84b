package sched

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// These tests pin the runtime's hardened failure semantics: panic
// containment, per-job cancellation, bounded drain, and fault
// injection. CI runs them under -race with GOMAXPROCS 1 and 2.

// TestPanicContained: a panicking task fails its job with an
// ErrPanicked-matching *PanicError carrying the value and stack, the
// other tasks still run, and the future fires instead of hanging.
func TestPanicContained(t *testing.T) {
	p := New(2, 4)
	defer p.Close()
	var ran int64
	fut, err := p.Submit(8, 1, func(w *Worker, i int) error {
		if i == 2 {
			panic("kaboom")
		}
		atomic.AddInt64(&ran, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	werr := fut.Wait()
	if !errors.Is(werr, ErrPanicked) {
		t.Fatalf("Wait = %v, want ErrPanicked", werr)
	}
	var pe *PanicError
	if !errors.As(werr, &pe) {
		t.Fatalf("Wait error %T does not unwrap to *PanicError", werr)
	}
	if pe.Task != 2 || pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = task %d value %v stack %d bytes", pe.Task, pe.Value, len(pe.Stack))
	}
	if !strings.Contains(pe.Error(), "kaboom") {
		t.Errorf("PanicError message %q does not carry the panic value", pe.Error())
	}
	// With maxWorkers = 1 the claims are sequential: tasks 0 and 1 ran,
	// tasks after the panic were skipped via the failed fast-path.
	if got := atomic.LoadInt64(&ran); got != 2 {
		t.Errorf("%d healthy tasks ran, want 2 (skip after failure)", got)
	}
	if st := p.Stats(); st.TasksPanicked != 1 {
		t.Errorf("TasksPanicked = %d, want 1", st.TasksPanicked)
	}
}

// TestPanicKeepsPoolServing: after a panic on every worker, the pool
// still has full worker strength — a job needing all workers completes
// and its in-flight slot accounting stays balanced.
func TestPanicKeepsPoolServing(t *testing.T) {
	p := New(2, 2)
	defer p.Close()
	// One panicking job per worker slot, so if panics killed workers the
	// pool would be dead afterwards.
	for r := 0; r < 4; r++ {
		fut, err := p.Submit(2, 0, func(w *Worker, i int) error { panic(i) })
		if err != nil {
			t.Fatal(err)
		}
		if err := fut.Wait(); !errors.Is(err, ErrPanicked) {
			t.Fatalf("round %d: Wait = %v, want ErrPanicked", r, err)
		}
	}
	// A barrier job that requires both workers to participate proves
	// both survived: each worker parks on the channel until the other
	// arrives.
	arrived := make(chan int, 2)
	release := make(chan struct{})
	fut, err := p.Submit(2, 2, func(w *Worker, i int) error {
		arrived <- w.ID()
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := map[int]bool{}
	for len(ids) < 2 {
		select {
		case id := <-arrived:
			ids[id] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d worker(s) alive after contained panics", len(ids))
		}
	}
	close(release)
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	// One contained panic per job: the sibling task is skipped once the
	// first panic flips the failed fast-path (claim order permitting,
	// both may panic before the flip, so allow 4..8).
	if st.JobsCompleted != 5 || st.TasksPanicked < 4 || st.TasksPanicked > 8 {
		t.Errorf("stats = %+v, want 5 completed / 4..8 panicked", st)
	}
}

// TestPanicFreesInflightSlot: on a depth-1 pool, a panicked job's slot
// is released — a subsequent Submit neither blocks forever nor errors.
func TestPanicFreesInflightSlot(t *testing.T) {
	p := New(1, 1)
	defer p.Close()
	fut, err := p.Submit(3, 0, func(w *Worker, i int) error { panic("slot") })
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); !errors.Is(err, ErrPanicked) {
		t.Fatalf("Wait = %v, want ErrPanicked", err)
	}
	done := make(chan error, 1)
	go func() {
		f, err := p.Submit(1, 0, func(*Worker, int) error { return nil })
		if err != nil {
			done <- err
			return
		}
		done <- f.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Submit after panicked job: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit blocked: panicked job leaked its in-flight slot")
	}
}

// TestSubmitContextPreCancelled: an already-done context aborts the
// submission before any work runs.
func TestSubmitContextPreCancelled(t *testing.T) {
	p := New(1, 1)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int64
	if _, err := p.SubmitQoS(ctx, 4, 0, QoS{}, func(*Worker, int) error {
		atomic.AddInt64(&ran, 1)
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitQoS = %v, want context.Canceled", err)
	}
	if atomic.LoadInt64(&ran) != 0 {
		t.Error("tasks ran despite pre-cancelled context")
	}
}

// TestCancelMidJobSkipsFrontier: cancelling a job's context after its
// first task makes the remaining claims skip work promptly; the future
// returns ctx.Err() and the cancelled-jobs counter registers.
func TestCancelMidJobSkipsFrontier(t *testing.T) {
	p := New(1, 4)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 100
	var ran int64
	fut, err := p.SubmitQoS(ctx, n, 1, QoS{}, func(w *Worker, i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 0 {
			cancel()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if got := atomic.LoadInt64(&ran); got != 1 {
		t.Errorf("%d tasks ran after cancellation, want 1 (the canceller)", got)
	}
	if st := p.Stats(); st.JobsCancelled != 1 {
		t.Errorf("JobsCancelled = %d, want 1", st.JobsCancelled)
	}
}

// TestWaitContextEarlyReturn: WaitContext returns ctx.Err() while the
// job is still running, and a later Wait still delivers the job's real
// result.
func TestWaitContextEarlyReturn(t *testing.T) {
	p := New(1, 2)
	defer p.Close()
	release := make(chan struct{})
	fut, err := p.Submit(1, 0, func(*Worker, int) error {
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := fut.WaitContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitContext = %v, want context.Canceled", err)
	}
	close(release)
	if err := fut.Wait(); err != nil {
		t.Fatalf("Wait after early WaitContext return: %v", err)
	}
	if err := fut.WaitContext(ctx); err != nil {
		t.Fatalf("WaitContext on completed job = %v, want job result despite done ctx", err)
	}
}

// TestSubmitContextBackpressureCancel: a submitter blocked at the
// in-flight depth is unblocked by its context firing, returning
// ctx.Err() instead of staying parked.
func TestSubmitContextBackpressureCancel(t *testing.T) {
	p := New(1, 1)
	defer p.Close()
	release := make(chan struct{})
	blocker, err := p.Submit(1, 0, func(*Worker, int) error {
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := p.SubmitQoS(ctx, 1, 0, QoS{}, func(*Worker, int) error { return nil })
		errc <- err
	}()
	// The submitter is (about to be) parked on backpressure; cancelling
	// must wake it.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked SubmitQoS = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled SubmitQoS still blocked on backpressure")
	}
	close(release)
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDuringBlockedSubmit: Close wakes a Submit parked on
// backpressure, which fails with ErrClosed; the accepted job still
// drains.
func TestCloseDuringBlockedSubmit(t *testing.T) {
	p := New(1, 1)
	release := make(chan struct{})
	blocker, err := p.Submit(1, 0, func(*Worker, int) error {
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := p.Submit(1, 0, func(*Worker, int) error { return nil })
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Submit during Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Submit not woken by Close")
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain the accepted job")
	}
	if err := blocker.Wait(); err != nil {
		t.Fatalf("accepted job after Close: %v", err)
	}
}

// TestCloseWithTimeoutReportsHungJob: a stuck task makes the bounded
// drain report ErrDrainTimeout with the in-flight count instead of
// hanging; after the task unsticks, a plain Close completes.
func TestCloseWithTimeoutReportsHungJob(t *testing.T) {
	p := New(1, 2)
	release := make(chan struct{})
	fut, err := p.Submit(1, 0, func(*Worker, int) error {
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = p.CloseWithTimeout(30 * time.Millisecond)
	if !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("CloseWithTimeout = %v, want ErrDrainTimeout", err)
	}
	if !strings.Contains(err.Error(), "1 job(s)") {
		t.Errorf("drain-timeout error %q does not report the stuck job count", err)
	}
	if _, err := p.Submit(1, 0, func(*Worker, int) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after CloseWithTimeout = %v, want ErrClosed", err)
	}
	close(release)
	if err := p.Close(); err != nil {
		t.Fatalf("Close after unsticking: %v", err)
	}
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := p.CloseWithTimeout(time.Second); err != nil {
		t.Fatalf("CloseWithTimeout on drained pool: %v", err)
	}
}

// TestCloseWithTimeoutDrainsHealthyPool: with no stuck work the bounded
// drain behaves exactly like Close.
func TestCloseWithTimeoutDrainsHealthyPool(t *testing.T) {
	p := New(2, 8)
	var ran int64
	futs := make([]*Future, 6)
	for i := range futs {
		f, err := p.Submit(3, 0, func(*Worker, int) error {
			atomic.AddInt64(&ran, 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	if err := p.CloseWithTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, f := range futs {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := atomic.LoadInt64(&ran); got != 18 {
		t.Fatalf("ran %d tasks, want 18", got)
	}
}

// TestFaultHookInjectsError: the test-only injector fails the chosen
// task as if its run function had returned the error, and removing the
// hook restores normal service.
func TestFaultHookInjectsError(t *testing.T) {
	p := New(2, 4)
	defer p.Close()
	boom := errors.New("injected")
	SetFaultHook(func(task int) error {
		if task == 1 {
			return boom
		}
		return nil
	})
	defer SetFaultHook(nil)
	fut, err := p.Submit(4, 1, func(*Worker, int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want injected error", err)
	}
	SetFaultHook(nil)
	ok, err := p.Submit(4, 0, func(*Worker, int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.Wait(); err != nil {
		t.Fatalf("job after removing fault hook: %v", err)
	}
}

// TestFaultHookPanicContained: a hook that panics exercises the same
// containment path as a panicking task body.
func TestFaultHookPanicContained(t *testing.T) {
	p := New(1, 2)
	defer p.Close()
	var fired int32
	SetFaultHook(func(task int) error {
		if atomic.CompareAndSwapInt32(&fired, 0, 1) {
			panic("hook")
		}
		return nil
	})
	defer SetFaultHook(nil)
	fut, err := p.Submit(2, 0, func(*Worker, int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); !errors.Is(err, ErrPanicked) {
		t.Fatalf("Wait = %v, want ErrPanicked", err)
	}
}
