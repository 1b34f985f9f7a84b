package sched

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestTrySubmitBusy: at the in-flight depth TrySubmitQoS refuses
// immediately with ErrBusy instead of blocking, and succeeds again
// once the queue drains.
func TestTrySubmitBusy(t *testing.T) {
	p := New(1, 1)
	defer p.Close()
	release := make(chan struct{})
	fut, err := p.Submit(1, 1, func(_ *Worker, _ int) error {
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TrySubmitQoS(1, 1, QoS{}, func(_ *Worker, _ int) error { return nil }); !errors.Is(err, ErrBusy) {
		t.Fatalf("TrySubmitQoS at depth: err = %v, want ErrBusy", err)
	}
	close(release)
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	fut2, err := p.TrySubmitQoS(1, 1, QoS{}, func(_ *Worker, _ int) error { return nil })
	if err != nil {
		t.Fatalf("TrySubmitQoS after drain: %v", err)
	}
	if err := fut2.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestTrySubmitClosed: a closed pool refuses with ErrClosed, not
// ErrBusy.
func TestTrySubmitClosed(t *testing.T) {
	p := New(1, 1)
	p.Close()
	if _, err := p.TrySubmitQoS(1, 1, QoS{}, func(_ *Worker, _ int) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestOnDone: the continuation fires exactly once with the job's
// error — nil on success, the task error on failure, a PanicError on
// a contained panic — and may itself submit follow-up work.
func TestOnDone(t *testing.T) {
	p := New(2, 0)
	defer p.Close()

	var fired atomic.Int64
	errCh := make(chan error, 1)
	fut, err := p.TrySubmitQoS(4, 0, QoS{}, func(_ *Worker, _ int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	fut.OnDone(func(err error) {
		fired.Add(1)
		// Submitting from the continuation must not deadlock: it runs
		// on a dedicated goroutine, not inside a pool worker.
		f2, err2 := p.Submit(1, 1, func(_ *Worker, _ int) error { return err })
		if err2 != nil {
			errCh <- err2
			return
		}
		errCh <- f2.Wait()
	})
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnDone continuation never completed")
	}
	if got := fired.Load(); got != 1 {
		t.Fatalf("continuation fired %d times, want 1", got)
	}

	boom := fmt.Errorf("boom")
	fut, err = p.TrySubmitQoS(2, 0, QoS{}, func(_ *Worker, i int) error {
		if i == 0 {
			return boom
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	fut.OnDone(func(err error) { got <- err })
	select {
	case err := <-got:
		if !errors.Is(err, boom) {
			t.Fatalf("OnDone error = %v, want boom", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnDone never fired on failure")
	}
}
