package sched

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// These tests pin who wakes whom: an accepted job signals as many
// parked workers as it can use, and a completing job wakes blocked
// submitters without losing the wake-up to one whose context fired.

func noopTask(*Worker, int) error { return nil }

// TestSubmitWakesEnoughWorkers: a job with one task per worker,
// submitted to a pool whose workers are all parked, is entered by
// every worker. Each task holds a barrier, so a worker cannot run two
// tasks; an under-signalled pool fails the barrier's timeout instead
// of hanging.
func TestSubmitWakesEnoughWorkers(t *testing.T) {
	const workers = 4
	p := New(workers, 0)
	defer p.Close()
	// Start the workers, then give them time to park.
	warm, err := p.Submit(1, 1, noopTask)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Wait(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)

	var entered sync.WaitGroup
	entered.Add(workers)
	release := make(chan struct{})
	f, err := p.Submit(workers, 0, func(*Worker, int) error {
		entered.Done()
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	all := make(chan struct{})
	go func() { entered.Wait(); close(all) }()
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatalf("not every parked worker was woken for a %d-task job", workers)
	}
	close(release)
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := f.Participants(); got != workers {
		t.Fatalf("Participants = %d, want %d", got, workers)
	}
}

// TestBackpressureWakeSurvivesCancelledWaiter: at depth 1 with two
// submitters blocked behind a running job, cancelling the first one's
// context must leave the second to be accepted when the job finishes.
// Odd rounds race the cancellation against the completion; even rounds
// let the cancelled submitter leave first.
func TestBackpressureWakeSurvivesCancelledWaiter(t *testing.T) {
	p := New(1, 1)
	// Bounded: a failed round leaves its blocking job unreleased.
	defer p.CloseWithTimeout(time.Second)
	for round := 0; round < 20; round++ {
		release := make(chan struct{})
		blocker, err := p.Submit(1, 0, func(*Worker, int) error {
			<-release
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		first := make(chan error, 1)
		go func() {
			_, err := p.SubmitQoS(ctx, 1, 0, QoS{}, noopTask)
			first <- err
		}()
		time.Sleep(2 * time.Millisecond) // the first submitter parks first
		type accepted struct {
			f   *Future
			err error
		}
		second := make(chan accepted, 1)
		go func() {
			f, err := p.Submit(1, 0, noopTask)
			second <- accepted{f, err}
		}()
		time.Sleep(2 * time.Millisecond)

		cancel()
		if round%2 == 0 {
			wantCancelled(t, round, first)
		}
		close(release)
		if err := blocker.Wait(); err != nil {
			t.Fatal(err)
		}
		select {
		case a := <-second:
			if a.err != nil {
				t.Fatalf("round %d: second submitter = %v", round, a.err)
			}
			if err := a.f.Wait(); err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: second submitter never accepted after the job finished", round)
		}
		if round%2 == 1 {
			wantCancelled(t, round, first)
		}
	}
}

// wantCancelled waits for a cancelled submitter to give up.
func wantCancelled(t *testing.T, round int, errc <-chan error) {
	t.Helper()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: cancelled submitter = %v, want context.Canceled", round, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("round %d: cancelled submitter still blocked on backpressure", round)
	}
}
