package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOnDoneOrderingContract pins Future.OnDone's documented semantics:
// the callback runs exactly once, observes the same error Wait returns,
// fires even when registered after completion, and is asynchronous with
// respect to Wait — the test asserts the guarantees without assuming
// any ordering between a waiter waking and the callback running.
func TestOnDoneOrderingContract(t *testing.T) {
	p := New(2, 0)
	defer p.Close()

	// 1. Callback observes the same (nil) error Wait returns, exactly once.
	f, err := p.Submit(4, 0, func(w *Worker, task int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	got := make(chan error, 1)
	f.OnDone(func(err error) {
		calls.Add(1)
		got <- err
	})
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("callback error %v, Wait returned nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnDone callback never fired after Wait returned")
	}

	// 2. Registration after completion still fires, with the job's error.
	boom := errors.New("boom")
	ff, err := p.Submit(2, 0, func(w *Worker, task int) error { return boom })
	if err != nil {
		t.Fatal(err)
	}
	wantErr := ff.Wait() // completed before registration
	late := make(chan error, 1)
	ff.OnDone(func(err error) { late <- err })
	select {
	case err := <-late:
		if !errors.Is(err, boom) || !errors.Is(wantErr, boom) {
			t.Fatalf("late callback error %v, Wait error %v, want boom", err, wantErr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnDone registered after completion never fired")
	}

	// 3. Exactly once, even with Wait racing from several goroutines.
	var wg sync.WaitGroup
	f3, err := p.Submit(8, 0, func(w *Worker, task int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	var calls3 atomic.Int32
	fired := make(chan struct{})
	f3.OnDone(func(error) {
		calls3.Add(1)
		close(fired)
	})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f3.Wait()
		}()
	}
	wg.Wait()
	<-fired
	if n := calls3.Load(); n != 1 {
		t.Fatalf("OnDone ran %d times, want exactly 1", n)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("first OnDone ran %d times, want exactly 1", n)
	}
}

// TestCloseWithTimeoutClaimStorm races CloseWithTimeout against a storm
// of short jobs across three QoS classes: every accepted job's future
// must fire (drain-then-stop), submissions after close fail with
// ErrClosed, and the bounded drain returns promptly either way.
func TestCloseWithTimeoutClaimStorm(t *testing.T) {
	p := New(2, 8)
	p.ConfigureClass("hi", ClassConfig{Weight: 8})
	p.ConfigureClass("lo", ClassConfig{Weight: 1, Depth: 6})

	classes := []string{"hi", "lo", DefaultClass}
	var accepted []*Future
	var mu sync.Mutex
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f, err := p.SubmitQoS(context.Background(), 3, 0, QoS{Class: classes[(g+i)%len(classes)]},
					func(w *Worker, task int) error { return nil })
				if err != nil {
					// ErrClosed once the close lands, ErrAdmission for
					// the bounded class, ErrBusy never (blocking path).
					if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrAdmission) {
						t.Errorf("storm submit: unexpected error %v", err)
					}
					if errors.Is(err, ErrClosed) {
						return
					}
					continue
				}
				mu.Lock()
				accepted = append(accepted, f)
				mu.Unlock()
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	if err := p.CloseWithTimeout(10 * time.Second); err != nil {
		t.Fatalf("CloseWithTimeout: %v", err)
	}
	close(stop)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for i, f := range accepted {
		select {
		case <-f.Done():
			if err := f.Wait(); err != nil {
				t.Fatalf("accepted job %d failed: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("accepted job %d abandoned by close", i)
		}
	}
}

// TestCancelQueuedUnclaimedJob cancels a job whose context fires while
// it is parked, unclaimed, in its class queue behind a blocked worker:
// the job must complete with ctx.Err() and run no task, and the class's
// completion counters must still balance.
func TestCancelQueuedUnclaimedJob(t *testing.T) {
	p := New(1, 0)
	defer p.Close()

	gate := make(chan struct{})
	blocker, err := p.Submit(1, 1, func(w *Worker, task int) error {
		<-gate
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	f, err := p.SubmitQoS(ctx, 4, 0, QoS{Class: "parked"}, func(w *Worker, task int) error {
		ran.Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel() // fires while the job is queued and unclaimed
	close(gate)
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued job: got %v, want context.Canceled", err)
	}
	if ran.Load() {
		t.Fatal("task of cancelled queued job ran")
	}
	s := p.Stats()
	for _, cs := range s.Classes {
		if cs.Class == "parked" {
			if cs.Submitted != 1 || cs.Completed != 1 || cs.InFlight != 0 {
				t.Fatalf("parked class counters = %+v, want submitted=completed=1 inflight=0", cs)
			}
		}
	}
	if s.JobsCancelled != 1 {
		t.Fatalf("JobsCancelled = %d, want 1", s.JobsCancelled)
	}
}

// TestStatsRelaxedSnapshot hammers Stats concurrently with running
// tasks and checks the documented invariant: mid-run snapshots never
// lose a counted task (each worker's TasksRun only grows), and once the
// pool is idle the counts are exact.
func TestStatsRelaxedSnapshot(t *testing.T) {
	p := New(2, 0)
	defer p.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := make([]int64, p.Workers())
		for {
			select {
			case <-stop:
				return
			default:
				for i, pw := range p.Stats().PerWorker {
					if pw.TasksRun < prev[i] {
						t.Errorf("worker %d TasksRun went back from %d to %d", i, prev[i], pw.TasksRun)
						return
					}
					prev[i] = pw.TasksRun
				}
			}
		}
	}()

	const jobs, tasksPer = 8, 16
	var futs []*Future
	for j := 0; j < jobs; j++ {
		f, err := p.Submit(tasksPer, 0, func(w *Worker, task int) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for _, f := range futs {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	s := p.Stats()
	var tasks int64
	for _, pw := range s.PerWorker {
		tasks += pw.TasksRun
	}
	if tasks != jobs*tasksPer || s.CallerTasks != 0 {
		t.Fatalf("quiescent TasksRun sum = %d, caller tasks %d; want %d, 0", tasks, s.CallerTasks, jobs*tasksPer)
	}
}
