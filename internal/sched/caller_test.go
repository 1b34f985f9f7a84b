package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// These tests pin the caller-runs rule of RunQoS: the blocking caller
// is its job's first participant, under a caller slot, and the failure
// paths reach its tasks exactly as they reach a worker's.

// TestRunQoSOneTaskRunsOnCaller: a one-task job, and a capped
// many-task job, run on a caller slot in task order; no pool worker
// runs a task, and the tasks are counted in CallerTasks.
func TestRunQoSOneTaskRunsOnCaller(t *testing.T) {
	p := New(2, 0)
	defer p.Close()
	for _, tc := range []struct{ tasks, max int }{{1, 0}, {6, 1}} {
		var ids []int
		var order []int
		f, err := p.RunQoS(context.Background(), tc.tasks, tc.max, QoS{}, func(w *Worker, i int) error {
			ids = append(ids, w.ID())
			order = append(order, i)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			if id < p.Workers() || id >= p.Slots() || id != ids[0] {
				t.Fatalf("tasks=%d: task %d ran on ID %d, want one caller slot in [%d, %d)", tc.tasks, i, id, p.Workers(), p.Slots())
			}
			if order[i] != i {
				t.Fatalf("tasks=%d: task order %v", tc.tasks, order)
			}
		}
		if len(ids) != tc.tasks || f.Participants() != 1 || f.TasksStolen() != 0 {
			t.Fatalf("tasks=%d: ran %d, participants %d, stolen %d", tc.tasks, len(ids), f.Participants(), f.TasksStolen())
		}
	}
	s := p.Stats()
	for i, ws := range s.PerWorker {
		if ws.TasksRun != 0 {
			t.Errorf("worker %d ran %d tasks, want 0", i, ws.TasksRun)
		}
	}
	if len(s.PerWorker) != p.Workers() || s.CallerTasks != 7 {
		t.Errorf("PerWorker len %d, CallerTasks %d; want %d, 7", len(s.PerWorker), s.CallerTasks, p.Workers())
	}
	if s.JobsSubmitted != 2 || s.JobsCompleted != 2 {
		t.Errorf("jobs submitted %d completed %d, want 2 2", s.JobsSubmitted, s.JobsCompleted)
	}
}

// TestRunQoSCallerPlusOneWorker: a maxWorkers = 2 job on a 2-worker
// pool is run by its caller and at most one pool worker. Each task
// waits briefly for a second participant, so a woken worker joins.
func TestRunQoSCallerPlusOneWorker(t *testing.T) {
	p := New(2, 0)
	defer p.Close()
	const tasks = 8
	var mu sync.Mutex
	seen := map[int]int{}
	var running atomic.Int32
	f, err := p.RunQoS(context.Background(), tasks, 2, QoS{}, func(w *Worker, i int) error {
		mu.Lock()
		seen[w.ID()]++
		mu.Unlock()
		running.Add(1)
		defer running.Add(-1)
		for deadline := time.Now().Add(50 * time.Millisecond); running.Load() < 2 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	var workers, callers, total int
	for id, n := range seen {
		total += n
		if id < p.Workers() {
			workers++
		} else {
			callers++
		}
	}
	if total != tasks || workers > 1 || callers > 1 || len(seen) != f.Participants() || f.Participants() > 2 {
		t.Fatalf("tasks by ID %v, participants %d: want %d tasks over the caller and at most one worker", seen, f.Participants(), tasks)
	}
	s := p.Stats()
	var byWorkers int64
	for _, ws := range s.PerWorker {
		byWorkers += ws.TasksRun
	}
	if byWorkers+s.CallerTasks != tasks {
		t.Fatalf("workers ran %d, caller %d, want %d in all", byWorkers, s.CallerTasks, tasks)
	}
}

// TestRunQoSCallerPanicContained: a task panicking on the caller fails
// the job with a *PanicError, the remaining tasks are skipped, and the
// caller goes on to run the next job.
func TestRunQoSCallerPanicContained(t *testing.T) {
	p := New(1, 0)
	defer p.Close()
	var ran []int
	f, err := p.RunQoS(context.Background(), 4, 1, QoS{}, func(w *Worker, i int) error {
		ran = append(ran, i)
		if i == 1 {
			panic("boom")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pe *PanicError
	if err := f.Wait(); !errors.As(err, &pe) || !errors.Is(err, ErrPanicked) || pe.Task != 1 || pe.Value != "boom" {
		t.Fatalf("err = %v, want the *PanicError of task 1", err)
	}
	if len(ran) != 2 {
		t.Fatalf("ran tasks %v, want [0 1] then skips", ran)
	}
	f, err = p.RunQoS(context.Background(), 2, 1, QoS{}, noopTask)
	if err != nil || f.Wait() != nil {
		t.Fatalf("caller after a contained panic: %v, %v", err, f.Wait())
	}
	if s := p.Stats(); s.TasksPanicked != 1 || s.JobsCompleted != 2 {
		t.Fatalf("panicked %d completed %d, want 1 2", s.TasksPanicked, s.JobsCompleted)
	}
}

// TestRunQoSFaultAndCancelReachCaller: the fault hook fails a caller's
// task, and a context cancelled mid-job skips the caller's remaining
// tasks, each exactly as on a pool worker.
func TestRunQoSFaultAndCancelReachCaller(t *testing.T) {
	p := New(2, 0)
	defer p.Close()
	injected := errors.New("injected")
	SetFaultHook(func(task int) error {
		if task == 2 {
			return injected
		}
		return nil
	})
	var ran []int
	f, err := p.RunQoS(context.Background(), 5, 1, QoS{}, func(w *Worker, i int) error {
		ran = append(ran, i)
		return nil
	})
	SetFaultHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(); !errors.Is(err, injected) || len(ran) != 2 {
		t.Fatalf("fault: err %v, ran %v; want the injected error after tasks [0 1]", err, ran)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran = ran[:0]
	f, err = p.RunQoS(ctx, 5, 1, QoS{}, func(w *Worker, i int) error {
		ran = append(ran, i)
		if i == 1 {
			cancel()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(); !errors.Is(err, context.Canceled) || len(ran) != 2 {
		t.Fatalf("cancel: err %v, ran %v; want context.Canceled after tasks [0 1]", err, ran)
	}
	// The faulted task counts as run, as on a worker; skipped claims do not.
	if s := p.Stats(); s.JobsCancelled != 1 || s.CallerTasks != 5 {
		t.Fatalf("cancelled %d, caller tasks %d; want 1, 5", s.JobsCancelled, s.CallerTasks)
	}
}

// TestRunQoSCallerSlotsExclusive: many concurrent callers on a shallow
// pool only ever hold caller slots in [Workers(), Slots()), and no slot
// is active on two goroutines at once — the contract per-slot scratch
// relies on.
func TestRunQoSCallerSlotsExclusive(t *testing.T) {
	p := New(2, 2)
	defer p.Close()
	busy := make([]atomic.Int32, p.Slots())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				f, err := p.RunQoS(context.Background(), 3, 2, QoS{}, func(w *Worker, i int) error {
					id := w.ID()
					if id < 0 || id >= p.Slots() {
						t.Errorf("ID %d outside [0, %d)", id, p.Slots())
						return nil
					}
					if busy[id].Add(1) != 1 {
						t.Errorf("ID %d active on two goroutines", id)
					}
					time.Sleep(20 * time.Microsecond) // widen the window a shared slot would show in
					busy[id].Add(-1)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if err := f.Wait(); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if s := p.Stats(); s.QueueHighWater > 2 || s.JobsCompleted != 8*50 {
		t.Fatalf("high water %d, completed %d; want <= 2, %d", s.QueueHighWater, s.JobsCompleted, 8*50)
	}
}

// TestCloseWaitsForCaller: Close drains a job its caller is still
// running, though no pool worker takes part in it.
func TestCloseWaitsForCaller(t *testing.T) {
	p := New(1, 0)
	started, release := make(chan struct{}), make(chan struct{})
	ran := make(chan error, 1)
	go func() {
		f, err := p.RunQoS(context.Background(), 1, 1, QoS{}, func(*Worker, int) error {
			close(started)
			<-release
			return nil
		})
		if err == nil {
			err = f.Wait()
		}
		ran <- err
	}()
	<-started
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while the caller's job was running")
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := p.RunQoS(context.Background(), 1, 1, QoS{}, noopTask); !errors.Is(err, ErrClosed) {
		t.Fatalf("RunQoS after Close: %v, want ErrClosed", err)
	}
	close(release)
	<-closed
	if err := <-ran; err != nil {
		t.Fatal(err)
	}
}

// TestLocalPersistsPerID: a value a task stores through Local is seen
// by the next task run under the same ID, on a later job — for a pool
// worker and for a caller slot — and the two IDs do not share a slot.
func TestLocalPersistsPerID(t *testing.T) {
	p := New(1, 0)
	defer p.Close()
	onWorker := func(run func(*Worker, int) error) (*Future, error) { return p.Submit(1, 1, run) }
	onCaller := func(run func(*Worker, int) error) (*Future, error) {
		return p.RunQoS(context.Background(), 1, 1, QoS{}, run)
	}
	// step stores val under the running ID and returns that ID and the
	// value the ID held before.
	step := func(submit func(func(*Worker, int) error) (*Future, error), val string) (int, any) {
		t.Helper()
		var id int
		var prev any
		f, err := submit(func(w *Worker, _ int) error {
			id, prev = w.ID(), *w.Local()
			*w.Local() = val
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
		return id, prev
	}
	for i, tc := range []struct {
		submit func(func(*Worker, int) error) (*Future, error)
		store  string
		id     int
		prev   any
	}{
		{onWorker, "w1", 0, nil},
		{onCaller, "c1", p.Workers(), nil},
		{onWorker, "w2", 0, "w1"},
		{onCaller, "c2", p.Workers(), "c1"},
		{onCaller, "c3", p.Workers(), "c2"},
		{onWorker, "w3", 0, "w2"},
	} {
		id, prev := step(tc.submit, tc.store)
		if id != tc.id || prev != tc.prev {
			t.Fatalf("step %d: ran on ID %d holding %v, want ID %d holding %v", i, id, prev, tc.id, tc.prev)
		}
	}
}

// TestTryRunQoSRefusesInsteadOfWaiting: at the pool's in-flight depth,
// and on a closed pool, TryRunQoS fails at once (ErrBusy, ErrClosed)
// without running a task. With room it runs on the caller like RunQoS.
// A helper stands outside its class's admission: a class at its depth
// bound still runs it, it takes none of the class's slots while it
// runs, and a helper refused for an expired deadline is not counted as
// a rejection.
func TestTryRunQoSRefusesInsteadOfWaiting(t *testing.T) {
	p := New(1, 1)
	p.ConfigureClass("tight", ClassConfig{Depth: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	parked, err := p.SubmitQoS(context.Background(), 1, 0, QoS{Class: "tight"}, func(*Worker, int) error {
		close(started)
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ran := false
	noop := func(*Worker, int) error { ran = true; return nil }
	if _, err := p.TryRunQoS(context.Background(), 2, 0, QoS{}, noop); !errors.Is(err, ErrBusy) {
		t.Fatalf("TryRunQoS at depth = %v, want ErrBusy", err)
	}
	close(release)
	if err := parked.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("a refused TryRunQoS ran a task")
	}

	// A class at its own bound admits the helper outside the bound, and
	// the helper leaves the class's one slot free while it runs.
	release = make(chan struct{})
	started = make(chan struct{})
	q := New(1, 4)
	q.ConfigureClass("tight", ClassConfig{Depth: 1})
	parked, err = q.SubmitQoS(context.Background(), 1, 0, QoS{Class: "tight"}, func(*Worker, int) error {
		close(started)
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	helped := 0
	if _, err := q.TryRunQoS(context.Background(), 2, 0, QoS{Class: "tight"}, func(*Worker, int) error {
		helped++
		return nil
	}); err != nil || helped != 2 {
		t.Fatalf("TryRunQoS into a full class: err %v, ran %d of 2 tasks", err, helped)
	}
	close(release)
	if err := parked.Wait(); err != nil {
		t.Fatal(err)
	}
	// A request of the class is not shed while a helper of it runs.
	inHelper, shed := -1, error(nil)
	if _, err := q.TryRunQoS(context.Background(), 1, 0, QoS{Class: "tight"}, func(*Worker, int) error {
		cs, _ := q.Class("tight")
		inHelper = cs.InFlight
		_, shed = q.RunQoS(context.Background(), 1, 0, QoS{Class: "tight"}, func(*Worker, int) error { return nil })
		return nil
	}); err != nil || inHelper != 0 || shed != nil {
		t.Fatalf("helper: err %v, class in flight %d (want 0), request of the class beside it: %v", err, inHelper, shed)
	}
	expired := QoS{Class: "tight", Deadline: time.Now().Add(-time.Second)}
	if _, err := q.TryRunQoS(context.Background(), 2, 0, expired, noop); !errors.Is(err, ErrAdmission) {
		t.Fatalf("TryRunQoS past its deadline = %v, want ErrAdmission", err)
	}
	if cs, _ := q.Class("tight"); cs.Rejected != 0 || cs.InFlight != 0 || cs.Submitted != 4 {
		t.Fatalf("class tight: %d rejected, %d in flight, %d submitted; want 0, 0 and 4 (helpers counted as jobs)",
			cs.Rejected, cs.InFlight, cs.Submitted)
	}
	q.Close()

	var ids []int
	f, err := p.TryRunQoS(context.Background(), 3, 1, QoS{}, func(w *Worker, i int) error {
		ids = append(ids, w.ID())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(); err != nil || len(ids) != 3 || ids[0] < p.Workers() {
		t.Fatalf("TryRunQoS with room: err %v, ran on IDs %v; want 3 tasks on a caller slot", err, ids)
	}
	p.Close()
	if _, err := p.TryRunQoS(context.Background(), 2, 0, QoS{}, noop); !errors.Is(err, ErrClosed) {
		t.Fatalf("TryRunQoS after Close = %v, want ErrClosed", err)
	}
}
