package sched

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestPerWorkerStats: Stats reports one TasksRun entry per pool worker,
// and across workers they sum to the tasks the job ran.
func TestPerWorkerStats(t *testing.T) {
	p := New(3, 0)
	defer p.Close()

	const n = 30
	fut, err := p.Submit(n, 0, func(w *Worker, task int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if len(s.PerWorker) != 3 {
		t.Fatalf("PerWorker len %d, want 3", len(s.PerWorker))
	}
	var tasks int64
	for _, ws := range s.PerWorker {
		if ws.TasksRun < 0 {
			t.Errorf("negative task count: %+v", ws)
		}
		tasks += ws.TasksRun
	}
	if tasks != n || s.CallerTasks != 0 {
		t.Errorf("tasks across workers %d, caller tasks %d; want %d, 0", tasks, s.CallerTasks, n)
	}
}

// TestSkippedClaimsNotObserved: after a task fails, the job's remaining
// claims are skipped — they ran no work, so TasksRun counts only the
// tasks that executed.
func TestSkippedClaimsNotObserved(t *testing.T) {
	p := New(1, 0)
	defer p.Close()

	boom := errors.New("boom")
	var ran int64
	fut, err := p.Submit(10, 1, func(w *Worker, task int) error {
		atomic.AddInt64(&ran, 1)
		if task == 2 {
			return boom
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); !errors.Is(err, boom) {
		t.Fatalf("err %v, want %v", err, boom)
	}
	var tasks int64
	for _, ws := range p.Stats().PerWorker {
		tasks += ws.TasksRun
	}
	if tasks != ran || ran != 3 {
		t.Errorf("TasksRun %d, ran %d; want 3", tasks, ran)
	}
}

// TestJobIDsDistinct: every accepted job gets a distinct ID, so a
// replay that orders jobs by ID never conflates two of them.
func TestJobIDsDistinct(t *testing.T) {
	p := New(2, 0)
	defer p.Close()
	seen := map[int64]bool{}
	for i := 0; i < 5; i++ {
		fut, err := p.Submit(1, 0, func(w *Worker, task int) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
		id := fut.JobID()
		if seen[id] {
			t.Errorf("job ID %d reused", id)
		}
		seen[id] = true
	}
}
