package autogemm

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"autogemm/internal/refgemm"
)

// TestCallerRunsRaceWithPoolWork: blocking calls run their jobs on the
// calling goroutine while batch and async jobs run on the pool. Eight
// goroutines alternate Multiply and MultiplyPlanned on a 2-worker
// engine with queue depth 2, beside a MultiplyBatch loop and an async
// Submit loop; every result bit-matches a serial Multiply. Close then
// races the loops' tail: each call either completes with the right
// bits or fails with ErrClosed, and nothing deadlocks.
func TestCallerRunsRaceWithPoolWork(t *testing.T) {
	e, err := New("KP920", WithWorkers(2), WithQueueDepth(2))
	if err != nil {
		t.Fatal(err)
	}
	type problem struct {
		m, n, k    int
		a, b, want []float32
		plan       *Plan
	}
	var probs []problem
	for i, s := range [][3]int{{8, 8, 8}, {20, 26, 14}, {33, 17, 9}, {48, 40, 24}} {
		p := problem{m: s[0], n: s[1], k: s[2]}
		p.a, p.b = make([]float32, p.m*p.k), make([]float32, p.k*p.n)
		refgemm.Fill(p.a, p.m, p.k, p.k, uint64(2*i+1))
		refgemm.Fill(p.b, p.k, p.n, p.n, uint64(2*i+2))
		p.want = make([]float32, p.m*p.n)
		if err := e.Multiply(p.want, p.a, p.b, p.m, p.n, p.k); err != nil {
			t.Fatal(err)
		}
		if p.plan, err = e.PlanFor(nil, p.m, p.n, p.k); err != nil {
			t.Fatal(err)
		}
		probs = append(probs, p)
	}
	// check reports a bit mismatch without stopping the test goroutine:
	// the loops below run on their own goroutines.
	check := func(label string, got, want []float32) {
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Errorf("%s: C[%d] = %g, serial %g (bits differ)", label, i, got[i], want[i])
				return
			}
		}
	}
	gemm := func(p problem) GEMM {
		return GEMM{M: p.m, N: p.n, K: p.k, A: p.a, B: p.b, C: make([]float32, p.m*p.n)}
	}

	// Each loop runs `rounds` rounds before Close, then keeps going
	// until the engine refuses it.
	const rounds = 6
	var warm, done sync.WaitGroup
	loop := func(name string, round func(r int) error) {
		warm.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			for r := 0; ; r++ {
				if r == rounds {
					warm.Done()
				}
				if err := round(r); err != nil {
					if r < rounds {
						warm.Done()
					}
					if !errors.Is(err, ErrClosed) || r < rounds {
						t.Errorf("%s round %d: %v", name, r, err)
					}
					return
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		g := g
		loop("caller", func(r int) error {
			p := probs[(g+r)%len(probs)]
			c := make([]float32, p.m*p.n)
			var err error
			if g%2 == 0 {
				err = e.Multiply(c, p.a, p.b, p.m, p.n, p.k)
			} else {
				err = e.MultiplyPlanned(p.plan, c, p.a, p.b)
			}
			if err == nil {
				check("caller", c, p.want)
			}
			return err
		})
	}
	loop("batch", func(int) error {
		batch := make([]GEMM, len(probs))
		for i, p := range probs {
			batch[i] = gemm(p)
		}
		err := e.MultiplyBatch(batch)
		if err == nil {
			for i, p := range probs {
				check("batch", batch[i].C, p.want)
			}
		}
		return err
	})
	loop("async", func(r int) error {
		p := probs[r%len(probs)]
		g := gemm(p)
		f, err := e.Submit(context.Background(), g)
		if err != nil {
			return err
		}
		if err := f.Wait(); err != nil {
			return err
		}
		check("async", g.C, p.want)
		return nil
	})

	warm.Wait()
	finished := make(chan struct{})
	go func() {
		if err := e.Close(); err != nil {
			t.Error(err)
		}
		done.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("Close and the racing loops did not finish: deadlock")
	}
	s := e.PlanCacheStats()
	if s.SchedJobsCompleted != s.SchedJobsSubmitted || len(s.SchedPerWorker) != 2 {
		t.Fatalf("jobs completed %d of %d submitted, %d per-worker entries; want all, 2",
			s.SchedJobsCompleted, s.SchedJobsSubmitted, len(s.SchedPerWorker))
	}
}

// TestSchedCallerTasks: PlanCacheStats splits the tasks a blocking call
// runs on its own goroutine (SchedCallerTasks) from those pool workers
// run (SchedPerWorker). On a 1-worker engine, n Multiply calls on a
// single-task shape move only SchedCallerTasks, by exactly n; a batch
// of that shape moves only the workers' TasksRun, by one per element.
func TestSchedCallerTasks(t *testing.T) {
	e, err := New("KP920", WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const m, n, k = 8, 8, 8
	a, b := make([]float32, m*k), make([]float32, k*n)
	refgemm.Fill(a, m, k, k, 1)
	refgemm.Fill(b, k, n, n, 2)
	if _, err := e.PlanFor(nil, m, n, k); err != nil {
		t.Fatal(err)
	}
	counts := func() (caller, workers int64) {
		st := e.PlanCacheStats()
		for _, pw := range st.SchedPerWorker {
			workers += pw.TasksRun
		}
		return st.SchedCallerTasks, workers
	}

	caller0, workers0 := counts()
	const calls = 5
	for i := 0; i < calls; i++ {
		if err := e.Multiply(make([]float32, m*n), a, b, m, n, k); err != nil {
			t.Fatal(err)
		}
	}
	caller1, workers1 := counts()
	if caller1-caller0 != calls || workers1 != workers0 {
		t.Fatalf("%d Multiply calls moved SchedCallerTasks by %d and worker tasks by %d; want %d, 0",
			calls, caller1-caller0, workers1-workers0, calls)
	}

	const elems = 3
	batch := make([]GEMM, elems)
	for i := range batch {
		batch[i] = GEMM{M: m, N: n, K: k, A: a, B: b, C: make([]float32, m*n)}
	}
	if err := e.MultiplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	caller2, workers2 := counts()
	if caller2 != caller1 || workers2-workers1 != elems {
		t.Fatalf("a %d-element batch moved SchedCallerTasks by %d and worker tasks by %d; want 0, %d",
			elems, caller2-caller1, workers2-workers1, elems)
	}
}
