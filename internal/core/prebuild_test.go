package core

import (
	"context"
	"testing"

	"autogemm/internal/hw"
	"autogemm/internal/refgemm"
	"autogemm/internal/sched"
)

// TestColdCallRunWakesNoWorker: Run and RunParallel(…, 1) on a cold
// plan resolve their kernels on the caller and wake no pool worker.
// Prebuild is one caller-joined job that compiles every kernel the plan
// calls, once: a second Prebuild submits nothing, and the run after it
// bit-matches refgemm.
func TestColdCallRunWakesNoWorker(t *testing.T) {
	chip := hw.KP920()
	const m, n, k = 300, 100, 130
	a, b, want := make([]float32, m*k), make([]float32, k*n), make([]float32, m*n)
	refgemm.Fill(a, m, k, k, 1)
	refgemm.Fill(b, k, n, n, 2)
	refgemm.GEMM(m, n, k, a, k, b, n, want, n)
	check := func(label string, c []float32) {
		t.Helper()
		for i := range c {
			if c[i] != want[i] {
				t.Fatalf("%s: C[%d] = %g, refgemm %g", label, i, c[i], want[i])
			}
		}
	}
	fresh := func() (*Plan, *sched.Pool) {
		pool := sched.New(2, 0)
		opts := AutoOptions(chip)
		opts.Runtime = pool
		p, err := NewPlan(chip, m, n, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		return p, pool
	}
	workerTasks := func(pool *sched.Pool) (n int64) {
		for _, w := range pool.Stats().PerWorker {
			n += w.TasksRun
		}
		return n
	}

	for _, run := range []struct {
		name string
		call func(p *Plan, c []float32) error
	}{
		{"Run", func(p *Plan, c []float32) error { return p.Run(c, a, b) }},
		{"RunParallel(1)", func(p *Plan, c []float32) error { return p.RunParallel(c, a, b, 1) }},
	} {
		p, pool := fresh()
		c := make([]float32, m*n)
		if err := run.call(p, c); err != nil {
			t.Fatal(err)
		}
		check(run.name, c)
		if w, jobs := workerTasks(pool), pool.Stats().JobsSubmitted; w != 0 || jobs != 1 {
			t.Fatalf("cold %s: pool workers ran %d tasks over %d jobs, want 0 over its 1 job", run.name, w, jobs)
		}
		pool.Close()
	}

	p, pool := fresh()
	defer pool.Close()
	specs := p.unbuiltSpecs()
	if len(specs) < 2 {
		t.Fatalf("plan calls %d kernels, want several", len(specs))
	}
	for i := 0; i < 2; i++ {
		if err := p.Prebuild(context.Background(), sched.QoS{}); err != nil {
			t.Fatal(err)
		}
		if jobs := pool.Stats().JobsSubmitted; jobs != 1 {
			t.Fatalf("Prebuild %d: %d jobs submitted in all, want 1", i+1, jobs)
		}
	}
	if left := p.unbuiltSpecs(); len(left) != 0 {
		t.Fatalf("%d kernels still uncompiled after Prebuild", len(left))
	}
	c := make([]float32, m*n)
	if err := p.Run(c, a, b); err != nil {
		t.Fatal(err)
	}
	check("Run after Prebuild", c)
}
