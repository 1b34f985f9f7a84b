package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"autogemm/internal/hw"
	"autogemm/internal/refgemm"
	"autogemm/internal/sched"
)

// TestRunParallelMatchesReference: parallel execution equals the
// reference across worker counts.
func TestRunParallelMatchesReference(t *testing.T) {
	chip := hw.KP920()
	const m, n, k = 50, 70, 40
	for _, workers := range []int{1, 2, 4, 7} {
		opts := Options{MC: 16, NC: 20, KC: 12, Pack: PackOnline, Rotate: true, Fuse: true}
		plan, err := NewPlan(chip, m, n, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		c := make([]float32, m*n)
		refgemm.Fill(a, m, k, k, 31)
		refgemm.Fill(b, k, n, n, 32)
		refgemm.Fill(c, m, n, n, 33)
		want := make([]float32, m*n)
		copy(want, c)
		refgemm.GEMM(m, n, k, a, k, b, n, want, n)
		if err := plan.RunParallel(c, a, b, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if e := refgemm.MaxRelErr(c, want, m, n, n, n); e > refgemm.Tolerance {
			t.Errorf("workers=%d: max rel err %.3g", workers, e)
		}
	}
}

// TestRunParallelSharedPlan: one plan driven concurrently by many Run
// calls stays correct (the engine's plan cache relies on this).
func TestRunParallelSharedPlan(t *testing.T) {
	chip := hw.Graviton2()
	const m, n, k = 24, 28, 16
	plan, err := NewPlan(chip, m, n, k, AutoOptions(chip))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 6
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(seed uint64) {
			a := make([]float32, m*k)
			b := make([]float32, k*n)
			c := make([]float32, m*n)
			refgemm.Fill(a, m, k, k, seed)
			refgemm.Fill(b, k, n, n, seed+1)
			want := make([]float32, m*n)
			refgemm.GEMM(m, n, k, a, k, b, n, want, n)
			if err := plan.Run(c, a, b); err != nil {
				errCh <- err
				return
			}
			if e := refgemm.MaxRelErr(c, want, m, n, n, n); e > refgemm.Tolerance {
				errCh <- &parallelErr{e}
				return
			}
			errCh <- nil
		}(uint64(g * 100))
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}

type parallelErr struct{ e float64 }

func (p *parallelErr) Error() string { return "parallel result mismatch" }

// TestRunParallelValidation rejects bad buffers.
func TestRunParallelValidation(t *testing.T) {
	chip := hw.KP920()
	plan, _ := NewPlan(chip, 8, 8, 8, AutoOptions(chip))
	small := make([]float32, 4)
	if err := plan.RunParallel(small, small, small, 2); err == nil {
		t.Error("undersized buffers accepted")
	}
}

// TestPartitionPrecomputed: the C-tile-group partition attached to the
// plan covers the block grid exactly — every block of the grid
// appears in exactly one group, grouped by (MOff, NOff) with
// k chunks ascending.
func TestPartitionPrecomputed(t *testing.T) {
	chip := hw.KP920()
	opts := Options{MC: 16, NC: 20, KC: 12, Pack: PackOnline, Rotate: true, Fuse: true}
	plan, err := NewPlan(chip, 50, 70, 40, opts)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, g := range plan.groups {
		if len(g) == 0 {
			t.Fatalf("empty group")
		}
		for i, blk := range g {
			if blk.MOff != g[0].MOff || blk.NOff != g[0].NOff {
				t.Fatalf("group mixes C tiles")
			}
			if i > 0 && blk.KOff <= g[i-1].KOff {
				t.Fatalf("k chunks not ascending")
			}
		}
		total += len(g)
	}
	if want := len(plan.blocks()); total != want {
		t.Fatalf("partition covers %d blocks, grid has %d", total, want)
	}
}

// TestRunParallelBitIdenticalToRun: the determinism contract — any
// worker count produces the same bits as serial Run, because each C
// tile's k chunks stay in ascending order inside one task.
func TestRunParallelBitIdenticalToRun(t *testing.T) {
	chip := hw.KP920()
	const m, n, k = 50, 70, 40
	opts := Options{MC: 16, NC: 20, KC: 12, Pack: PackOnline, Rotate: true, Fuse: true}
	plan, err := NewPlan(chip, m, n, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	refgemm.Fill(a, m, k, k, 61)
	refgemm.Fill(b, k, n, n, 62)
	cInit := make([]float32, m*n)
	refgemm.Fill(cInit, m, n, n, 63)

	want := append([]float32(nil), cInit...)
	if err := plan.Run(want, a, b); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 0} {
		got := append([]float32(nil), cInit...)
		if err := plan.RunParallel(got, a, b, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("workers=%d: C[%d] = %g != serial %g", workers, i, got[i], want[i])
			}
		}
	}
}

// TestSubmitAsync: the asynchronous core path completes through the
// future, matches the reference, and the plan's scheduler counters
// advance.
func TestSubmitAsync(t *testing.T) {
	chip := hw.Graviton2()
	const m, n, k = 24, 28, 16
	plan, err := NewPlan(chip, m, n, k, AutoOptions(chip))
	if err != nil {
		t.Fatal(err)
	}
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	refgemm.Fill(a, m, k, k, 71)
	refgemm.Fill(b, k, n, n, 72)
	want := make([]float32, m*n)
	refgemm.GEMM(m, n, k, a, k, b, n, want, n)

	fut, err := plan.Submit(context.Background(), c, a, b, 0, sched.QoS{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); err != nil { // idempotent
		t.Fatal(err)
	}
	if e := refgemm.MaxRelErr(c, want, m, n, n, n); e > refgemm.Tolerance {
		t.Fatalf("max rel err %.3g", e)
	}
	st := plan.Stats()
	if st.JobsSubmitted != 1 || st.JobsCompleted != 1 {
		t.Errorf("sched counters %+v, want 1 job submitted and completed", st)
	}
}

// TestRunOnClosedRuntime: a plan attached to a closed pool reports the
// closure instead of hanging or panicking.
func TestRunOnClosedRuntime(t *testing.T) {
	pool := sched.New(2, 4)
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	chip := hw.KP920()
	opts := AutoOptions(chip)
	opts.Runtime = pool
	plan, err := NewPlan(chip, 8, 8, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, a, b := make([]float32, 64), make([]float32, 64), make([]float32, 64)
	if err := plan.Run(c, a, b); !errors.Is(err, sched.ErrClosed) {
		t.Fatalf("Run on closed runtime: err = %v, want sched.ErrClosed", err)
	}
	if _, err := plan.Submit(context.Background(), c, a, b, 0, sched.QoS{}); !errors.Is(err, sched.ErrClosed) {
		t.Fatalf("Submit on closed runtime: err = %v, want sched.ErrClosed", err)
	}
}

// TestGeometryValidation: negative extents and overflowing products are
// rejected at the plan and submit boundaries instead of slipping past
// the minimum-buffer-length checks (m = k = -1 makes m*k = 1).
func TestGeometryValidation(t *testing.T) {
	if err := checkGeometry(-1, 8, -1); err == nil {
		t.Error("checkGeometry accepted negative extents")
	}
	big := math.MaxInt/2 + 1
	if err := checkGeometry(big, 2, 2); err == nil {
		t.Error("checkGeometry accepted an overflowing m*k product")
	}
	if err := checkGeometry(2, big, big); err == nil {
		t.Error("checkGeometry accepted an overflowing k*n product")
	}
	if err := checkGeometry(1024, 1024, 1024); err != nil {
		t.Errorf("checkGeometry rejected a sane problem: %v", err)
	}

	chip := hw.KP920()
	for _, d := range [][3]int{{-1, 8, -1}, {8, -1, -1}, {-1, -1, -1}} {
		if _, err := Produce(chip, d[0], d[1], d[2], AutoOptions(chip)); err == nil {
			t.Errorf("Produce accepted %v", d)
		}
	}

	// A deserialized recipe is untrusted: corrupting its geometry after
	// production must fail Attach, not reach execution.
	rec, err := Produce(chip, 8, 8, 8, AutoOptions(chip))
	if err != nil {
		t.Fatal(err)
	}
	rec.Request.M, rec.Request.K = -1, -1
	if _, err := Attach(chip, rec, AutoOptions(chip)); err == nil {
		t.Error("Attach accepted a recipe with negative geometry")
	}

	// And the submit boundary itself rejects garbage geometry even if a
	// plan struct with negative extents is conjured directly.
	good, err := NewPlan(chip, 8, 8, 8, AutoOptions(chip))
	if err != nil {
		t.Fatal(err)
	}
	good.M, good.K = -1, -1
	buf := make([]float32, 64)
	if _, err := good.Submit(context.Background(), buf, buf, buf, 0, sched.QoS{}); err == nil {
		t.Error("Submit accepted m = k = -1 (m*k = 1 bypass)")
	}
}

// TestRunContextCancelledMidJob: cancelling the context from inside the
// first C-tile-group task skips the remaining groups and surfaces
// context.Canceled from the single-worker job's Wait.
func TestRunContextCancelledMidJob(t *testing.T) {
	chip := hw.KP920()
	opts := AutoOptions(chip)
	opts.MC, opts.NC, opts.KC = 16, 16, 16
	plan, err := NewPlan(chip, 48, 48, 48, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.groups) < 2 {
		t.Fatalf("want multiple C-tile groups, got %d", len(plan.groups))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired int32
	sched.SetFaultHook(func(task int) error {
		if atomic.CompareAndSwapInt32(&fired, 0, 1) {
			cancel()
		}
		return nil
	})
	defer sched.SetFaultHook(nil)
	const m, n, k = 48, 48, 48
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	refgemm.Fill(a, m, k, k, 3)
	refgemm.Fill(b, k, n, n, 4)
	fut, err := plan.Submit(ctx, c, a, b, 1, sched.QoS{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job Wait = %v, want context.Canceled", err)
	}
	sched.SetFaultHook(nil)
	// The plan (and its runtime) keep serving after the cancellation.
	if err := plan.Run(c, a, b); err != nil {
		t.Fatalf("Run after cancelled job: %v", err)
	}
}

// TestSubmitContextPreCancelledCore: an already-cancelled context stops
// the submission at the boundary with ctx.Err().
func TestSubmitContextPreCancelledCore(t *testing.T) {
	chip := hw.KP920()
	plan, err := NewPlan(chip, 8, 8, 8, AutoOptions(chip))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, a, b := make([]float32, 64), make([]float32, 64), make([]float32, 64)
	for _, workers := range []int{0, 1, 2} {
		if _, err := plan.Submit(ctx, c, a, b, workers, sched.QoS{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("Submit(workers=%d) = %v, want context.Canceled", workers, err)
		}
	}
}
