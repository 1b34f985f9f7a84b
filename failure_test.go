package autogemm

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"autogemm/internal/core"
	"autogemm/internal/refgemm"
	"autogemm/internal/sched"
)

// These tests pin the public failure semantics of the serving runtime:
// a contained panic fails exactly its own job, cancellation is prompt
// and errors.Is-able, and closure errors wrap the exported ErrClosed.
// CI runs them under -race with GOMAXPROCS 1 and 2.

// TestBatchPanicIsolation is the acceptance differential: a panic
// injected into one task of a multi-job batch fails exactly one future
// with an ErrPanicked-matching error (no hang), the other jobs complete
// bit-identical to serial, and a subsequent Submit on the same engine
// succeeds at full worker strength.
func TestBatchPanicIsolation(t *testing.T) {
	e, err := New("KP920", WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const m, n, k = 32, 40, 24
	type problem struct{ a, b, want []float32 }
	probs := make([]problem, 6)
	for i := range probs {
		p := problem{
			a:    make([]float32, m*k),
			b:    make([]float32, k*n),
			want: make([]float32, m*n),
		}
		refgemm.Fill(p.a, m, k, k, uint64(2*i+1))
		refgemm.Fill(p.b, k, n, n, uint64(2*i+2))
		if err := e.Multiply(p.want, p.a, p.b, m, n, k); err != nil {
			t.Fatalf("serial %d: %v", i, err)
		}
		probs[i] = p
	}

	// Panic exactly once, on the first task claimed after installation —
	// one job of the batch fails, whichever got that claim.
	var fired int32
	sched.SetFaultHook(func(task int) error {
		if atomic.CompareAndSwapInt32(&fired, 0, 1) {
			panic("injected batch panic")
		}
		return nil
	})
	defer sched.SetFaultHook(nil)

	futs := make([]*Future, len(probs))
	outs := make([][]float32, len(probs))
	for i, p := range probs {
		outs[i] = make([]float32, m*n)
		f, err := e.Submit(context.Background(), GEMM{M: m, N: n, K: k, A: p.a, B: p.b, C: outs[i]})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs[i] = f
	}
	panicked := -1
	for i, f := range futs {
		err := f.Wait() // must not hang: the panicked job's future still fires
		if err == nil {
			diffBits(t, "survivor", outs[i], probs[i].want)
			continue
		}
		if !errors.Is(err, ErrPanicked) {
			t.Fatalf("future %d: err = %v, want ErrPanicked", i, err)
		}
		if panicked != -1 {
			t.Fatalf("futures %d and %d both panicked; hook fired once", panicked, i)
		}
		panicked = i
		var pe *sched.PanicError
		if !errors.As(err, &pe) || pe.Value != "injected batch panic" || len(pe.Stack) == 0 {
			t.Errorf("panicked future error %v lacks panic value/stack", err)
		}
	}
	if panicked == -1 {
		t.Fatal("no future reported the injected panic")
	}

	// The engine still serves — the panicking task did not kill a pool
	// worker or leak its in-flight slot.
	sched.SetFaultHook(nil)
	c := make([]float32, m*n)
	f, err := e.Submit(context.Background(), GEMM{M: m, N: n, K: k, A: probs[0].a, B: probs[0].b, C: c})
	if err != nil {
		t.Fatalf("Submit after contained panic: %v", err)
	}
	if err := f.Wait(); err != nil {
		t.Fatalf("job after contained panic: %v", err)
	}
	diffBits(t, "post-panic", c, probs[0].want)
	if st := e.PlanCacheStats(); st.SchedTasksPanicked != 1 {
		t.Errorf("SchedTasksPanicked = %d, want 1", st.SchedTasksPanicked)
	}
}

// TestMultiplyContextCancelledMidJob: cancelling from inside the job's
// first C-tile-group task makes MultiplyContext return context.Canceled
// promptly, and the engine keeps serving.
func TestMultiplyContextCancelledMidJob(t *testing.T) {
	e, err := New("KP920", WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const m, n, k = 48, 48, 48
	opts := &Options{MC: 16, NC: 16, KC: 16} // several C-tile groups per job
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	refgemm.Fill(a, m, k, k, 5)
	refgemm.Fill(b, k, n, n, 6)

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
	g := func() GEMM {
		return GEMM{C: make([]float32, m*n), A: a, B: b, M: m, N: n, K: k, Opts: opts}
	}
	if err := e.MultiplyContext(ctx, g()); !errors.Is(err, context.Canceled) {
		t.Fatalf("MultiplyContext = %v, want context.Canceled", err)
	}
	sched.SetFaultHook(nil)
	if err := e.MultiplyContext(context.Background(), g()); err != nil {
		t.Fatalf("Multiply after cancellation: %v", err)
	}
	if st := e.PlanCacheStats(); st.SchedJobsCancelled != 1 {
		t.Errorf("SchedJobsCancelled = %d, want 1", st.SchedJobsCancelled)
	}

	// A context that is already done never reaches execution.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := e.MultiplyContext(done, g()); !errors.Is(err, context.Canceled) {
		t.Fatalf("MultiplyContext(pre-cancelled) = %v, want context.Canceled", err)
	}
}

// TestFutureWaitContext: WaitContext returns promptly with ctx.Err()
// while the job is wedged, and a plain Wait still collects the real
// result once it finishes.
func TestFutureWaitContext(t *testing.T) {
	e, err := New("KP920", WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const m, n, k = 24, 24, 24
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	want := make([]float32, m*n)
	refgemm.Fill(a, m, k, k, 7)
	refgemm.Fill(b, k, n, n, 8)
	if err := e.Multiply(want, a, b, m, n, k); err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	var blocked int32
	sched.SetFaultHook(func(task int) error {
		if atomic.CompareAndSwapInt32(&blocked, 0, 1) {
			<-release // wedge the job's first task
		}
		return nil
	})
	defer sched.SetFaultHook(nil)
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	f, err := e.Submit(context.Background(), GEMM{M: m, N: n, K: k, A: a, B: b, C: c})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := f.WaitContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitContext on wedged job = %v, want DeadlineExceeded", err)
	}
	close(release)
	if err := f.Wait(); err != nil {
		t.Fatalf("Wait after early WaitContext return: %v", err)
	}
	diffBits(t, "waitcontext", c, want)
}

// TestErrClosedWrapped: execution errors after Close match both the
// exported autogemm.ErrClosed and the underlying sched.ErrClosed, and
// carry the public API's prefix.
func TestErrClosedWrapped(t *testing.T) {
	e, err := New("Graviton2")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	buf := func(n int) []float32 { return make([]float32, n) }
	err = e.Multiply(buf(64), buf(64), buf(64), 8, 8, 8)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Multiply after Close: err = %v, want autogemm.ErrClosed", err)
	}
	if !errors.Is(err, sched.ErrClosed) {
		t.Fatalf("Multiply after Close: err = %v does not match sched.ErrClosed", err)
	}
	if !strings.HasPrefix(err.Error(), "autogemm:") {
		t.Errorf("closed error %q lacks the autogemm: prefix", err)
	}
	if _, err := e.Submit(context.Background(),
		GEMM{M: 8, N: 8, K: 8, A: buf(64), B: buf(64), C: buf(64)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
}

// TestEngineCloseWithTimeout: the bounded drain reports a wedged job
// via sched.ErrDrainTimeout instead of hanging, and completes cleanly
// once the job unsticks.
func TestEngineCloseWithTimeout(t *testing.T) {
	e, err := New("KP920", WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	const m, n, k = 16, 16, 16
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	refgemm.Fill(a, m, k, k, 9)
	refgemm.Fill(b, k, n, n, 10)

	release := make(chan struct{})
	var wedged int32
	sched.SetFaultHook(func(task int) error {
		if atomic.CompareAndSwapInt32(&wedged, 0, 1) {
			<-release
		}
		return nil
	})
	defer sched.SetFaultHook(nil)
	f, err := e.Submit(context.Background(), GEMM{M: m, N: n, K: k, A: a, B: b, C: make([]float32, m*n)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CloseWithTimeout(30 * time.Millisecond); !errors.Is(err, sched.ErrDrainTimeout) {
		t.Fatalf("CloseWithTimeout on wedged engine = %v, want ErrDrainTimeout", err)
	}
	close(release)
	if err := e.Close(); err != nil {
		t.Fatalf("Close after unsticking: %v", err)
	}
	if err := f.Wait(); err != nil {
		t.Fatalf("wedged job after drain: %v", err)
	}
}

// TestMultiplyBatchContinuesPastFailedElement pins the batch contract:
// a failing element (here an invalid shape rejected at planning) does
// not drop the tail — every other element is still submitted and
// executed, and the returned error names the failing element.
func TestMultiplyBatchContinuesPastFailedElement(t *testing.T) {
	e, err := New("KP920", WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const m, n, k = 20, 24, 16
	mk := func(i int) ([]float32, []float32, []float32) {
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		want := make([]float32, m*n)
		refgemm.Fill(a, m, k, k, uint64(3*i+1))
		refgemm.Fill(b, k, n, n, uint64(3*i+2))
		refgemm.GEMM(m, n, k, a, k, b, n, want, n)
		return a, b, want
	}
	a0, b0, want0 := mk(0)
	a2, b2, want2 := mk(2)
	batch := []GEMM{
		{M: m, N: n, K: k, A: a0, B: b0, C: make([]float32, m*n)},
		{M: -1, N: -1, K: -1}, // rejected at the plan boundary
		{M: m, N: n, K: k, A: a2, B: b2, C: make([]float32, m*n)},
	}
	err = e.MultiplyBatch(batch)
	if err == nil {
		t.Fatal("MultiplyBatch accepted an invalid element")
	}
	if !strings.Contains(err.Error(), "batch element 1") {
		t.Errorf("batch error %q does not name the failing element", err)
	}
	// The elements after the failure still executed.
	for _, chk := range []struct {
		c, want []float32
		label   string
	}{{batch[0].C, want0, "element 0"}, {batch[2].C, want2, "element 2 (after the failure)"}} {
		if refgemm.MaxRelErr(chk.c, chk.want, m, n, n, n) > refgemm.Tolerance {
			t.Errorf("%s did not execute correctly past the failed element", chk.label)
		}
	}
}

// TestOverlappingCRefused: Multiply and MultiplyBatch refuse a C that
// shares memory with A or B with an error matching core.ErrOverlap,
// before any work, on sub-slices of one backing array; a batch still
// runs its other elements. A and B may overlap each other.
func TestOverlappingCRefused(t *testing.T) {
	e, err := New("KP920", WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const m, n, k = 12, 16, 9
	buf := make([]float32, 2*(m*k+k*n+m*n))
	refgemm.Fill(buf, 1, len(buf), len(buf), 9)
	a, b := buf[:m*k], buf[m*k:m*k+k*n]
	for _, c := range [][]float32{
		buf[m*k-1 : m*k-1+m*n],         // C's first element is A's last
		buf[m*k+k*n-1 : m*k+k*n-1+m*n], // C's first element is B's last
	} {
		before := append([]float32(nil), buf...)
		if err := e.Multiply(c, a, b, m, n, k); !errors.Is(err, core.ErrOverlap) {
			t.Fatalf("Multiply: %v, want core.ErrOverlap", err)
		}
		if !bitsEqual(buf, before) {
			t.Fatal("refused Multiply wrote its operands")
		}

		// The second element's B overlaps its A by five elements.
		b2 := buf[m*k-5 : m*k-5+k*n]
		free := make([]float32, m*n)
		want := make([]float32, m*n)
		refgemm.GEMM(m, n, k, a, k, b2, n, want, n)
		err := e.MultiplyBatch([]GEMM{
			{M: m, N: n, K: k, A: a, B: b, C: c},
			{M: m, N: n, K: k, A: a, B: b2, C: free},
		})
		if !errors.Is(err, core.ErrOverlap) || !strings.Contains(err.Error(), "batch element 0") {
			t.Fatalf("MultiplyBatch: %v, want element 0's core.ErrOverlap", err)
		}
		if !bitsEqual(buf, before) {
			t.Fatal("refused batch element wrote its operands")
		}
		if e := refgemm.MaxRelErr(free, want, m, n, n, n); e > refgemm.Tolerance {
			t.Errorf("batch element with overlapping A and B: max rel err %.3g", e)
		}
	}
}
