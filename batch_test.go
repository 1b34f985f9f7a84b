package autogemm

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"autogemm/internal/refgemm"
	"autogemm/internal/sched"
	"autogemm/internal/workload"
)

// TestBatchAsyncBitIdenticalToSerial is the determinism differential:
// for every ResNet-50 shape, MultiplyBatch and Submit on a multi-worker
// engine produce exactly the bits of a serial Multiply. The contract
// holds because a C tile's k chunks always accumulate in ascending
// order inside one scheduler task, whatever worker claims it.
func TestBatchAsyncBitIdenticalToSerial(t *testing.T) {
	shapes := workload.ResNet50()
	if testing.Short() {
		shapes = shapes[15:] // L16..L20 (N=49 column) — the fast tail
	}
	e, err := New("KP920", WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	type problem struct {
		s          workload.Shape
		a, b, want []float32
	}
	probs := make([]problem, len(shapes))
	for i, s := range shapes {
		p := problem{s: s,
			a:    make([]float32, s.M*s.K),
			b:    make([]float32, s.K*s.N),
			want: make([]float32, s.M*s.N)}
		refgemm.Fill(p.a, s.M, s.K, s.K, uint64(2*i+1))
		refgemm.Fill(p.b, s.K, s.N, s.N, uint64(2*i+2))
		if err := e.Multiply(p.want, p.a, p.b, s.M, s.N, s.K); err != nil {
			t.Fatalf("%s serial: %v", s.Name, err)
		}
		probs[i] = p
	}

	// Batch path: every shape in flight at once behind one barrier.
	batch := make([]GEMM, len(probs))
	for i, p := range probs {
		batch[i] = GEMM{M: p.s.M, N: p.s.N, K: p.s.K,
			A: p.a, B: p.b, C: make([]float32, p.s.M*p.s.N)}
	}
	if err := e.MultiplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	for i, p := range probs {
		diffBits(t, p.s.Name+" batch", batch[i].C, p.want)
	}

	// Async path: individual futures, waited out of submission order.
	futs := make([]*Future, len(probs))
	outs := make([][]float32, len(probs))
	for i, p := range probs {
		outs[i] = make([]float32, p.s.M*p.s.N)
		f, err := e.Submit(context.Background(), GEMM{M: p.s.M, N: p.s.N, K: p.s.K, A: p.a, B: p.b, C: outs[i]})
		if err != nil {
			t.Fatalf("%s submit: %v", p.s.Name, err)
		}
		futs[i] = f
	}
	for i := len(futs) - 1; i >= 0; i-- {
		if err := futs[i].Wait(); err != nil {
			t.Fatalf("%s wait: %v", probs[i].s.Name, err)
		}
		diffBits(t, probs[i].s.Name+" async", outs[i], probs[i].want)
	}
}

func diffBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: C[%d] = %g, serial %g (bits differ)", label, i, got[i], want[i])
		}
	}
}

// TestEngineClose: after Close, execution entry points fail cleanly
// with sched.ErrClosed while planning APIs keep working; Close is
// idempotent.
func TestEngineClose(t *testing.T) {
	e, err := New("Graviton2")
	if err != nil {
		t.Fatal(err)
	}
	buf := func(n int) []float32 { return make([]float32, n) }
	if err := e.Multiply(buf(64), buf(64), buf(64), 8, 8, 8); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := e.Multiply(buf(64), buf(64), buf(64), 8, 8, 8); !errors.Is(err, sched.ErrClosed) {
		t.Fatalf("Multiply after Close: err = %v, want sched.ErrClosed", err)
	}
	if _, err := e.Submit(context.Background(), GEMM{M: 8, N: 8, K: 8, A: buf(64), B: buf(64), C: buf(64)}); !errors.Is(err, sched.ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want sched.ErrClosed", err)
	}
	if err := e.MultiplyBatch([]GEMM{{M: 8, N: 8, K: 8, A: buf(64), B: buf(64), C: buf(64)}}); !errors.Is(err, sched.ErrClosed) {
		t.Fatalf("MultiplyBatch after Close: err = %v, want sched.ErrClosed", err)
	}
	// Planning still works on a closed engine — only execution is gone.
	if _, err := e.PlanFor(nil, 12, 12, 12); err != nil {
		t.Fatalf("PlanFor after Close: %v", err)
	}
}

// TestEngineWorkerQueueOptions: WithWorkers and WithQueueDepth shape
// the pool — the stats report the configured worker count and the
// in-flight high-water mark never exceeds the depth (backpressure).
func TestEngineWorkerQueueOptions(t *testing.T) {
	e, err := New("KP920", WithWorkers(2), WithQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const m, n, k = 24, 24, 24
	// Plan the shape first: a cold miss adds its planning helper job,
	// and the subject here is the eight execution jobs.
	if _, err := e.PlanFor(nil, m, n, k); err != nil {
		t.Fatal(err)
	}
	before := e.PlanCacheStats()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			a := make([]float32, m*k)
			b := make([]float32, k*n)
			refgemm.Fill(a, m, k, k, seed)
			refgemm.Fill(b, k, n, n, seed+1)
			f, err := e.Submit(context.Background(), GEMM{M: m, N: n, K: k, A: a, B: b, C: make([]float32, m*n)})
			if err != nil {
				t.Error(err)
				return
			}
			if err := f.Wait(); err != nil {
				t.Error(err)
			}
		}(uint64(g * 3))
	}
	wg.Wait()
	st := e.PlanCacheStats()
	if st.SchedWorkers != 2 {
		t.Errorf("SchedWorkers = %d, want 2", st.SchedWorkers)
	}
	if st.SchedQueueHighWater > 1 {
		t.Errorf("SchedQueueHighWater = %d, want <= queue depth 1", st.SchedQueueHighWater)
	}
	if sub, done := st.SchedJobsSubmitted-before.SchedJobsSubmitted, st.SchedJobsCompleted-before.SchedJobsCompleted; sub != 8 || done != 8 {
		t.Errorf("jobs submitted/completed = %d/%d, want 8/8", sub, done)
	}
}

// TestEngineMixedConcurrentUse drives one shared engine from many
// goroutines mixing the three execution surfaces — Multiply,
// MultiplyBatch, Submit — with numeric verification. CI runs this under
// -race: it is the aliasing test for the scheduler's shared state
// (claim cursors, worker-owned scratch, plan cache).
func TestEngineMixedConcurrentUse(t *testing.T) {
	e, err := New("KP920", WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const m, n, k = 20, 26, 14
	check := func(seed uint64) ([]float32, []float32, []float32) {
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		refgemm.Fill(a, m, k, k, seed)
		refgemm.Fill(b, k, n, n, seed+1)
		want := make([]float32, m*n)
		refgemm.GEMM(m, n, k, a, k, b, n, want, n)
		return a, b, want
	}
	var wg sync.WaitGroup
	for g := 0; g < 9; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seed := uint64(g * 11)
			a, b, want := check(seed)
			c := make([]float32, m*n)
			var err error
			switch g % 3 {
			case 0:
				err = e.Multiply(c, a, b, m, n, k)
			case 1:
				err = e.MultiplyBatch([]GEMM{{M: m, N: n, K: k, A: a, B: b, C: c}})
			case 2:
				var f *Future
				if f, err = e.Submit(context.Background(), GEMM{M: m, N: n, K: k, A: a, B: b, C: c}); err == nil {
					err = f.Wait()
				}
			}
			if err != nil {
				t.Error(err)
				return
			}
			if refgemm.MaxRelErr(c, want, m, n, n, n) > refgemm.Tolerance {
				t.Errorf("goroutine %d: result mismatch", g)
			}
		}(g)
	}
	wg.Wait()
}
