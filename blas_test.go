package autogemm

import (
	"context"
	"testing"

	"autogemm/internal/refgemm"
)

// TestSGEMMPublic: the BLAS-style entry point with transposes and
// scaling agrees with the reference.
func TestSGEMMPublic(t *testing.T) {
	e, err := New("KP920")
	if err != nil {
		t.Fatal(err)
	}
	const m, n, k = 14, 22, 10
	// A stored k×m (transA), B stored n×k (transB).
	a := make([]float32, k*m)
	b := make([]float32, n*k)
	c := make([]float32, m*n)
	refgemm.Fill(a, k, m, m, 21)
	refgemm.Fill(b, n, k, k, 22)
	refgemm.Fill(c, m, n, n, 23)

	alpha, beta := float32(0.5), float32(-1)
	want := make([]float32, m*n)
	for i := 0; i < m*n; i++ {
		want[i] = beta * c[i]
	}
	for i := 0; i < m; i++ {
		for l := 0; l < k; l++ {
			av := alpha * a[l*m+i]
			for j := 0; j < n; j++ {
				want[i*n+j] += av * b[j*k+l]
			}
		}
	}
	if err := e.SGEMM(true, true, m, n, k, alpha, a, b, beta, c); err != nil {
		t.Fatal(err)
	}
	if got := refgemm.MaxRelErr(c, want, m, n, n, n); got > refgemm.Tolerance {
		t.Errorf("SGEMM max rel err %.3g", got)
	}
}

// TestMultiplyBatch: a heterogeneous batch completes through one
// barrier, every element matches the reference, and equally-shaped
// elements share one cached plan.
func TestMultiplyBatch(t *testing.T) {
	e, err := New("Graviton2")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	shapes := [][3]int{{9, 12, 7}, {9, 12, 7}, {9, 12, 7}, {16, 8, 24}, {5, 33, 11}}
	batch := make([]GEMM, len(shapes))
	want := make([][]float32, len(shapes))
	for i, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		g := GEMM{M: m, N: n, K: k,
			A: make([]float32, m*k), B: make([]float32, k*n), C: make([]float32, m*n)}
		refgemm.Fill(g.A, m, k, k, uint64(40+i))
		refgemm.Fill(g.B, k, n, n, uint64(50+i))
		want[i] = make([]float32, m*n)
		refgemm.GEMM(m, n, k, g.A, k, g.B, n, want[i], n)
		batch[i] = g
	}
	if err := e.MultiplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	for i, s := range shapes {
		m, n := s[0], s[1]
		if got := refgemm.MaxRelErr(batch[i].C, want[i], m, n, n, n); got > refgemm.Tolerance {
			t.Errorf("batch element %d: max rel err %.3g", i, got)
		}
	}
	if e.CachedPlans() != 3 {
		t.Errorf("CachedPlans = %d, want 3 (one per distinct shape)", e.CachedPlans())
	}
	bad := []GEMM{{M: 8, N: 8, K: 8, A: make([]float32, 4), B: make([]float32, 64), C: make([]float32, 64)}}
	if err := e.MultiplyBatch(bad); err == nil {
		t.Error("undersized batch element accepted")
	}
}

// TestSubmitAsyncPublic: Submit returns a future that completes with
// the right numbers, and the scheduler counters surface through
// PlanCacheStats.
func TestSubmitAsyncPublic(t *testing.T) {
	e, err := New("KP920")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const m, n, k = 14, 18, 9
	g := GEMM{M: m, N: n, K: k,
		A: make([]float32, m*k), B: make([]float32, k*n), C: make([]float32, m*n)}
	refgemm.Fill(g.A, m, k, k, 81)
	refgemm.Fill(g.B, k, n, n, 82)
	want := make([]float32, m*n)
	refgemm.GEMM(m, n, k, g.A, k, g.B, n, want, n)

	fut, err := e.Submit(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := refgemm.MaxRelErr(g.C, want, m, n, n, n); got > refgemm.Tolerance {
		t.Errorf("async result max rel err %.3g", got)
	}
	st := e.PlanCacheStats()
	if st.SchedJobsSubmitted < 1 || st.SchedJobsCompleted < 1 {
		t.Errorf("scheduler counters %+v, want at least one job submitted and completed", st)
	}
	if st.SchedWorkers < 1 {
		t.Errorf("SchedWorkers = %d, want >= 1", st.SchedWorkers)
	}
}

// TestPlanCacheAcrossCalls: repeated Multiply calls share a plan;
// distinct shapes or options add entries.
func TestPlanCacheAcrossCalls(t *testing.T) {
	e, _ := New("M2")
	buf := func(n int) []float32 { return make([]float32, n) }
	if err := e.SGEMM(false, false, 8, 8, 8, 1, buf(64), buf(64), 1, buf(64)); err != nil {
		t.Fatal(err)
	}
	if err := e.SGEMM(false, false, 8, 8, 8, 1, buf(64), buf(64), 1, buf(64)); err != nil {
		t.Fatal(err)
	}
	if e.CachedPlans() != 1 {
		t.Errorf("CachedPlans = %d after repeated same-shape calls", e.CachedPlans())
	}
	if err := e.SGEMM(false, false, 12, 8, 8, 1, buf(96), buf(64), 1, buf(96)); err != nil {
		t.Fatal(err)
	}
	if e.CachedPlans() != 2 {
		t.Errorf("CachedPlans = %d after a second shape", e.CachedPlans())
	}
}

// TestConcurrentEngineUse: many goroutines hammer one engine on the same
// shape; results stay correct (run with -race in CI).
func TestConcurrentEngineUse(t *testing.T) {
	e, _ := New("KP920")
	const m, n, k = 16, 20, 12
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed uint64) {
			a := make([]float32, m*k)
			b := make([]float32, k*n)
			c := make([]float32, m*n)
			refgemm.Fill(a, m, k, k, seed)
			refgemm.Fill(b, k, n, n, seed+1)
			want := make([]float32, m*n)
			refgemm.GEMM(m, n, k, a, k, b, n, want, n)
			if err := e.Multiply(c, a, b, m, n, k); err != nil {
				done <- err
				return
			}
			if refgemm.MaxRelErr(c, want, m, n, n, n) > refgemm.Tolerance {
				done <- errMismatch
				return
			}
			done <- nil
		}(uint64(g) * 7)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent result mismatch" }
