package autogemm

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"autogemm/internal/refgemm"
	"autogemm/internal/workload"
)

// These tests pin the error contract a serving front door depends on:
// sentinel identities must survive batch-element wrapping, and
// HTTPStatus must map every wrapped form exactly as the bare sentinel.

// TestHTTPStatusMapping: the canonical error → status table, bare and
// wrapped (the batch element tag is the wrapping every serving path
// sees).
func TestHTTPStatusMapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, http.StatusOK},
		{"admission", ErrAdmission, http.StatusTooManyRequests},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"canceled", context.Canceled, StatusClientClosedRequest},
		{"badplan", ErrBadPlan, http.StatusUnprocessableEntity},
		{"closed", ErrClosed, http.StatusServiceUnavailable},
		{"other", errors.New("boom"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := HTTPStatus(tc.err); got != tc.want {
			t.Errorf("HTTPStatus(%s) = %d, want %d", tc.name, got, tc.want)
		}
		if tc.err == nil {
			continue
		}
		wrapped := fmt.Errorf("autogemm: batch element 3: %w", tc.err)
		if got := HTTPStatus(wrapped); got != tc.want {
			t.Errorf("HTTPStatus(wrapped %s) = %d, want %d", tc.name, got, tc.want)
		}
	}
	if !Retryable(ErrAdmission) || !Retryable(fmt.Errorf("x: %w", ErrAdmission)) {
		t.Error("admission sheds must be retryable")
	}
	if Retryable(context.DeadlineExceeded) || Retryable(ErrBadPlan) || Retryable(nil) {
		t.Error("non-shed errors must not be retryable")
	}
}

// TestBatchAdmissionIdentitySurvivesWrapping: a batch whose element is
// shed at admission returns an error that still matches ErrAdmission
// (and maps to 429) through the element-index wrapping.
func TestBatchAdmissionIdentitySurvivesWrapping(t *testing.T) {
	e, err := New("KP920", WithWorkers(1), WithClass("tight", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	big := workload.ResNet50()[0]
	ba := make([]float32, big.M*big.K)
	bb := make([]float32, big.K*big.N)
	refgemm.Fill(ba, big.M, big.K, big.K, 1)
	refgemm.Fill(bb, big.K, big.N, big.N, 2)
	blocker, err := e.Submit(context.Background(), GEMM{M: big.M, N: big.N, K: big.K, A: ba, B: bb,
		C: make([]float32, big.M*big.N)})
	if err != nil {
		t.Fatal(err)
	}

	s := workload.Shape{M: 32, N: 32, K: 32}
	a := make([]float32, s.M*s.K)
	b := make([]float32, s.K*s.N)
	refgemm.Fill(a, s.M, s.K, s.K, 3)
	refgemm.Fill(b, s.K, s.N, s.N, 4)
	g := func() GEMM {
		return GEMM{M: s.M, N: s.N, K: s.K, A: a, B: b, C: make([]float32, s.M*s.N)}
	}

	// Two tight-class elements behind the parked worker: the first
	// occupies the depth-1 bound, the second sheds — and the batch error
	// must carry the admission identity through the index tag.
	tight := g()
	tight.QoS.Class = "tight"
	err = e.MultiplyBatch([]GEMM{tight, tight})
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("batch shed error = %v, want ErrAdmission identity", err)
	}
	if got := HTTPStatus(err); got != http.StatusTooManyRequests {
		t.Fatalf("batch shed error maps to %d, want 429", got)
	}
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchDeadlineIdentitySurvivesWrapping: elements whose QoS
// deadline expires while queued fail with context.DeadlineExceeded,
// and the identity survives the batch wrapping (mapping to 504).
func TestBatchDeadlineIdentitySurvivesWrapping(t *testing.T) {
	e, err := New("KP920", WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Park the only worker behind sixteen big jobs, so the queue ahead
	// of the batch lasts well past its 50 ms deadline however fast one
	// of them runs: at 25 GFLOP/s on one worker each takes about 10 ms.
	big := workload.ResNet50()[0]
	ba := make([]float32, big.M*big.K)
	bb := make([]float32, big.K*big.N)
	refgemm.Fill(ba, big.M, big.K, big.K, 5)
	refgemm.Fill(bb, big.K, big.N, big.N, 6)
	var blockers []*Future
	for i := 0; i < 16; i++ {
		blocker, err := e.Submit(context.Background(), GEMM{M: big.M, N: big.N, K: big.K, A: ba, B: bb,
			C: make([]float32, big.M*big.N)})
		if err != nil {
			t.Fatal(err)
		}
		blockers = append(blockers, blocker)
	}

	s := workload.Shape{M: 32, N: 32, K: 32}
	a := make([]float32, s.M*s.K)
	b := make([]float32, s.K*s.N)
	refgemm.Fill(a, s.M, s.K, s.K, 7)
	refgemm.Fill(b, s.K, s.N, s.N, 8)
	batch := []GEMM{{M: s.M, N: s.N, K: s.K, A: a, B: b, C: make([]float32, s.M*s.N),
		QoS: QoS{Deadline: time.Now().Add(50 * time.Millisecond)}}}
	err = e.MultiplyBatch(batch)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batch deadline error = %v, want DeadlineExceeded identity", err)
	}
	if errors.Is(err, ErrAdmission) {
		t.Fatalf("batch element refused at submit (%v), want it to expire while queued", err)
	}
	if got := HTTPStatus(err); got != http.StatusGatewayTimeout {
		t.Fatalf("batch deadline error maps to %d, want 504", got)
	}
	for _, blocker := range blockers {
		if err := blocker.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchCtxShortCircuit: a cancelled context stops the submission
// loop before any planning or enqueueing — the scheduler sees no new
// jobs — and the returned error carries the context identity.
func TestBatchCtxShortCircuit(t *testing.T) {
	e, err := New("KP920", WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	s := workload.Shape{M: 32, N: 32, K: 32}
	a := make([]float32, s.M*s.K)
	b := make([]float32, s.K*s.N)
	refgemm.Fill(a, s.M, s.K, s.K, 9)
	refgemm.Fill(b, s.K, s.N, s.N, 10)
	batch := make([]GEMM, 4)
	for i := range batch {
		batch[i] = GEMM{M: s.M, N: s.N, K: s.K, A: a, B: b, C: make([]float32, s.M*s.N)}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := e.PlanCacheStats().SchedJobsSubmitted
	err = e.MultiplyBatchContext(ctx, batch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch error = %v, want Canceled identity", err)
	}
	if got := HTTPStatus(err); got != StatusClientClosedRequest {
		t.Fatalf("cancelled batch error maps to %d, want %d", got, StatusClientClosedRequest)
	}
	if after := e.PlanCacheStats().SchedJobsSubmitted; after != before {
		t.Fatalf("short-circuited batch still submitted %d jobs", after-before)
	}
}

// TestClassStatsLookup: the single-class snapshot answers without the
// class list, tracks ConfigureClass, and reports absence.
func TestClassStatsLookup(t *testing.T) {
	e, err := New("KP920", WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if _, ok := e.ClassStats("ghost"); ok {
		t.Fatal("never-created class reported present")
	}
	e.ConfigureClass("tenant", 5, 7)
	cs, ok := e.ClassStats("tenant")
	if !ok || cs.Weight != 5 || cs.Depth != 7 {
		t.Fatalf("ClassStats(tenant) = %+v ok=%v, want weight=5 depth=7", cs, ok)
	}
	// Weight-only retune through the engine: depth preserved.
	e.ConfigureClass("tenant", 6, 0)
	if cs, _ = e.ClassStats("tenant"); cs.Weight != 6 || cs.Depth != 7 {
		t.Fatalf("after weight-only retune: %+v, want weight=6 depth=7", cs)
	}
}
