package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"autogemm"
	"autogemm/internal/refgemm"
	"autogemm/internal/workload"
)

// The serving e2e suite: every test stands up a real engine behind the
// real handler on a real listener and drives it through the typed
// client, so what is proven is the full trip — JSON, tenant
// resolution, QoS plumbing, error mapping, NDJSON streaming — not
// handler internals.

func newTestStack(t *testing.T, workers int, cfgMut func(*Config)) (*autogemm.Engine, *httptest.Server) {
	t.Helper()
	eng, err := autogemm.New("KP920", autogemm.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	cfg := Config{
		Engine: eng,
		Tenants: map[string]TenantConfig{
			"interactive": {Class: "latency", Weight: 16},
			"analytics":   {Class: "batch", Weight: 1, Depth: 1},
		},
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return eng, hs
}

func testOperands(t *testing.T, s workload.Shape, seed uint64) (a, b []float32) {
	t.Helper()
	a = make([]float32, s.M*s.K)
	b = make([]float32, s.K*s.N)
	refgemm.Fill(a, s.M, s.K, s.K, seed)
	refgemm.Fill(b, s.K, s.N, s.N, seed+1)
	return a, b
}

func bitsEqual(x, y []float32) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// TestServeMultiplyRoundTrip: a served multiply returns exactly the
// bits a direct engine Multiply produces.
func TestServeMultiplyRoundTrip(t *testing.T) {
	eng, hs := newTestStack(t, 2, nil)
	s := workload.Shape{Name: "t", M: 48, N: 56, K: 40}
	a, b := testOperands(t, s, 7)
	want := make([]float32, s.M*s.N)
	if err := eng.Multiply(want, a, b, s.M, s.N, s.K); err != nil {
		t.Fatal(err)
	}
	cl := &Client{Base: hs.URL, Tenant: "interactive"}
	got, err := cl.Multiply(context.Background(), s.M, s.N, s.K, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(want, got) {
		t.Fatal("served result differs from direct Multiply bits")
	}
}

// TestServeShedRoundTrip: a depth-bounded tenant at its bound answers
// 429 with Retry-After, and the client reconstructs an error matching
// autogemm.ErrAdmission — the sentinel identity surviving the HTTP
// boundary.
func TestServeShedRoundTrip(t *testing.T) {
	eng, hs := newTestStack(t, 1, nil)

	// Park the only worker on a big default-class job, then occupy the
	// depth-1 batch class with a queued job submitted directly.
	big := workload.ResNet50()[0]
	ba, bb := testOperands(t, big, 11)
	blocker, err := eng.Submit(context.Background(), autogemm.GEMM{M: big.M, N: big.N, K: big.K, A: ba, B: bb,
		C: make([]float32, big.M*big.N)})
	if err != nil {
		t.Fatal(err)
	}
	s := workload.Shape{M: 32, N: 32, K: 32}
	sa, sb := testOperands(t, s, 13)
	occupant, err := eng.Submit(context.Background(), autogemm.GEMM{M: s.M, N: s.N, K: s.K, A: sa, B: sb,
		C: make([]float32, s.M*s.N), QoS: autogemm.QoS{Class: "batch"}})
	if err != nil {
		t.Fatal(err)
	}

	// The served submission must shed: typed-client identity first.
	cl := &Client{Base: hs.URL, Tenant: "analytics"}
	_, err = cl.Multiply(context.Background(), s.M, s.N, s.K, sa, sb, 0)
	if !errors.Is(err, autogemm.ErrAdmission) {
		t.Fatalf("served shed: got %v, want ErrAdmission identity", err)
	}

	// Raw response second: 429 + Retry-After on the wire.
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/multiply",
		strings.NewReader(`{"m":4,"n":4,"k":4,"a":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"b":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}`))
	req.Header.Set(TenantHeader, "analytics")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("raw shed status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}

	// A weight-only retune over the control plane must keep the depth
	// bound: the class still sheds afterwards.
	cs, err := (&Client{Base: hs.URL}).ConfigureClass(context.Background(), "batch", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Weight != 8 || cs.Depth != 1 {
		t.Fatalf("weight-only retune: got weight=%d depth=%d, want weight=8 depth=1", cs.Weight, cs.Depth)
	}
	if _, err := cl.Multiply(context.Background(), s.M, s.N, s.K, sa, sb, 0); !errors.Is(err, autogemm.ErrAdmission) {
		t.Fatalf("shed after weight-only retune: got %v, want ErrAdmission identity", err)
	}

	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := occupant.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestServeDeadlineMissRoundTrip: a request whose deadline expires
// while queued behind the only worker answers 504, and the client
// reconstructs context.DeadlineExceeded.
func TestServeDeadlineMissRoundTrip(t *testing.T) {
	eng, hs := newTestStack(t, 1, nil)
	big := workload.ResNet50()[0]
	ba, bb := testOperands(t, big, 17)
	blocker, err := eng.Submit(context.Background(), autogemm.GEMM{M: big.M, N: big.N, K: big.K, A: ba, B: bb,
		C: make([]float32, big.M*big.N)})
	if err != nil {
		t.Fatal(err)
	}
	s := workload.Shape{M: 32, N: 32, K: 32}
	sa, sb := testOperands(t, s, 19)
	cl := &Client{Base: hs.URL, Tenant: "interactive"}
	_, err = cl.Multiply(context.Background(), s.M, s.N, s.K, sa, sb, 50)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("served deadline miss: got %v, want DeadlineExceeded identity", err)
	}
	if got := autogemm.HTTPStatus(err); got != http.StatusGatewayTimeout {
		t.Fatalf("reconstructed error maps to %d, want 504", got)
	}
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestServeBatchStream: NDJSON batch returns one line per element —
// bad geometry refused inline with a 400 status, good elements
// bit-identical to a direct Multiply.
func TestServeBatchStream(t *testing.T) {
	eng, hs := newTestStack(t, 2, nil)
	s := workload.Shape{M: 40, N: 44, K: 36}
	a, b := testOperands(t, s, 23)
	want := make([]float32, s.M*s.N)
	if err := eng.Multiply(want, a, b, s.M, s.N, s.K); err != nil {
		t.Fatal(err)
	}

	elems := []GEMMRequest{
		{M: s.M, N: s.N, K: s.K, A: a, B: b},
		{M: 0, N: 4, K: 4, A: a, B: b}, // bad geometry: refused inline
		{M: s.M, N: s.N, K: s.K, A: a, B: b},
	}
	cl := &Client{Base: hs.URL, Tenant: "interactive"}
	lines, err := cl.Batch(context.Background(), elems)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		if err := lines[i].Err(); err != nil {
			t.Fatalf("element %d: %v", i, err)
		}
		if !bitsEqual(want, lines[i].C) {
			t.Fatalf("element %d differs from direct Multiply bits", i)
		}
	}
	if lines[1].Error == "" || lines[1].Status != http.StatusBadRequest {
		t.Fatalf("bad-geometry element line = %+v, want inline 400", lines[1])
	}
}

// TestServeClassesRetune: the runtime control plane applies a
// weight-only retune without dropping the depth bound — the
// ConfigureClass keep-on-zero contract over HTTP — and a negative
// depth clears it.
func TestServeClassesRetune(t *testing.T) {
	_, hs := newTestStack(t, 2, nil)
	cl := &Client{Base: hs.URL}

	cs, err := cl.ConfigureClass(context.Background(), "batch", 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Weight != 9 || cs.Depth != 1 {
		t.Fatalf("weight-only retune: got weight=%d depth=%d, want weight=9 depth=1 (depth preserved)", cs.Weight, cs.Depth)
	}
	cs, err = cl.ConfigureClass(context.Background(), "batch", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Weight != 9 || cs.Depth != 0 {
		t.Fatalf("negative-depth clear: got weight=%d depth=%d, want weight=9 depth=0", cs.Weight, cs.Depth)
	}

	all, err := cl.Classes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range all {
		if c.Class == "batch" {
			found = true
		}
	}
	if !found {
		t.Fatal("GET /v1/classes missing the batch class")
	}
}

// TestServeMetrics: /metrics exposes the class counters (including a
// real shed), the per-worker accounting and the server's own response
// tally in Prometheus text format.
func TestServeMetrics(t *testing.T) {
	eng, hs := newTestStack(t, 1, nil)

	// Produce one shed exactly as TestServeShedRoundTrip does.
	big := workload.ResNet50()[0]
	ba, bb := testOperands(t, big, 29)
	blocker, err := eng.Submit(context.Background(), autogemm.GEMM{M: big.M, N: big.N, K: big.K, A: ba, B: bb,
		C: make([]float32, big.M*big.N)})
	if err != nil {
		t.Fatal(err)
	}
	s := workload.Shape{M: 32, N: 32, K: 32}
	sa, sb := testOperands(t, s, 31)
	occupant, err := eng.Submit(context.Background(), autogemm.GEMM{M: s.M, N: s.N, K: s.K, A: sa, B: sb,
		C: make([]float32, s.M*s.N), QoS: autogemm.QoS{Class: "batch"}})
	if err != nil {
		t.Fatal(err)
	}
	cl := &Client{Base: hs.URL, Tenant: "analytics"}
	if _, err := cl.Multiply(context.Background(), s.M, s.N, s.K, sa, sb, 0); !errors.Is(err, autogemm.ErrAdmission) {
		t.Fatalf("setup shed: got %v", err)
	}
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := occupant.Wait(); err != nil {
		t.Fatal(err)
	}

	text, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`autogemm_class_rejected_total{class="batch"} 1`,
		`autogemm_class_depth{class="batch"} 1`,
		`autogemm_class_submitted_total{class="latency"}`,
		`autogemm_worker_tasks_total{worker="0"}`,
		`autogemm_http_responses_total{code="429"} 1`,
		"# TYPE autogemm_sched_jobs_submitted_total counter",
		"autogemm_plan_cache_built_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /debug/vars serves the same snapshot as JSON.
	resp, err := http.Get(hs.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", resp.StatusCode)
	}
}

// TestServeTenantResolution: RequireTenant turns missing/unknown
// tenants into 401, and a bearer token resolves to its tenant.
func TestServeTenantResolution(t *testing.T) {
	_, hs := newTestStack(t, 1, func(cfg *Config) {
		cfg.RequireTenant = true
		cfg.Tokens = map[string]string{"s3cret": "interactive"}
	})
	s := workload.Shape{M: 16, N: 16, K: 16}
	sa, sb := testOperands(t, s, 37)

	// No tenant at all: refused.
	cl := &Client{Base: hs.URL}
	_, err := cl.Multiply(context.Background(), s.M, s.N, s.K, sa, sb, 0)
	if err == nil || !strings.Contains(err.Error(), "401") && !strings.Contains(err.Error(), "tenant") {
		t.Fatalf("tenantless request: got %v, want 401 refusal", err)
	}

	// Unknown tenant: refused.
	cl = &Client{Base: hs.URL, Tenant: "nobody"}
	if _, err := cl.Multiply(context.Background(), s.M, s.N, s.K, sa, sb, 0); err == nil {
		t.Fatal("unknown tenant accepted")
	}

	// Bearer token: resolved to "interactive" and served.
	body := strings.NewReader(`{"m":16,"n":16,"k":16,"a":[` + zeros(16*16) + `],"b":[` + zeros(16*16) + `]}`)
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/multiply", body)
	req.Header.Set("Authorization", "Bearer s3cret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("token-authenticated request status = %d, want 200", resp.StatusCode)
	}
}

func zeros(n int) string {
	return strings.TrimSuffix(strings.Repeat("0,", n), ",")
}

// TestServeNonFiniteResult: a result that overflows to +Inf cannot be
// sent as JSON. /v1/multiply answers 422 with an ErrorResponse, a batch
// element gets a 422 line while its neighbours are served, and the
// server's tally holds exactly the statuses sent.
func TestServeNonFiniteResult(t *testing.T) {
	eng, err := autogemm.New("KP920", autogemm.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	const n = 4
	huge := make([]float32, n*n) // 3e38·3e38 overflows float32 to +Inf
	for i := range huge {
		huge[i] = 3e38
	}
	body, err := json.Marshal(GEMMRequest{M: n, N: n, K: n, A: huge, B: huge})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/multiply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var mr MultiplyResponse
		err := json.NewDecoder(resp.Body).Decode(&mr)
		t.Fatalf("overflowing multiply answered 200 (body decode: %v)", err)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("status %d body does not decode: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || er.Status != resp.StatusCode ||
		!strings.Contains(er.Error, "not finite") {
		t.Fatalf("overflowing multiply: status %d, body %+v; want 422 naming the non-finite result", resp.StatusCode, er)
	}

	ones := make([]float32, n*n)
	for i := range ones {
		ones[i] = 1
	}
	cl := &Client{Base: hs.URL}
	lines, err := cl.Batch(context.Background(), []GEMMRequest{
		{M: n, N: n, K: n, A: ones, B: ones},
		{M: n, N: n, K: n, A: huge, B: huge},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := lines[0].Err(); err != nil || len(lines[0].C) != n*n || lines[0].C[0] != n {
		t.Fatalf("finite element line = %+v, want C filled with %d", lines[0], n)
	}
	if lines[1].Status != http.StatusUnprocessableEntity || !strings.Contains(lines[1].Error, "not finite") {
		t.Fatalf("overflowing element line = %+v, want a 422 line naming the non-finite result", lines[1])
	}

	srv.mu.Lock()
	defer srv.mu.Unlock()
	want := map[int]int64{http.StatusUnprocessableEntity: 1, http.StatusOK: 1} // the multiply, the batch stream
	if !maps.Equal(srv.responses, want) {
		t.Fatalf("tallied %v, want %v", srv.responses, want)
	}
}

// TestServeMixedTenantsUncorrupted: interactive multiplies and analytics
// NDJSON batches race through one server on two workers; every 200 and
// every successful batch line carries exactly the bits of a serial
// Multiply, and the only element error allowed is the depth-bounded
// class shedding (429).
func TestServeMixedTenantsUncorrupted(t *testing.T) {
	eng, hs := newTestStack(t, 2, func(c *Config) {
		c.Tenants["analytics"] = TenantConfig{Class: "batch", Weight: 1, Depth: 4}
	})
	shapes := []workload.Shape{
		{M: 26, N: 36, K: 20}, {M: 48, N: 40, K: 32}, {M: 64, N: 48, K: 24}, {M: 96, N: 96, K: 96},
	}
	type operands struct{ a, b, want []float32 }
	ops := make([]operands, len(shapes))
	for i, s := range shapes {
		a, b := testOperands(t, s, uint64(31+2*i))
		want := make([]float32, s.M*s.N)
		if err := eng.Multiply(want, a, b, s.M, s.N, s.K); err != nil {
			t.Fatal(err)
		}
		ops[i] = operands{a, b, want}
	}

	const interactive, analytics, rounds, elems = 4, 2, 8, 6
	var (
		wg         sync.WaitGroup
		ok, shed   atomic.Int64
		batchLines atomic.Int64
	)
	check := func(tenant string, i int, c []float32, err error) {
		switch {
		case errors.Is(err, autogemm.ErrAdmission) && tenant == "analytics":
			shed.Add(1)
		case err != nil:
			t.Errorf("%s shape %d: %v", tenant, i, err)
		case !bitsEqual(ops[i].want, c):
			t.Errorf("%s shape %d: served bits differ from serial Multiply", tenant, i)
		default:
			ok.Add(1)
		}
	}
	for g := 0; g < interactive; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &Client{Base: hs.URL, Tenant: "interactive"}
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(shapes)
				s := shapes[i]
				c, err := cl.Multiply(context.Background(), s.M, s.N, s.K, ops[i].a, ops[i].b, 0)
				check("interactive", i, c, err)
			}
		}()
	}
	for g := 0; g < analytics; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &Client{Base: hs.URL, Tenant: "analytics"}
			for r := 0; r < rounds; r++ {
				req := make([]GEMMRequest, elems)
				idx := make([]int, elems)
				for e := range req {
					idx[e] = (g + r + e) % len(shapes)
					s := shapes[idx[e]]
					req[e] = GEMMRequest{M: s.M, N: s.N, K: s.K, A: ops[idx[e]].a, B: ops[idx[e]].b}
				}
				lines, err := cl.Batch(context.Background(), req)
				if err != nil {
					t.Errorf("analytics batch: %v", err)
					return
				}
				for e, line := range lines {
					batchLines.Add(1)
					check("analytics", idx[e], line.C, line.Err())
				}
			}
		}()
	}
	wg.Wait()
	if want := int64(analytics * rounds * elems); batchLines.Load() != want {
		t.Errorf("got %d batch lines, want %d", batchLines.Load(), want)
	}
	if ok.Load() <= int64(interactive*rounds) {
		t.Errorf("only %d successful results; the analytics tenant completed nothing", ok.Load())
	}
	t.Logf("%d results bit-identical, %d shed", ok.Load(), shed.Load())
}
