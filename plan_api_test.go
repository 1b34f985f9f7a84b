package autogemm

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"autogemm/internal/plan"
	"autogemm/internal/refgemm"
	"autogemm/internal/workload"
)

// testShapes are small irregular problems used across the plan tests:
// enough shape diversity to exercise remainder blocks and distinct
// fingerprints, small enough to multiply many times.
var testShapes = []struct{ m, n, k int }{
	{26, 36, 20},
	{19, 27, 31},
	{33, 16, 48},
	{12, 64, 8},
}

func mulInputs(m, n, k int, seed uint64) (a, b []float32) {
	a = make([]float32, m*k)
	b = make([]float32, k*n)
	refgemm.Fill(a, m, k, k, seed)
	refgemm.Fill(b, k, n, n, seed+1)
	return a, b
}

func bitsEqual(x, y []float32) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
			return false
		}
	}
	return true
}

// TestPlanCacheConcurrency hammers one engine from many goroutines with
// mixed shapes: the singleflight cache must construct exactly one plan
// per unique fingerprint, and every concurrent result must be
// bit-identical to a serial execution of the same problem.
func TestPlanCacheConcurrency(t *testing.T) {
	eng, err := New("KP920")
	if err != nil {
		t.Fatal(err)
	}

	// Serial references on a separate engine.
	serial, _ := New("KP920")
	want := make([][]float32, len(testShapes))
	for i, s := range testShapes {
		a, b := mulInputs(s.m, s.n, s.k, uint64(10*i))
		want[i] = make([]float32, s.m*s.n)
		if err := serial.Multiply(want[i], a, b, s.m, s.n, s.k); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 16
	const iters = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	mismatch := make(chan int, workers*iters*len(testShapes))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				for i, s := range testShapes {
					a, b := mulInputs(s.m, s.n, s.k, uint64(10*i))
					c := make([]float32, s.m*s.n)
					if err := eng.Multiply(c, a, b, s.m, s.n, s.k); err != nil {
						errs <- err
						return
					}
					if !bitsEqual(c, want[i]) {
						mismatch <- i
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	close(mismatch)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range mismatch {
		t.Fatalf("shape %d: concurrent result differs from serial execution", i)
	}

	st := eng.PlanCacheStats()
	if st.Built != int64(len(testShapes)) {
		t.Errorf("Built = %d, want %d (one plan construction per unique fingerprint)",
			st.Built, len(testShapes))
	}
	if st.Misses != int64(len(testShapes)) {
		t.Errorf("Misses = %d, want %d", st.Misses, len(testShapes))
	}
	wantTraffic := int64(workers * iters * len(testShapes))
	if st.Hits+st.Misses != wantTraffic {
		t.Errorf("Hits+Misses = %d, want %d", st.Hits+st.Misses, wantTraffic)
	}
	if eng.CachedPlans() != len(testShapes) {
		t.Errorf("CachedPlans = %d, want %d", eng.CachedPlans(), len(testShapes))
	}
}

// TestRepeatedMultiplyHitsCache is the serving-workload acceptance
// check: after the first Multiply on a ResNet-50 shape, repeated calls
// perform zero planning work — observable as cache hits with no new
// plan constructions.
func TestRepeatedMultiplyHitsCache(t *testing.T) {
	shape, err := workload.ResNet50Layer("L20")
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := New("KP920")
	a, b := mulInputs(shape.M, shape.N, shape.K, 7)
	c := make([]float32, shape.M*shape.N)

	if err := eng.Multiply(c, a, b, shape.M, shape.N, shape.K); err != nil {
		t.Fatal(err)
	}
	st := eng.PlanCacheStats()
	if st.Built != 1 || st.Misses != 1 {
		t.Fatalf("first call: Built=%d Misses=%d, want 1/1", st.Built, st.Misses)
	}
	const reps = 5
	for i := 0; i < reps; i++ {
		if err := eng.Multiply(c, a, b, shape.M, shape.N, shape.K); err != nil {
			t.Fatal(err)
		}
	}
	st = eng.PlanCacheStats()
	if st.Built != 1 {
		t.Errorf("after %d repeats: Built = %d, want 1 (no re-planning)", reps, st.Built)
	}
	if st.Hits != reps {
		t.Errorf("after %d repeats: Hits = %d, want %d", reps, st.Hits, reps)
	}
}

// TestEstimateCoresShareOnePlan: the core count is an argument of the
// estimate, not a planning input, so estimating one shape at several
// core counts plans it once, and each projection is that plan's
// EstimateAt at the requested count.
func TestEstimateCoresShareOnePlan(t *testing.T) {
	const m, n, k = 64, 3136, 64
	eng, err := New("KP920")
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, cores := range []int{1, 2, 4} {
		perf, err := eng.Estimate(m, n, k, &Options{Cores: cores})
		if err != nil {
			t.Fatal(err)
		}
		p, err := eng.plan(nil, m, n, k)
		if err != nil {
			t.Fatal(err)
		}
		est, err := p.EstimateAt(cores)
		if err != nil {
			t.Fatal(err)
		}
		if want := perfOf(est); perf != want || perf.Cores != cores {
			t.Errorf("%d cores: Estimate = %+v, want %+v", cores, perf, want)
		}
	}
	if st := eng.PlanCacheStats(); st.Built != 1 {
		t.Errorf("Built = %d, want 1 (one plan for every core count)", st.Built)
	}
	if got := eng.CachedPlans(); got != 1 {
		t.Errorf("CachedPlans = %d, want 1", got)
	}
}

// TestWarmPlanResolveAllocs: once a shape's plan is cached, resolving
// it again allocates nothing — the cache key is a comparable value, not
// a formatted and hashed fingerprint. The tiered engine is held to the
// same bound once its heuristic plan has been upgraded.
func TestWarmPlanResolveAllocs(t *testing.T) {
	const m, n, k = 26, 36, 20
	for _, mode := range []PlanMode{PlanModeFull, PlanModeTiered} {
		e, err := New("KP920", WithPlanMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if _, err := e.plan(nil, m, n, k); err != nil {
			t.Fatal(err)
		}
		if err := e.FlushUpgrades(context.Background()); err != nil {
			t.Fatal(err)
		}
		p, err := e.plan(nil, m, n, k)
		if err != nil {
			t.Fatal(err)
		}
		if src := p.Recipe.Source; src != plan.SourceAuto {
			t.Fatalf("%s: warm plan source %q, want the full plan", mode, src)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := e.plan(nil, m, n, k); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm plan resolve allocates %.1f times, want 0", mode, allocs)
		}
	}
}

// TestPlanRoundTrip serializes plans, deserializes them into a fresh
// engine, and checks the loaded plan executes bit-identically to the
// producing engine.
func TestPlanRoundTrip(t *testing.T) {
	src, _ := New("Graviton2")
	dst, _ := New("Graviton2")
	for i, s := range testShapes {
		p, err := src.PlanFor(nil, s.m, s.n, s.k)
		if err != nil {
			t.Fatal(err)
		}
		data, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := dst.LoadPlan(data)
		if err != nil {
			t.Fatalf("shape %d: LoadPlan: %v", i, err)
		}
		if loaded.Fingerprint() != p.Fingerprint() {
			t.Fatalf("shape %d: fingerprint changed across round trip", i)
		}

		a, b := mulInputs(s.m, s.n, s.k, uint64(100*i))
		want := make([]float32, s.m*s.n)
		got := make([]float32, s.m*s.n)
		if err := src.MultiplyPlanned(p, want, a, b); err != nil {
			t.Fatal(err)
		}
		if err := dst.MultiplyPlanned(loaded, got, a, b); err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(got, want) {
			t.Errorf("shape %d: deserialized plan result differs", i)
		}
	}
}

// TestMultiplyPlannedForeignEngine: a plan handle is bound to the engine
// that attached it. Another engine refuses it — it would otherwise run
// on the first engine's scheduler and fail with ErrClosed once that
// engine closes — and accepts it after Encode and LoadPlan.
func TestMultiplyPlannedForeignEngine(t *testing.T) {
	src, _ := New("Graviton2", WithWorkers(1))
	dst, _ := New("Graviton2", WithWorkers(1))
	defer dst.Close()
	s := testShapes[0]
	p, err := src.PlanFor(nil, s.m, s.n, s.k)
	if err != nil {
		t.Fatal(err)
	}
	a, b := mulInputs(s.m, s.n, s.k, 7)
	want := make([]float32, s.m*s.n)
	if err := src.MultiplyPlanned(p, want, a, b); err != nil {
		t.Fatal(err)
	}
	src.Close()

	got := make([]float32, s.m*s.n)
	err = dst.MultiplyPlanned(p, got, a, b)
	if err == nil || errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), "another engine") {
		t.Fatalf("foreign plan on an open engine: err = %v, want an another-engine rejection", err)
	}
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	moved, err := dst.LoadPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.MultiplyPlanned(moved, got, a, b); err != nil {
		t.Fatalf("plan moved with LoadPlan: %v", err)
	}
	if !bitsEqual(got, want) {
		t.Error("moved plan result differs from the source engine's")
	}
}

// TestPlanMismatchRejected checks the fingerprint gates: a plan for
// another chip is rejected at load, and a corrupted registry entry is
// ignored in favor of fresh planning rather than silently executed.
func TestPlanMismatchRejected(t *testing.T) {
	kp, _ := New("KP920")
	g2, _ := New("Graviton2")
	s := testShapes[0]

	p, err := kp.PlanFor(nil, s.m, s.n, s.k)
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g2.LoadPlan(data); err == nil {
		t.Error("KP920 plan loaded into Graviton2 engine")
	}

	// A registry file whose name does not match the plan it holds (a
	// stale or renamed entry) must fall back to fresh planning.
	dir := t.TempDir()
	fresh, _ := New("KP920")
	fp := p.Fingerprint()
	other, err := fresh.PlanFor(nil, s.m+1, s.n, s.k) // different shape, different fingerprint
	if err != nil {
		t.Fatal(err)
	}
	otherData, _ := other.Encode()
	if err := os.WriteFile(filepath.Join(dir, fp+".json"), otherData, 0o644); err != nil {
		t.Fatal(err)
	}
	warm, err := New("KP920", WithPlanDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	a, b := mulInputs(s.m, s.n, s.k, 42)
	got := make([]float32, s.m*s.n)
	if err := warm.Multiply(got, a, b, s.m, s.n, s.k); err != nil {
		t.Fatalf("stale registry entry broke Multiply: %v", err)
	}
	want := make([]float32, s.m*s.n)
	if err := kp.Multiply(want, a, b, s.m, s.n, s.k); err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got, want) {
		t.Error("fallback from stale registry entry produced different result")
	}

	// A plan in the previous format, 1, which carried the block loop
	// order, stored under the file name this build looks up: the version
	// gate refuses it at load, and a registry holding it re-plans.
	v1 := formatOnePlan(t, data)
	if _, err := fresh.LoadPlan(v1); !errors.Is(err, ErrBadPlan) {
		t.Errorf("format-1 plan: LoadPlan error %v, want ErrBadPlan", err)
	}
	dir1 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir1, fp+".json"), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := New("KP920", WithPlanDir(dir1))
	if err != nil {
		t.Fatal(err)
	}
	got = make([]float32, s.m*s.n)
	if err := old.Multiply(got, a, b, s.m, s.n, s.k); err != nil {
		t.Fatalf("format-1 registry entry broke Multiply: %v", err)
	}
	if !bitsEqual(got, want) {
		t.Error("re-planned result over a format-1 registry entry differs from a fresh engine's")
	}
	replanned, err := old.PlanFor(nil, s.m, s.n, s.k)
	if err != nil {
		t.Fatal(err)
	}
	if enc, _ := replanned.Encode(); string(enc) != string(data) {
		t.Error("engine over a format-1 registry entry serves a plan other than a fresh engine's")
	}
}

// formatOnePlan re-encodes a plan the way format 1 wrote it: the
// request's "order" and the plan's "orderResolved" (always "MNK"), and
// the fingerprint format 1 derived, which hashed the order too (and a
// core count and call overhead, always 0 in plans an engine wrote).
func formatOnePlan(t *testing.T, data []byte) []byte {
	t.Helper()
	rec, err := plan.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	r := rec.Request
	if len(r.Cands) > 0 {
		t.Fatal("formatOnePlan does not hash restricted candidate lists")
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("autogemm-plan-v1|%s|%d|%d|%d|%d|%d|%d|MNK|%s|%v|%v|0|0|%v|%s",
		r.Chip, r.M, r.N, r.K, r.MC, r.NC, r.KC, r.Pack, r.Rotate, r.Fuse, r.KCisK, r.Tiler)))
	s := string(data)
	for _, e := range [][2]string{
		{`"format": 2,`, `"format": 1,`},
		{rec.Fingerprint, hex.EncodeToString(sum[:16])},
		{"\n    \"pack\": ", "\n    \"order\": \"MNK\",\n    \"pack\": "},
		{"\n  \"packResolved\": ", "\n  \"orderResolved\": \"MNK\",\n  \"packResolved\": "},
	} {
		if !strings.Contains(s, e[0]) {
			t.Fatalf("encoded plan has no %q", e[0])
		}
		s = strings.Replace(s, e[0], e[1], 1)
	}
	return []byte(s)
}

// TestRegistryWarmStart pre-bakes a registry with one engine and checks
// a second engine (configured via option and via environment) serves
// bit-identical results from it.
func TestRegistryWarmStart(t *testing.T) {
	dir := t.TempDir()
	s := testShapes[1]

	baker, err := New("KP920", WithPlanDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	p, err := baker.PlanFor(nil, s.m, s.n, s.k)
	if err != nil {
		t.Fatal(err)
	}
	if err := baker.SavePlan(p); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, p.Fingerprint()+".json")); err != nil {
		t.Fatalf("registry file missing: %v", err)
	}

	a, b := mulInputs(s.m, s.n, s.k, 5)
	want := make([]float32, s.m*s.n)
	freshEng, _ := New("KP920")
	if err := freshEng.Multiply(want, a, b, s.m, s.n, s.k); err != nil {
		t.Fatal(err)
	}

	warm, err := New("KP920", WithPlanDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float32, s.m*s.n)
	if err := warm.Multiply(got, a, b, s.m, s.n, s.k); err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got, want) {
		t.Error("registry-warm-started engine differs from fresh-planned engine")
	}

	t.Setenv("AUTOGEMM_PLAN_DIR", dir)
	envEng, err := New("KP920")
	if err != nil {
		t.Fatal(err)
	}
	got2 := make([]float32, s.m*s.n)
	if err := envEng.Multiply(got2, a, b, s.m, s.n, s.k); err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got2, want) {
		t.Error("AUTOGEMM_PLAN_DIR engine differs from fresh-planned engine")
	}
}

// TestTunePrimesPlanCache checks Engine.Tune leaves the winning plan in
// the cache: multiplying with the returned options is a cache hit, not
// a re-plan, and with a plan directory the tuned plan is persisted.
func TestTunePrimesPlanCache(t *testing.T) {
	dir := t.TempDir()
	eng, err := New("M2", WithPlanDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	const m, n, k = 26, 36, 20
	opts, _, err := eng.Tune(m, n, k, 4)
	if err != nil {
		t.Fatal(err)
	}
	built := eng.PlanCacheStats().Built

	a, b := mulInputs(m, n, k, 9)
	c := make([]float32, m*n)
	if err := eng.MultiplyContext(context.Background(), GEMM{C: c, A: a, B: b, M: m, N: n, K: k, Opts: &opts}); err != nil {
		t.Fatal(err)
	}
	st := eng.PlanCacheStats()
	if st.Built != built {
		t.Errorf("MultiplyContext(tuned options) re-planned: Built %d -> %d", built, st.Built)
	}

	p, err := eng.PlanFor(&opts, m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	if p.Source() != "tuner" {
		t.Errorf("tuned plan Source = %q, want \"tuner\"", p.Source())
	}
	if _, err := os.Stat(filepath.Join(dir, p.Fingerprint()+".json")); err != nil {
		t.Errorf("tuned plan not persisted: %v", err)
	}
}

func TestChipsSortedDeduped(t *testing.T) {
	names := Chips()
	seen := make(map[string]bool)
	for i, n := range names {
		if seen[n] {
			t.Errorf("Chips() contains %q twice", n)
		}
		seen[n] = true
		if i > 0 && names[i-1] >= n {
			t.Errorf("Chips() not sorted: %q before %q", names[i-1], n)
		}
	}
	for _, want := range []string{"KP920", "Graviton2", "Graviton3", "Didactic"} {
		if !seen[want] {
			t.Errorf("Chips() missing %q", want)
		}
	}
}
