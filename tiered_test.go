package autogemm

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autogemm/internal/sched"
	"autogemm/internal/workload"
)

// raceEnabled is set by race_test.go in builds with the race detector.
var raceEnabled bool

func flush(t *testing.T, eng *Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := eng.FlushUpgrades(ctx); err != nil {
		t.Fatalf("FlushUpgrades: %v", err)
	}
}

// TestTieredServesHeuristicThenUpgrades is the tentpole's lifecycle
// check: a cold miss is answered by a tier-0 heuristic plan, the
// background upgrade hot-swaps the full plan under the same
// fingerprint, and the per-tier counters record both events.
func TestTieredServesHeuristicThenUpgrades(t *testing.T) {
	s, err := workload.ResNet50Layer("L16")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New("KP920", WithPlanMode(PlanModeTiered))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	p0, err := eng.PlanFor(nil, s.M, s.N, s.K)
	if err != nil {
		t.Fatal(err)
	}
	if p0.Source() != "heuristic" {
		t.Fatalf("cold plan source = %q, want heuristic", p0.Source())
	}
	flush(t, eng)
	p1, err := eng.PlanFor(nil, s.M, s.N, s.K)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Source() != "auto" {
		t.Fatalf("upgraded plan source = %q, want auto", p1.Source())
	}
	if p1.Fingerprint() != p0.Fingerprint() {
		t.Fatal("upgrade changed the fingerprint")
	}
	st := eng.PlanCacheStats()
	if st.HeuristicServed < 1 {
		t.Errorf("HeuristicServed = %d, want >= 1", st.HeuristicServed)
	}
	if st.UpgradesCompleted != 1 {
		t.Errorf("UpgradesCompleted = %d, want 1", st.UpgradesCompleted)
	}
	if st.UpgradesFailed != 0 {
		t.Errorf("UpgradesFailed = %d, want 0", st.UpgradesFailed)
	}
	if st.Built != 1 {
		t.Errorf("Built = %d, want 1 (Replace is not a build)", st.Built)
	}
}

// TestTieredDifferentialBitIdentical is the correctness half of the
// tier split: the heuristic plan and the upgraded full plan must both
// produce bit-identical C to a default (full-planning) engine, on
// ResNet-50 shapes and on the small irregular set.
func TestTieredDifferentialBitIdentical(t *testing.T) {
	shapes := append([][3]int{}, [][3]int{{26, 36, 20}, {19, 27, 31}, {33, 16, 48}}...)
	for _, name := range []string{"L16", "L20"} {
		s, err := workload.ResNet50Layer(name)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, [3]int{s.M, s.N, s.K})
	}

	full, _ := New("KP920")
	defer full.Close()
	tiered, err := New("KP920", WithPlanMode(PlanModeTiered))
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()

	for i, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		a, b := mulInputs(m, n, k, uint64(31*i))
		want := make([]float32, m*n)
		if err := full.Multiply(want, a, b, m, n, k); err != nil {
			t.Fatal(err)
		}

		// Tier 0: heuristic plan serving.
		got := make([]float32, m*n)
		if err := tiered.Multiply(got, a, b, m, n, k); err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(got, want) {
			t.Fatalf("shape %v: heuristic-tier result differs from full planning", s)
		}

		// Tier 1: after the upgrade lands, same bits again.
		flush(t, tiered)
		for j := range got {
			got[j] = 0
		}
		if err := tiered.Multiply(got, a, b, m, n, k); err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(got, want) {
			t.Fatalf("shape %v: upgraded-plan result differs from full planning", s)
		}
	}

	// The upgrades must converge to the very plan the full engine built.
	flush(t, tiered)
	for _, s := range shapes {
		pt, err := tiered.PlanFor(nil, s[0], s[1], s[2])
		if err != nil {
			t.Fatal(err)
		}
		pf, err := full.PlanFor(nil, s[0], s[1], s[2])
		if err != nil {
			t.Fatal(err)
		}
		dt, _ := pt.Encode()
		df, _ := pf.Encode()
		if string(dt) != string(df) {
			t.Fatalf("shape %v: upgraded plan differs from full engine's plan", s)
		}
	}
}

// TestTieredFirstHitBudget holds the tiered cold-serve budget: for
// every ResNet-50 shape, the median over five fresh PlanModeTiered
// engines of the first PlanFor stays within 500µs, and each first hit
// is the tier-0 heuristic plan. A wall-clock bound, so it skips under
// the race detector's slowdown.
func TestTieredFirstHitBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock budget; the race detector slows planning several-fold")
	}
	const probes, budget = 5, 500 * time.Microsecond
	var worst time.Duration
	for _, s := range workload.ResNet50() {
		hits := make([]time.Duration, probes)
		for i := range hits {
			eng, err := New("KP920", WithPlanMode(PlanModeTiered))
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			p, err := eng.PlanFor(nil, s.M, s.N, s.K)
			hits[i] = time.Since(start)
			if err != nil {
				eng.Close()
				t.Fatalf("%s: %v", s.Name, err)
			}
			if p.Source() != "heuristic" {
				t.Errorf("%s: first hit served a %q plan, want heuristic", s.Name, p.Source())
			}
			// Let the background upgrade settle before closing its pool.
			flush(t, eng)
			eng.Close()
		}
		slices.Sort(hits)
		med := hits[probes/2]
		if med > budget {
			t.Errorf("%s: median first hit %v over the %v budget (probes %v)", s.Name, med, budget, hits)
		}
		worst = max(worst, med)
	}
	t.Logf("worst median first hit %v (budget %v)", worst, budget)
}

// TestTieredUpgradeConvergesOnAllResNet50 checks plan-level
// convergence across the whole Table V set: every upgraded plan is
// byte-identical to what synchronous full planning produces.
func TestTieredUpgradeConvergesOnAllResNet50(t *testing.T) {
	if testing.Short() {
		t.Skip("full ResNet-50 planning sweep")
	}
	full, _ := New("KP920")
	defer full.Close()
	tiered, err := New("KP920", WithPlanMode(PlanModeTiered))
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()

	for _, s := range workload.ResNet50() {
		if _, err := tiered.PlanFor(nil, s.M, s.N, s.K); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
	flush(t, tiered)
	for _, s := range workload.ResNet50() {
		pt, err := tiered.PlanFor(nil, s.M, s.N, s.K)
		if err != nil {
			t.Fatal(err)
		}
		if pt.Source() != "auto" {
			t.Fatalf("%s: source %q after flush, want auto", s.Name, pt.Source())
		}
		pf, err := full.PlanFor(nil, s.M, s.N, s.K)
		if err != nil {
			t.Fatal(err)
		}
		dt, _ := pt.Encode()
		df, _ := pf.Encode()
		if string(dt) != string(df) {
			t.Fatalf("%s: upgraded plan differs from synchronous planning", s.Name)
		}
	}
	st := tiered.PlanCacheStats()
	if st.UpgradesCompleted != int64(len(workload.ResNet50())) {
		t.Errorf("UpgradesCompleted = %d, want %d", st.UpgradesCompleted, len(workload.ResNet50()))
	}
}

// TestTieredHotSwapMidStream races executions against the upgrade
// hot-swap: goroutines multiply the same shape continuously while the
// background upgrade replaces the plan under them. Every result —
// before, across and after the swap — must be bit-identical to the
// reference. Run under -race this is also the data-race check for
// plan.Cache.Replace.
func TestTieredHotSwapMidStream(t *testing.T) {
	s, err := workload.ResNet50Layer("L16")
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := New("KP920")
	defer ref.Close()
	a, b := mulInputs(s.M, s.N, s.K, 99)
	want := make([]float32, s.M*s.N)
	if err := ref.Multiply(want, a, b, s.M, s.N, s.K); err != nil {
		t.Fatal(err)
	}

	eng, err := New("KP920", WithPlanMode(PlanModeTiered))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const workers = 4
	var wg sync.WaitGroup
	var bad atomic.Int64
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := make([]float32, s.M*s.N)
			for it := 0; it < 6; it++ {
				for j := range c {
					c[j] = 0
				}
				if err := eng.Multiply(c, a, b, s.M, s.N, s.K); err != nil {
					errs <- err
					return
				}
				if !bitsEqual(c, want) {
					bad.Add(1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Fatal("result changed bits across the hot-swap")
	}
	flush(t, eng)
	p, err := eng.PlanFor(nil, s.M, s.N, s.K)
	if err != nil {
		t.Fatal(err)
	}
	if p.Source() != "auto" {
		t.Fatalf("source after flush = %q, want auto", p.Source())
	}
}

// TestTieredColdMissStorm hammers one brand-new fingerprint from many
// goroutines at once: the singleflight invariant must hold (exactly
// one tier-0 build), exactly one upgrade must run, and every result
// must be correct. The CI race job runs this under GOMAXPROCS=2.
func TestTieredColdMissStorm(t *testing.T) {
	eng, err := New("KP920", WithPlanMode(PlanModeTiered))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ref, _ := New("KP920")
	defer ref.Close()

	const m, n, k = 130, 70, 96
	a, b := mulInputs(m, n, k, 5)
	want := make([]float32, m*n)
	if err := ref.Multiply(want, a, b, m, n, k); err != nil {
		t.Fatal(err)
	}

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := make([]float32, m*n)
			if err := eng.Multiply(c, a, b, m, n, k); err != nil {
				errs <- err
				return
			}
			if !bitsEqual(c, want) {
				errs <- fmt.Errorf("storm result differs from reference")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := eng.PlanCacheStats()
	if st.Built != 1 {
		t.Errorf("Built = %d, want 1 (singleflight under storm)", st.Built)
	}
	flush(t, eng)
	st = eng.PlanCacheStats()
	if st.UpgradesCompleted != 1 {
		t.Errorf("UpgradesCompleted = %d, want 1 (in-flight upgrade deduplicated)", st.UpgradesCompleted)
	}
}

// TestTieredFailedUpgradeKeepsServing injects a fault into the
// background upgrade job and checks the containment contract: the
// failure is counted, the heuristic plan keeps serving correct
// results, nothing is evicted, and a later serve retries the upgrade
// successfully.
func TestTieredFailedUpgradeKeepsServing(t *testing.T) {
	eng, err := New("KP920", WithPlanMode(PlanModeTiered))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ref, _ := New("KP920")
	defer ref.Close()

	var fired atomic.Bool
	sched.SetFaultHook(func(task int) error {
		if fired.CompareAndSwap(false, true) {
			return fmt.Errorf("injected upgrade fault")
		}
		return nil
	})
	defer sched.SetFaultHook(nil)

	const m, n, k = 64, 300, 64
	// PlanFor (not Multiply): the upgrade job is the only job on the
	// pool, so the injected fault deterministically lands on it.
	p, err := eng.PlanFor(nil, m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	if p.Source() != "heuristic" {
		t.Fatalf("source = %q, want heuristic", p.Source())
	}
	flush(t, eng)
	st := eng.PlanCacheStats()
	if st.UpgradesFailed != 1 {
		t.Fatalf("UpgradesFailed = %d, want 1", st.UpgradesFailed)
	}
	if st.UpgradesCompleted != 0 {
		t.Fatalf("UpgradesCompleted = %d, want 0", st.UpgradesCompleted)
	}

	// The heuristic plan was not evicted or poisoned: it still serves,
	// and it still computes correct bits.
	sched.SetFaultHook(nil)
	a, b := mulInputs(m, n, k, 3)
	want := make([]float32, m*n)
	if err := ref.Multiply(want, a, b, m, n, k); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, m*n)
	if err := eng.Multiply(got, a, b, m, n, k); err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got, want) {
		t.Fatal("post-failure heuristic result differs from reference")
	}

	// That serve retried the upgrade; it must land now.
	flush(t, eng)
	st = eng.PlanCacheStats()
	if st.UpgradesCompleted != 1 {
		t.Fatalf("retry: UpgradesCompleted = %d, want 1", st.UpgradesCompleted)
	}
	p, err = eng.PlanFor(nil, m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	if p.Source() != "auto" {
		t.Fatalf("source after retry = %q, want auto", p.Source())
	}
}

// TestTieredRegistryPersistenceAndNeighborSeed checks the transfer
// path end to end: an upgraded plan is persisted with its request
// indexed, a fresh engine over the same directory warm-starts the full
// plan directly (no heuristic detour), and a nearby new shape's
// upgrade is seeded from the stored neighbor.
func TestTieredRegistryPersistenceAndNeighborSeed(t *testing.T) {
	dir := t.TempDir()
	eng, err := New("KP920", WithPlanMode(PlanModeTiered), WithPlanDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PlanFor(nil, 64, 300, 64); err != nil {
		t.Fatal(err)
	}
	flush(t, eng)
	if st := eng.PlanCacheStats(); st.UpgradesCompleted != 1 {
		t.Fatalf("UpgradesCompleted = %d, want 1", st.UpgradesCompleted)
	}
	eng.Close()

	// Fresh engine, same registry: the stored full plan short-circuits
	// the tiers entirely.
	eng2, err := New("KP920", WithPlanMode(PlanModeTiered), WithPlanDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	p, err := eng2.PlanFor(nil, 64, 300, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p.Source() != "auto" {
		t.Fatalf("registry warm-start source = %q, want auto", p.Source())
	}

	// A nearby shape's upgrade warm-starts from the stored neighbor.
	if _, err := eng2.PlanFor(nil, 64, 320, 64); err != nil {
		t.Fatal(err)
	}
	flush(t, eng2)
	st := eng2.PlanCacheStats()
	if st.NeighborSeeded != 1 {
		t.Errorf("NeighborSeeded = %d, want 1", st.NeighborSeeded)
	}
	if st.UpgradesCompleted != 1 {
		t.Errorf("UpgradesCompleted = %d, want 1", st.UpgradesCompleted)
	}
}

// TestPlanModeFromEnv: AUTOGEMM_PLAN_MODE opts a process into tiered
// planning; WithPlanMode overrides it.
func TestPlanModeFromEnv(t *testing.T) {
	t.Setenv("AUTOGEMM_PLAN_MODE", "tiered")
	eng, err := New("KP920")
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.PlanMode() != PlanModeTiered {
		t.Fatalf("PlanMode = %q, want tiered", eng.PlanMode())
	}
	over, err := New("KP920", WithPlanMode(PlanModeFull))
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	if over.PlanMode() != PlanModeFull {
		t.Fatalf("PlanMode = %q, want full (option overrides env)", over.PlanMode())
	}
	// Unknown values fall back to full planning.
	weird, err := New("KP920", WithPlanMode(PlanMode("bogus")))
	if err != nil {
		t.Fatal(err)
	}
	defer weird.Close()
	if weird.PlanMode() != PlanModeFull {
		t.Fatalf("PlanMode = %q, want full for unknown mode", weird.PlanMode())
	}
}
