package tuner

import (
	"bytes"
	"fmt"
	"testing"

	"autogemm/internal/core"
	"autogemm/internal/hw"
	"autogemm/internal/plan"
	"autogemm/internal/plan/audit"
	"autogemm/internal/refgemm"
)

// TestTuneImprovesOnDefault: the tuned configuration is at least as fast
// as the automatic defaults on an awkward shape.
func TestTuneImprovesOnDefault(t *testing.T) {
	chip := hw.KP920()
	const m, n, k = 60, 200, 36
	res, err := Tune(Config{Chip: chip, M: m, N: n, K: k, UseModel: true, MaxEvals: 16})
	if err != nil {
		t.Fatal(err)
	}
	def, err := core.NewPlan(chip, m, n, k, core.AutoOptions(chip))
	if err != nil {
		t.Fatal(err)
	}
	defEst, err := def.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.Cycles > defEst.Cycles*1.02 {
		t.Errorf("tuned %.0f cycles worse than default %.0f", res.Estimate.Cycles, defEst.Cycles)
	}
}

// TestPruningReducesEvaluations: with the Eqn-13 model on, far fewer
// candidates reach the simulator, and the result is not meaningfully
// worse — the paper's §IV-C claim.
func TestPruningReducesEvaluations(t *testing.T) {
	chip := hw.Graviton2()
	const m, n, k = 64, 64, 64
	pruned, err := Tune(Config{Chip: chip, M: m, N: n, K: k, UseModel: true, MaxEvals: 12})
	if err != nil {
		t.Fatal(err)
	}
	blind, err := Tune(Config{Chip: chip, M: m, N: n, K: k, UseModel: false, MaxEvals: 60})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Pruned == 0 {
		t.Error("model pruning rejected nothing")
	}
	if pruned.Evaluated >= blind.Evaluated {
		t.Errorf("pruned run evaluated %d >= blind run %d", pruned.Evaluated, blind.Evaluated)
	}
	if pruned.Estimate.Cycles > blind.Estimate.Cycles*1.10 {
		t.Errorf("pruned best %.0f more than 10%% worse than blind best %.0f",
			pruned.Estimate.Cycles, blind.Estimate.Cycles)
	}
}

// TestTunedPlanIsCorrect: the tuned parameters still compute the right
// answer.
func TestTunedPlanIsCorrect(t *testing.T) {
	chip := hw.M2()
	const m, n, k = 26, 36, 20
	res, err := Tune(Config{Chip: chip, M: m, N: n, K: k, UseModel: true, MaxEvals: 8})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewPlan(chip, m, n, k, res.Best.Options())
	if err != nil {
		t.Fatal(err)
	}
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	refgemm.Fill(a, m, k, k, 1)
	refgemm.Fill(b, k, n, n, 2)
	refgemm.Fill(c, m, n, n, 3)
	want := make([]float32, m*n)
	copy(want, c)
	refgemm.GEMM(m, n, k, a, k, b, n, want, n)
	if err := plan.Run(c, a, b); err != nil {
		t.Fatal(err)
	}
	if e := refgemm.MaxRelErr(c, want, m, n, n, n); e > refgemm.Tolerance {
		t.Errorf("tuned plan wrong: %.3g", e)
	}
}

// TestTuneValidation rejects degenerate problems.
func TestTuneValidation(t *testing.T) {
	if _, err := Tune(Config{Chip: hw.KP920(), M: 0, N: 4, K: 4}); err == nil {
		t.Error("accepted M=0")
	}
	if _, err := Tune(Config{M: 4, N: 4, K: 4}); err == nil {
		t.Error("accepted nil chip")
	}

	// A blind search scores nothing: it simulates the first MaxEvals
	// candidates of the grid and records no model cost.
	cfg := Config{Chip: hw.KP920(), M: 40, N: 56, K: 24, MaxEvals: 5}
	blind, err := Tune(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if blind.Evaluated != cfg.MaxEvals || blind.Pruned != 0 {
		t.Errorf("blind search evaluated %d, pruned %d; want %d, 0", blind.Evaluated, blind.Pruned, cfg.MaxEvals)
	}
	first := map[Candidate]bool{}
	for _, c := range enumerate(cfg)[:cfg.MaxEvals] {
		first[c] = true
	}
	for _, r := range blind.Records {
		if r.ModelCost != 0 {
			t.Errorf("blind record %+v has model cost %g", r.Candidate, r.ModelCost)
		}
		if !first[r.Candidate] {
			t.Errorf("blind search simulated %+v, not among the first %d candidates", r.Candidate, cfg.MaxEvals)
		}
	}
}

// TestTuneScoresWithProduce: the tuner has one cost model and plans each
// candidate once. Every record's score is its plan's Produce
// ModelCycles, no candidate is simulated twice, and TunePlan returns the
// very plan Produce makes of the winner, which passes the deep audit.
func TestTuneScoresWithProduce(t *testing.T) {
	for _, tc := range []struct {
		chip    *hw.Chip
		m, n, k int
	}{
		{hw.KP920(), 60, 200, 36},
		{hw.A64FX(), 129, 200, 55}, // several m, n and k blocks
	} {
		cfg := Config{Chip: tc.chip, M: tc.m, N: tc.n, K: tc.k, UseModel: true, MaxEvals: 16}
		rec, res, err := TunePlan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s %dx%dx%d", tc.chip.Name, tc.m, tc.n, tc.k)
		seen := map[Candidate]bool{}
		for _, r := range res.Records {
			if seen[r.Candidate] {
				t.Errorf("%s: %+v simulated twice", name, r.Candidate)
			}
			seen[r.Candidate] = true
			p, err := core.Produce(tc.chip, tc.m, tc.n, tc.k, r.Candidate.Options())
			if err != nil {
				t.Fatal(err)
			}
			if r.ModelCost != p.ModelCycles {
				t.Errorf("%s: %+v scored %g, Produce says %g", name, r.Candidate, r.ModelCost, p.ModelCycles)
			}
		}
		want, err := core.Produce(tc.chip, tc.m, tc.n, tc.k, res.Best.Options())
		if err != nil {
			t.Fatal(err)
		}
		if rec.Source != plan.SourceTuner {
			t.Errorf("%s: TunePlan source %q", name, rec.Source)
		}
		got, err := rec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		exp, err := want.WithSource(plan.SourceTuner).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, exp) {
			t.Errorf("%s: TunePlan's plan differs from Produce(Best.Options())", name)
		}
		if _, err := audit.Audit(tc.chip, rec, audit.Options{Deep: true}); err != nil {
			t.Errorf("%s: tuned plan fails the deep audit: %v", name, err)
		}
	}
}

// TestBlockSizes checks the divisor-based grid generation.
func TestBlockSizes(t *testing.T) {
	sizes := blockSizes(64, 4, 256)
	if len(sizes) == 0 || len(sizes) > 8 {
		t.Fatalf("blockSizes(64) = %v", sizes)
	}
	for _, s := range sizes {
		if s%4 != 0 {
			t.Errorf("size %d not lane-quantized", s)
		}
	}
	last := sizes[len(sizes)-1]
	if last != 64 {
		t.Errorf("full extent missing: %v", sizes)
	}
}

// TestRecordsSorted: records come back best-first.
func TestRecordsSorted(t *testing.T) {
	res, err := Tune(Config{Chip: hw.KP920(), M: 32, N: 32, K: 32, UseModel: true, MaxEvals: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i].Cycles < res.Records[i-1].Cycles {
			t.Error("records not sorted by cycles")
		}
	}
	if res.Generated < res.Evaluated {
		t.Error("generated < evaluated")
	}
}

// TestTunerFindsGlobalOptimum: on a problem small enough to evaluate the
// ENTIRE candidate space on the simulator, the model-pruned search
// returns a configuration within a whisker of the true optimum.
func TestTunerFindsGlobalOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	chip := hw.KP920()
	const m, n, k = 16, 16, 16
	full, err := Tune(Config{Chip: chip, M: m, N: n, K: k, UseModel: false, MaxEvals: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if full.Evaluated < full.Generated/2 {
		t.Fatalf("exhaustive run evaluated %d of %d", full.Evaluated, full.Generated)
	}
	pruned, err := Tune(Config{Chip: chip, M: m, N: n, K: k, UseModel: true, MaxEvals: 16})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Estimate.Cycles > full.Estimate.Cycles*1.05 {
		t.Errorf("pruned best %.0f cycles vs global optimum %.0f (>5%% off)",
			pruned.Estimate.Cycles, full.Estimate.Cycles)
	}
}
