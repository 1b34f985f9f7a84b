package core

import (
	"testing"

	"autogemm/internal/hw"
)

func estimateFor(t *testing.T, chip *hw.Chip, m, n, k int, opts Options) Estimate {
	t.Helper()
	plan, err := NewPlan(chip, m, n, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	est, err := plan.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// estimatesAt plans a problem once with the default options and
// projects it at each core count.
func estimatesAt(t *testing.T, chip *hw.Chip, m, n, k int, cores ...int) []Estimate {
	t.Helper()
	plan, err := NewPlan(chip, m, n, k, AutoOptions(chip))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Estimate, len(cores))
	for i, c := range cores {
		if out[i], err = plan.EstimateAt(c); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestEstimateSanity: efficiency bounded, components positive, GFLOPS
// consistent with cycles.
func TestEstimateSanity(t *testing.T) {
	for _, chip := range hw.All() {
		est := estimateFor(t, chip, 64, 64, 64, AutoOptions(chip))
		if est.Efficiency <= 0 || est.Efficiency > 1 {
			t.Errorf("%s: efficiency %.3f out of range", chip.Name, est.Efficiency)
		}
		if est.KernelCycles <= 0 || est.Cycles < est.KernelCycles {
			t.Errorf("%s: inconsistent cycle components %+v", chip.Name, est)
		}
		if est.GFLOPS <= 0 {
			t.Errorf("%s: GFLOPS %.2f", chip.Name, est.GFLOPS)
		}
	}
}

// TestEstimate64CubeNearPeak: the headline claim — autoGEMM reaches
// >90% of single-core peak at M=N=K=64 (the paper reports 93–98% across
// the five chips).
func TestEstimate64CubeNearPeak(t *testing.T) {
	for _, chip := range hw.All() {
		opts := AutoOptions(chip)
		est := estimateFor(t, chip, 64, 64, 64, opts)
		if est.Efficiency < 0.80 {
			t.Errorf("%s: 64^3 efficiency %.1f%%, paper reports >93%%",
				chip.Name, est.Efficiency*100)
		}
	}
}

// TestOptimizationsImproveEstimate: each §III-C step must not slow the
// projection, and the full stack must beat the bare generator (Fig 6).
func TestOptimizationsImproveEstimate(t *testing.T) {
	chip := hw.KP920()
	base := estimateFor(t, chip, 64, 64, 64, Options{Pack: PackOnline})
	rot := estimateFor(t, chip, 64, 64, 64, Options{Pack: PackOnline, Rotate: true})
	full := estimateFor(t, chip, 64, 64, 64, Options{Pack: PackOnline, Rotate: true, Fuse: true})
	if rot.Cycles > base.Cycles*1.02 {
		t.Errorf("rotation slowed estimate: %.0f -> %.0f", base.Cycles, rot.Cycles)
	}
	if full.Cycles >= base.Cycles {
		t.Errorf("full optimization stack not faster: %.0f -> %.0f", base.Cycles, full.Cycles)
	}
}

// TestKP920L1Cliff reproduces §V-B: on KP920 at N=64, growing K from 64
// to 256 with k_c pinned to K pushes the B panel past the 64 KiB L1 and
// efficiency drops dramatically.
func TestKP920L1Cliff(t *testing.T) {
	chip := hw.KP920()
	// The whole 64-column B matrix is the panel (n_c = N = 64, k_c = K),
	// matching the Fig 6 setup where B cannot be re-blocked smaller.
	mk := func(k int) Estimate {
		return estimateFor(t, chip, 64, 64, k, Options{
			MC: 64, NC: 64, Pack: PackOnline, Rotate: true, Fuse: true, ForceKCisK: true,
		})
	}
	small := mk(64)
	big := mk(256)
	if big.Efficiency >= small.Efficiency {
		t.Errorf("no L1 cliff: K=64 eff %.2f, K=256 eff %.2f", small.Efficiency, big.Efficiency)
	}
	if small.Efficiency-big.Efficiency < 0.10 {
		t.Errorf("cliff too shallow: %.2f -> %.2f", small.Efficiency, big.Efficiency)
	}
	// Graviton2's 1 MiB L2 absorbs the same growth much more gracefully.
	g2 := hw.Graviton2()
	gSmall := estimateFor(t, g2, 64, 64, 64, Options{MC: 64, NC: 64, Pack: PackOnline, Rotate: true, Fuse: true, ForceKCisK: true})
	gBig := estimateFor(t, g2, 64, 64, 256, Options{MC: 64, NC: 64, Pack: PackOnline, Rotate: true, Fuse: true, ForceKCisK: true})
	if (gSmall.Efficiency - gBig.Efficiency) > (small.Efficiency-big.Efficiency)*0.9 {
		t.Errorf("Graviton2 cliff (%.2f->%.2f) not shallower than KP920's (%.2f->%.2f)",
			gSmall.Efficiency, gBig.Efficiency, small.Efficiency, big.Efficiency)
	}
}

// TestMultiCoreScaling: more cores must not slow the estimate, and the
// single-group chips must scale nearly linearly on a large problem.
func TestMultiCoreScaling(t *testing.T) {
	chip := hw.Graviton2()
	est := estimatesAt(t, chip, 64, 12544, 147, 1, chip.Cores)
	one, all := est[0], est[1]
	speedup := one.Cycles / all.Cycles
	parEff := speedup / float64(chip.Cores)
	if parEff < 0.90 {
		t.Errorf("Graviton2 parallel efficiency %.2f, paper reports 98.2%%", parEff)
	}
	if parEff > 1.01 {
		t.Errorf("superlinear scaling %.2f", parEff)
	}
}

// TestA64FXScalingCollapse: the CMG/ring-bus model must reproduce the
// paper's poor A64FX strong scaling (≈30% at 48 cores) while staying
// high within one CMG.
func TestA64FXScalingCollapse(t *testing.T) {
	chip := hw.A64FX()
	est := estimatesAt(t, chip, 64, 12544, 147, 1, 12, 48) // 12: one CMG
	one, cmg, all := est[0], est[1], est[2]

	effCMG := one.Cycles / cmg.Cycles / 12
	effAll := one.Cycles / all.Cycles / 48
	if effCMG < 0.7 {
		t.Errorf("within-CMG efficiency %.2f too low", effCMG)
	}
	if effAll > 0.45 || effAll < 0.18 {
		t.Errorf("48-core efficiency %.2f, paper reports ≈0.30", effAll)
	}
}

// TestPackingTradeoff: for a long-rectangle shape (large N), packing
// beats no packing; for a tiny problem it must not be forced on.
func TestPackingTradeoff(t *testing.T) {
	chip := hw.KP920()
	big := func(pack PackMode) Estimate {
		return estimateFor(t, chip, 256, 3136, 64, Options{Pack: pack, Rotate: true, Fuse: true})
	}
	if p, n := big(PackOnline), big(PackNone); p.Cycles >= n.Cycles {
		t.Errorf("packing not beneficial at N=3136: packed %.0f vs none %.0f", p.Cycles, n.Cycles)
	}
	small := func(pack PackMode) Estimate {
		return estimateFor(t, chip, 16, 16, 16, Options{Pack: pack, Rotate: true, Fuse: true})
	}
	if p, n := small(PackOnline), small(PackNone); n.Cycles > p.Cycles {
		t.Errorf("no-packing should win on 16^3: packed %.0f vs none %.0f", p.Cycles, n.Cycles)
	}
}

// TestEstimateDeterministic: two estimates of the same plan agree.
func TestEstimateDeterministic(t *testing.T) {
	chip := hw.M2()
	plan, err := NewPlan(chip, 48, 56, 40, AutoOptions(chip))
	if err != nil {
		t.Fatal(err)
	}
	e1, err := plan.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := plan.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if e1.Cycles != e2.Cycles {
		t.Errorf("nondeterministic estimate: %.0f vs %.0f", e1.Cycles, e2.Cycles)
	}
}
