package core

import (
	"testing"
	"testing/quick"

	"autogemm/internal/hw"
	"autogemm/internal/refgemm"
)

// checkGEMM runs a plan functionally and compares against the reference.
func checkGEMM(t *testing.T, chip *hw.Chip, m, n, k int, opts Options) {
	t.Helper()
	plan, err := NewPlan(chip, m, n, k, opts)
	if err != nil {
		t.Fatalf("NewPlan(%d,%d,%d): %v", m, n, k, err)
	}
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	refgemm.Fill(a, m, k, k, 101)
	refgemm.Fill(b, k, n, n, 202)
	refgemm.Fill(c, m, n, n, 303)

	want := make([]float32, m*n)
	copy(want, c)
	refgemm.GEMM(m, n, k, a, k, b, n, want, n)

	if err := plan.Run(c, a, b); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e := refgemm.MaxRelErr(c, want, m, n, n, n); e > refgemm.Tolerance {
		t.Errorf("%s %dx%dx%d opts=%+v: max rel err %.3g", chip.Name, m, n, k, opts, e)
	}
}

// TestRunMatchesReferenceShapes sweeps irregular shapes with the default
// configuration on KP920.
func TestRunMatchesReferenceShapes(t *testing.T) {
	chip := hw.KP920()
	shapes := []struct{ m, n, k int }{
		{1, 1, 1}, {3, 5, 7}, {8, 8, 8}, {13, 17, 19}, {26, 36, 18},
		{64, 64, 64}, {5, 128, 9}, {128, 5, 33}, {80, 32, 16}, {31, 52, 64},
		{100, 40, 130}, {26, 64, 64},
	}
	for _, s := range shapes {
		checkGEMM(t, chip, s.m, s.n, s.k, AutoOptions(chip))
	}
}

// TestRunOptionMatrix exercises packing modes, fusion and rotation
// combinations on a non-divisible shape.
func TestRunOptionMatrix(t *testing.T) {
	chip := hw.Graviton2()
	for _, pack := range []PackMode{PackNone, PackOnline, PackOffline} {
		for _, fuse := range []bool{false, true} {
			opts := Options{Pack: pack, Fuse: fuse, Rotate: true}
			checkGEMM(t, chip, 37, 29, 23, opts)
		}
	}
}

// TestRunSmallBlocks forces tiny cache blocks so the grid has multiple
// blocks in every dimension, including k-splitting (accumulation across
// chunks).
func TestRunSmallBlocks(t *testing.T) {
	chip := hw.KP920()
	opts := Options{MC: 10, NC: 12, KC: 9, Pack: PackOnline, Rotate: true, Fuse: true}
	checkGEMM(t, chip, 33, 41, 29, opts)
}

// TestRunStaticStrategies verifies the baseline tilings (padded and
// edge) also compute correct results through the same engine.
func TestRunStaticStrategies(t *testing.T) {
	chip := hw.KP920()
	checkGEMM(t, chip, 26, 36, 20, Options{
		Pack: PackOnline, Rotate: true,
		Strategy: PaddedStrategy(chip),
	})
	checkGEMM(t, chip, 26, 36, 20, Options{
		Pack: PackOnline, Rotate: true, Fuse: true,
		Strategy: EdgeStrategy(chip),
	})
}

// TestRunSVE runs the A64FX configuration end to end.
func TestRunSVE(t *testing.T) {
	chip := hw.A64FX()
	checkGEMM(t, chip, 40, 70, 37, AutoOptions(chip))
}

// TestRunProperty: random shapes and options always match the reference.
func TestRunProperty(t *testing.T) {
	chip := hw.KP920()
	f := func(mr, nr, kr uint8, pack uint8, fuse, rotate bool) bool {
		m := int(mr)%50 + 1
		n := int(nr)%50 + 1
		k := int(kr)%50 + 1
		opts := Options{Pack: PackMode(pack % 3), Fuse: fuse, Rotate: rotate}
		plan, err := NewPlan(chip, m, n, k, opts)
		if err != nil {
			return false
		}
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		c := make([]float32, m*n)
		refgemm.Fill(a, m, k, k, uint64(m))
		refgemm.Fill(b, k, n, n, uint64(n))
		refgemm.Fill(c, m, n, n, uint64(k))
		want := make([]float32, m*n)
		copy(want, c)
		refgemm.GEMM(m, n, k, a, k, b, n, want, n)
		if err := plan.Run(c, a, b); err != nil {
			return false
		}
		return refgemm.MaxRelErr(c, want, m, n, n, n) <= refgemm.Tolerance
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestNewPlanValidation rejects bad problems.
func TestNewPlanValidation(t *testing.T) {
	chip := hw.KP920()
	for _, s := range [][3]int{{0, 4, 4}, {4, 0, 4}, {4, 4, 0}, {-1, 4, 4}} {
		if _, err := NewPlan(chip, s[0], s[1], s[2], Options{}); err == nil {
			t.Errorf("NewPlan(%v) succeeded", s)
		}
	}
	if _, err := NewPlan(nil, 4, 4, 4, Options{}); err == nil {
		t.Error("NewPlan(nil chip) succeeded")
	}
	plan, _ := NewPlan(chip, 8, 8, 8, Options{})
	small := make([]float32, 4)
	if err := plan.Run(small, small, small); err == nil {
		t.Error("Run accepted undersized buffers")
	}
}

// TestRunGraviton3 runs the 256-bit SVE (8-lane) configuration end to
// end — a vector width between NEON and A64FX's SVE-512.
func TestRunGraviton3(t *testing.T) {
	chip, err := hw.ByName("Graviton3")
	if err != nil {
		t.Fatal(err)
	}
	checkGEMM(t, chip, 37, 53, 29, AutoOptions(chip))
	est := estimateForChip(t, chip)
	if est.Efficiency < 0.85 {
		t.Errorf("Graviton3 64^3 efficiency %.1f%%", est.Efficiency*100)
	}
}

func estimateForChip(t *testing.T, chip *hw.Chip) Estimate {
	t.Helper()
	plan, err := NewPlan(chip, 64, 64, 64, AutoOptions(chip))
	if err != nil {
		t.Fatal(err)
	}
	est, err := plan.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestDescribePlan renders blocking, strategy and per-block tilings.
func TestDescribePlan(t *testing.T) {
	chip := hw.KP920()
	plan, err := NewPlan(chip, 26, 36, 20, AutoOptions(chip))
	if err != nil {
		t.Fatal(err)
	}
	desc, err := plan.Describe()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"blocking", "loop order", "packing", "dmt", "micro-tiles"} {
		if !containsStr(desc, want) {
			t.Errorf("Describe missing %q:\n%s", want, desc)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
