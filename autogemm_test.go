package autogemm

import (
	"context"
	"strings"
	"testing"

	"autogemm/internal/refgemm"
)

func TestNewAndChips(t *testing.T) {
	for _, name := range Chips() {
		e, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if e.ChipName() != name || e.PeakGFLOPS() <= 0 || e.Lanes() < 4 {
			t.Errorf("engine for %s misconfigured", name)
		}
	}
	if _, err := New("Itanium"); err == nil {
		t.Error("New accepted an unknown chip")
	}
}

func TestMultiplyMatchesReference(t *testing.T) {
	e, err := New("KP920")
	if err != nil {
		t.Fatal(err)
	}
	const m, n, k = 26, 36, 20
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	refgemm.Fill(a, m, k, k, 1)
	refgemm.Fill(b, k, n, n, 2)
	refgemm.Fill(c, m, n, n, 3)
	want := make([]float32, m*n)
	copy(want, c)
	refgemm.GEMM(m, n, k, a, k, b, n, want, n)
	if err := e.Multiply(c, a, b, m, n, k); err != nil {
		t.Fatal(err)
	}
	if got := refgemm.MaxRelErr(c, want, m, n, n, n); got > refgemm.Tolerance {
		t.Errorf("max rel err %.3g", got)
	}
}

func TestMultiplyWithOptions(t *testing.T) {
	e, _ := New("Graviton2")
	const m, n, k = 19, 27, 31
	opts := &Options{MC: 10, NC: 12, KC: 8, Order: "KNM", Pack: "online"}
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	refgemm.Fill(a, m, k, k, 4)
	refgemm.Fill(b, k, n, n, 5)
	want := make([]float32, m*n)
	refgemm.GEMM(m, n, k, a, k, b, n, want, n)
	if err := e.MultiplyContext(context.Background(), GEMM{C: c, A: a, B: b, M: m, N: n, K: k, Opts: opts}); err != nil {
		t.Fatal(err)
	}
	if got := refgemm.MaxRelErr(c, want, m, n, n, n); got > refgemm.Tolerance {
		t.Errorf("max rel err %.3g", got)
	}
}

func TestOptionValidation(t *testing.T) {
	e, _ := New("KP920")
	buf := make([]float32, 64)
	if err := e.MultiplyContext(context.Background(), GEMM{C: buf, A: buf, B: buf, M: 4, N: 4, K: 4, Opts: &Options{Order: "XYZ"}}); err == nil {
		t.Error("bad loop order accepted")
	}
	if err := e.MultiplyContext(context.Background(), GEMM{C: buf, A: buf, B: buf, M: 4, N: 4, K: 4, Opts: &Options{Pack: "sideways"}}); err == nil {
		t.Error("bad pack mode accepted")
	}
	if _, err := e.Estimate(0, 4, 4, nil); err == nil {
		t.Error("degenerate problem accepted")
	}
}

func TestEstimateAndProviders(t *testing.T) {
	e, _ := New("Graviton2")
	perf, err := e.Estimate(64, 64, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if perf.Efficiency < 0.85 || perf.Efficiency > 1 {
		t.Errorf("64^3 efficiency %.2f out of expected range", perf.Efficiency)
	}
	ob, err := e.EstimateProvider("OpenBLAS", 64, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ob.GFLOPS >= perf.GFLOPS {
		t.Errorf("OpenBLAS model (%.1f) should trail autoGEMM (%.1f)", ob.GFLOPS, perf.GFLOPS)
	}
	if _, err := e.EstimateProvider("SSL2", 64, 64, 64); err == nil {
		t.Error("SSL2 should be A64FX-only")
	}
	if _, err := e.EstimateProvider("CUBLAS", 8, 8, 8); err == nil {
		t.Error("unknown provider accepted")
	}
	if len(Providers()) < 7 {
		t.Errorf("Providers() = %v", Providers())
	}
}

func TestTuneAPI(t *testing.T) {
	e, _ := New("M2")
	opts, perf, err := e.Tune(26, 36, 20, 6)
	if err != nil {
		t.Fatal(err)
	}
	if perf.GFLOPS <= 0 {
		t.Error("tuned perf empty")
	}
	// The tuned options must round-trip through GEMM.Opts.
	a := make([]float32, 26*20)
	b := make([]float32, 20*36)
	c := make([]float32, 26*36)
	refgemm.Fill(a, 26, 20, 20, 1)
	refgemm.Fill(b, 20, 36, 36, 2)
	want := make([]float32, 26*36)
	refgemm.GEMM(26, 36, 20, a, 20, b, 36, want, 36)
	if err := e.MultiplyContext(context.Background(), GEMM{C: c, A: a, B: b, M: 26, N: 36, K: 20, Opts: &opts}); err != nil {
		t.Fatal(err)
	}
	if got := refgemm.MaxRelErr(c, want, 26, 36, 36, 36); got > refgemm.Tolerance {
		t.Errorf("tuned multiply wrong: %.3g", got)
	}
}

func TestGenerateKernelText(t *testing.T) {
	e, _ := New("KP920")
	asm, err := e.GenerateKernel(5, 16, 32, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fmla", "ldr q", "subs", "b.ne", "ret", "prfm"} {
		if !strings.Contains(asm, want) {
			t.Errorf("generated assembly missing %q", want)
		}
	}
	if _, err := e.GenerateKernel(12, 16, 32, false); err == nil {
		t.Error("infeasible tile accepted")
	}
}

func TestPreferredTiles(t *testing.T) {
	e, _ := New("KP920")
	tiles := e.PreferredTiles()
	want := map[string]bool{"8x8": true, "6x12": true, "5x16": true, "4x20": true}
	if len(tiles) != 4 {
		t.Fatalf("PreferredTiles = %v", tiles)
	}
	for _, tl := range tiles {
		if !want[tl] {
			t.Errorf("unexpected preferred tile %s", tl)
		}
	}
}

func TestGenerateKernelSAndWords(t *testing.T) {
	e, _ := New("KP920")
	s, err := e.GenerateKernelS(4, 16, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{".global mk_4x16x16_l4_rot", "stp x29, x30", "fmla", ".size"} {
		if !strings.Contains(s, want) {
			t.Errorf(".S output missing %q", want)
		}
	}
	w, err := e.GenerateKernelWords(4, 16, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w, ".word 0x") {
		t.Error("no machine words emitted")
	}
	// The SVE chip's 16-lane FMLA indices have no .4s encoding.
	a64, _ := New("A64FX")
	if _, err := a64.GenerateKernelWords(4, 32, 16, false); err == nil {
		t.Error("SVE kernel should not encode to NEON words")
	}
}
