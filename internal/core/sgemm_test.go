package core

import (
	"math"
	"testing"
	"testing/quick"

	"autogemm/internal/hw"
	"autogemm/internal/refgemm"
)

// refSGEMM is the straightforward reference for C = α·op(A)·op(B) + β·C.
func refSGEMM(params SGEMMParams, c, a, b []float32, m, n, k int) {
	for i := 0; i < m*n; i++ {
		c[i] *= params.Beta
	}
	at := func(i, l int) float32 {
		if params.TransA == Trans {
			return a[l*m+i]
		}
		return a[i*k+l]
	}
	bt := func(l, j int) float32 {
		if params.TransB == Trans {
			return b[j*k+l]
		}
		return b[l*n+j]
	}
	for i := 0; i < m; i++ {
		for l := 0; l < k; l++ {
			av := params.Alpha * at(i, l)
			for j := 0; j < n; j++ {
				c[i*n+j] += av * bt(l, j)
			}
		}
	}
}

func checkSGEMM(t *testing.T, params SGEMMParams, m, n, k int) {
	t.Helper()
	chip := hw.KP920()
	plan, err := NewPlan(chip, m, n, k, AutoOptions(chip))
	if err != nil {
		t.Fatal(err)
	}
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	refgemm.Fill(a, 1, m*k, m*k, 11)
	refgemm.Fill(b, 1, k*n, k*n, 12)
	refgemm.Fill(c, 1, m*n, m*n, 13)
	want := make([]float32, m*n)
	copy(want, c)
	refSGEMM(params, want, a, b, m, n, k)
	if err := plan.RunSGEMM(params, c, a, b, plan.Run); err != nil {
		t.Fatal(err)
	}
	if e := refgemm.MaxRelErr(c, want, m, n, n, n); e > refgemm.Tolerance {
		t.Errorf("params %+v %dx%dx%d: max rel err %.3g", params, m, n, k, e)
	}
}

// TestSGEMMVariants covers the α/β/transpose matrix on an irregular shape.
func TestSGEMMVariants(t *testing.T) {
	for _, alpha := range []float32{1, 0, -2, 0.5} {
		for _, beta := range []float32{1, 0, 3} {
			for _, ta := range []Transpose{NoTrans, Trans} {
				for _, tb := range []Transpose{NoTrans, Trans} {
					checkSGEMM(t, SGEMMParams{Alpha: alpha, Beta: beta, TransA: ta, TransB: tb},
						13, 21, 9)
				}
			}
		}
	}
}

// TestSGEMMBetaZeroClearsNaN: the BLAS convention — β = 0 must overwrite
// C even when it holds NaN.
func TestSGEMMBetaZeroClearsNaN(t *testing.T) {
	chip := hw.KP920()
	const m, n, k = 5, 8, 4
	plan, err := NewPlan(chip, m, n, k, AutoOptions(chip))
	if err != nil {
		t.Fatal(err)
	}
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	refgemm.Fill(a, m, k, k, 1)
	refgemm.Fill(b, k, n, n, 2)
	nan := float32(math.NaN())
	for i := range c {
		c[i] = nan
	}
	if err := plan.RunSGEMM(SGEMMParams{Alpha: 1, Beta: 0}, c, a, b, plan.Run); err != nil {
		t.Fatal(err)
	}
	for i, v := range c {
		if math.IsNaN(float64(v)) {
			t.Fatalf("c[%d] is NaN after beta=0", i)
		}
	}
}

// TestSGEMMAlphaZero: α = 0 reduces to C = β·C without touching A/B.
func TestSGEMMAlphaZero(t *testing.T) {
	chip := hw.KP920()
	plan, _ := NewPlan(chip, 4, 4, 4, AutoOptions(chip))
	c := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	var a, b [16]float32
	if err := plan.RunSGEMM(SGEMMParams{Alpha: 0, Beta: 2}, c, a[:], b[:], plan.Run); err != nil {
		t.Fatal(err)
	}
	if c[0] != 2 || c[15] != 32 {
		t.Errorf("alpha=0 path wrong: %v", c)
	}
}

// TestSGEMMProperty: random parameters and shapes agree with the
// reference.
func TestSGEMMProperty(t *testing.T) {
	f := func(mr, nr, kr uint8, alphaRaw, betaRaw int8, ta, tb bool) bool {
		m := int(mr)%20 + 1
		n := int(nr)%20 + 1
		k := int(kr)%20 + 1
		params := SGEMMParams{
			Alpha: float32(alphaRaw) / 16, Beta: float32(betaRaw) / 16,
			TransA: Transpose(ta), TransB: Transpose(tb),
		}
		chip := hw.Graviton2()
		plan, err := NewPlan(chip, m, n, k, AutoOptions(chip))
		if err != nil {
			return false
		}
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		c := make([]float32, m*n)
		refgemm.Fill(a, 1, m*k, m*k, uint64(m*3+1))
		refgemm.Fill(b, 1, k*n, k*n, uint64(n*5+2))
		refgemm.Fill(c, 1, m*n, m*n, uint64(k*7+3))
		want := make([]float32, m*n)
		copy(want, c)
		refSGEMM(params, want, a, b, m, n, k)
		if err := plan.RunSGEMM(params, c, a, b, plan.Run); err != nil {
			return false
		}
		return refgemm.MaxRelErr(c, want, m, n, n, n) <= refgemm.Tolerance
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSGEMMSizeValidation rejects undersized buffers.
func TestSGEMMSizeValidation(t *testing.T) {
	chip := hw.KP920()
	plan, _ := NewPlan(chip, 8, 8, 8, AutoOptions(chip))
	small := make([]float32, 4)
	if err := plan.RunSGEMM(DefaultSGEMM(), small, small, small, plan.Run); err == nil {
		t.Error("undersized buffers accepted")
	}
}
