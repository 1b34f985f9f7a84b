package core

import (
	"math"
	"testing"

	"autogemm/internal/hw"
	"autogemm/internal/refgemm"
)

// TestRunBackendsBitIdentical: the compiled backend must produce the
// same bits as the forced-interpreter path for whole plans, across
// packing modes and loop orders. Padding and scratch contents differ
// between the paths, but no padded lane may ever leak into the real C
// region, so the comparison is exact.
func TestRunBackendsBitIdentical(t *testing.T) {
	chip := hw.KP920()
	const m, n, k = 37, 53, 29
	for _, pack := range []PackMode{PackNone, PackOnline, PackOffline} {
		for _, order := range []LoopOrder{OrderMNK, OrderKNM} {
			for _, fuse := range []bool{false, true} {
				opts := Options{MC: 16, NC: 24, KC: 12, Order: order,
					Pack: pack, Rotate: true, Fuse: fuse}
				a := make([]float32, m*k)
				b := make([]float32, k*n)
				refgemm.Fill(a, m, k, k, 11)
				refgemm.Fill(b, k, n, n, 12)
				cInit := make([]float32, m*n)
				refgemm.Fill(cInit, m, n, n, 13)

				run := func(force bool) []float32 {
					t.Helper()
					o := opts
					o.ForceInterp = force
					plan, err := NewPlan(chip, m, n, k, o)
					if err != nil {
						t.Fatal(err)
					}
					c := append([]float32(nil), cInit...)
					if err := plan.Run(c, a, b); err != nil {
						t.Fatalf("pack=%v order=%v fuse=%v force=%v: %v",
							pack, order, fuse, force, err)
					}
					if force {
						st := plan.Stats()
						if st.InterpBlocks == 0 || st.InPlaceBlocks+st.ABInPlaceBlocks+st.PackedBlocks != 0 {
							t.Fatalf("ForceInterp ran compiled blocks: %+v", st)
						}
					}
					return c
				}
				want := run(true)
				got := run(false)
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("pack=%v order=%v fuse=%v: C[%d] compiled %g != interpreted %g",
							pack, order, fuse, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestRunUsesCompiledPaths: a default plan must actually exercise the
// compiled backend, and a PackNone plan with slack-padded operands must
// hit the in-place fast path on interior blocks.
func TestRunUsesCompiledPaths(t *testing.T) {
	chip := hw.KP920()
	const m, n, k = 48, 64, 24
	opts := Options{MC: 16, NC: 16, KC: 24, Pack: PackNone, Rotate: true, Fuse: true}
	plan, err := NewPlan(chip, m, n, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Slack beyond the minimal extents lets edge blocks pass the
	// over-read prechecks and stay in place: A over-reads up to one
	// vector per row, B up to BOverRows full rows.
	a := make([]float32, m*k+4*chip.Lanes)
	b := make([]float32, k*n+2*n+4*chip.Lanes)
	c := make([]float32, m*n)
	refgemm.Fill(a[:m*k], m, k, k, 21)
	refgemm.Fill(b[:k*n], k, n, n, 22)

	want := make([]float32, m*n)
	refgemm.GEMM(m, n, k, a, k, b, n, want, n)
	if err := plan.Run(c, a, b); err != nil {
		t.Fatal(err)
	}
	if e := refgemm.MaxRelErr(c[:m*n], want, m, n, n, n); e > refgemm.Tolerance {
		t.Fatalf("max rel err %.3g", e)
	}
	st := plan.Stats()
	if st.InterpBlocks != 0 {
		t.Errorf("default plan fell back to the interpreter: %+v", st)
	}
	if st.InPlaceBlocks == 0 {
		t.Errorf("PackNone plan with slack never ran in place: %+v", st)
	}
}
