package core

import (
	"errors"
	"math"
	"testing"

	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
	"autogemm/internal/refgemm"
	"autogemm/internal/sim/compile"
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

// halton returns the i-th point of the base-b Halton sequence in [0, 1).
func halton(i, b int) float64 {
	f, r := 1.0, 0.0
	for ; i > 0; i /= b {
		f /= float64(b)
		r += f * float64(i%b)
	}
	return r
}

// TestEveryChipRunsPacked: on every modeled chip and packing choice,
// Halton-spread irregular shapes (1–200 per dimension, log-uniform) go
// Produce → Attach → Run, match the reference, and run every block on
// the one packed compiled path — none on the interpreter.
func TestEveryChipRunsPacked(t *testing.T) {
	const shapes = 12
	dim := func(i, b int) int { return max(1, int(math.Round(math.Pow(200, halton(i, b))))) }
	for _, chip := range hw.All() {
		kernels := mkernel.NewCache()
		for i := 1; i <= shapes; i++ {
			m, n, k := dim(i, 2), dim(i, 3), dim(i, 5)
			a := make([]float32, m*k)
			b := make([]float32, k*n)
			c0 := make([]float32, m*n)
			refgemm.Fill(a, m, k, k, uint64(3*i))
			refgemm.Fill(b, k, n, n, uint64(3*i+1))
			refgemm.Fill(c0, m, n, n, uint64(3*i+2))
			want := append([]float32(nil), c0...)
			refgemm.GEMM(m, n, k, a, k, b, n, want, n)
			for _, pack := range []PackMode{PackNone, PackOnline, PackAuto} {
				opts := AutoOptions(chip)
				opts.Pack, opts.Kernels = pack, kernels
				rec, err := Produce(chip, m, n, k, opts)
				if err != nil {
					t.Fatalf("%s %dx%dx%d pack=%v: Produce: %v", chip.Name, m, n, k, pack, err)
				}
				opts.TrustedPlan = true
				p, err := Attach(chip, rec, opts)
				if err != nil {
					t.Fatalf("%s %dx%dx%d pack=%v: Attach: %v", chip.Name, m, n, k, pack, err)
				}
				c := append([]float32(nil), c0...)
				if err := p.Run(c, a, b); err != nil {
					t.Fatalf("%s %dx%dx%d pack=%v: Run: %v", chip.Name, m, n, k, pack, err)
				}
				if e := refgemm.MaxRelErr(c, want, m, n, n, n); e > refgemm.Tolerance {
					t.Errorf("%s %dx%dx%d pack=%v: max rel err %.3g", chip.Name, m, n, k, pack, e)
				}
				st := p.Stats()
				if st.PackedBlocks != int64(len(p.blocks())) || st.InterpBlocks != 0 {
					t.Errorf("%s %dx%dx%d pack=%v: %d blocks, stats %+v",
						chip.Name, m, n, k, pack, len(p.blocks()), st)
				}
			}
		}
	}
}

// TestBlockFaultLeavesCUntouched: a kernel call that fails its precheck
// (here against a cut B panel) fails the block with compile.ErrBounds
// after an earlier call has written the staging buffer, and C is not
// touched.
func TestBlockFaultLeavesCUntouched(t *testing.T) {
	chip := hw.KP920()
	const m, n, k = 10, 41, 9
	p, err := NewPlan(chip, m, n, k, Options{MC: 16, NC: 48, KC: 16, Pack: PackOnline})
	if err != nil {
		t.Fatal(err)
	}
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	refgemm.Fill(a, m, k, k, 31)
	refgemm.Fill(b, k, n, n, 32)
	refgemm.Fill(c, m, n, n, 33)
	c0 := append([]float32(nil), c...)

	blk := p.blocks()[0]
	if blk.MB != m || blk.NB != n || blk.KB != k {
		t.Fatalf("want one block, got %+v", blk)
	}
	bp, err := p.blockProgram(blk)
	if err != nil {
		t.Fatal(err)
	}
	// Cut B to what the first call reads (it starts at column 0): the
	// first call runs, and a later one, further right, is refused.
	st := p.newState()
	ld := p.scratch.LD
	st.packB = st.packB[:bp.calls[0].cp.Bounds.BExtent(int64(ld))]
	err = p.runBlock(st, blk, c, a, b)
	if !errors.Is(err, compile.ErrBounds) {
		t.Fatalf("runBlock on a short B panel: %v, want ErrBounds", err)
	}
	for i := range c {
		if math.Float32bits(c[i]) != math.Float32bits(c0[i]) {
			t.Fatalf("failed block wrote C[%d]: %g, was %g", i, c[i], c0[i])
		}
	}
	if got := p.Stats().PackedBlocks; got != 0 {
		t.Errorf("failed block counted: PackedBlocks %d", got)
	}
	// The fault must come after a call that wrote the staging buffer, or
	// copying it back early would leave C as it was and go unnoticed.
	staged := true
	for i := 0; i < m && staged; i++ {
		for j := 0; j < n; j++ {
			if st.cBuf[i*ld+j] != c0[i*n+j] {
				staged = false
				break
			}
		}
	}
	if staged {
		t.Fatal("no call ran before the fault; the test cannot see an early copy-back")
	}
}
