package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
	"autogemm/internal/refgemm"
	"autogemm/internal/sched"
	"autogemm/internal/sim/compile"
)

// TestRunBackendsBitIdentical: the compiled backend must produce the
// same bits as the forced-interpreter path for whole plans, across
// packing modes and fusion. Padding and scratch contents differ
// between the paths, but no padded lane may ever leak into the real C
// region, so the comparison is exact.
func TestRunBackendsBitIdentical(t *testing.T) {
	chip := hw.KP920()
	const m, n, k = 37, 53, 29
	for _, pack := range []PackMode{PackNone, PackOnline, PackOffline} {
		for _, fuse := range []bool{false, true} {
			opts := Options{MC: 16, NC: 24, KC: 12, Pack: pack, Rotate: true, Fuse: fuse}
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
					t.Fatalf("pack=%v fuse=%v force=%v: %v",
						pack, fuse, force, err)
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
					t.Fatalf("pack=%v fuse=%v: C[%d] compiled %g != interpreted %g",
						pack, fuse, i, got[i], want[i])
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
// Produce → Attach → Run, match the reference, and run every block
// compiled — none on the interpreter — either packed or, on a 4-lane
// PackNone plan, reading A and B in place.
func TestEveryChipRunsPacked(t *testing.T) {
	dim := func(i, b int) int { return max(1, int(math.Round(math.Pow(200, halton(i, b))))) }
	var shapes [][3]int
	for i := 1; i <= 12; i++ {
		shapes = append(shapes, [3]int{dim(i, 2), dim(i, 3), dim(i, 5)})
	}
	// Every Halton shape has N mod 4 ≠ 0, so two more read in place.
	shapes = append(shapes, [3]int{24, 32, 20}, [3]int{7, 12, 45})
	sawInPlace := false
	for _, chip := range hw.All() {
		kernels := mkernel.NewCache()
		for i0, s := range shapes {
			i, m, n, k := i0+1, s[0], s[1], s[2]
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
				if st.PackedBlocks+st.ABInPlaceBlocks != int64(len(p.blocks())) || st.InterpBlocks != 0 || st.InPlaceBlocks != 0 {
					t.Errorf("%s %dx%dx%d pack=%v: %d blocks, stats %+v",
						chip.Name, m, n, k, pack, len(p.blocks()), st)
				}
				// A 4-lane PackNone plan reads A and B in place wherever its
				// calls fit them: every block when N mod 4 = 0, none but
				// the ones clear of B's last row when its right-edge
				// tiles overhang N. No other plan reads in place.
				inPlace := p.Opts.Pack == PackNone && chip.Lanes == 4
				if !inPlace && st.ABInPlaceBlocks != 0 || inPlace && n%4 == 0 && st.ABInPlaceBlocks != int64(len(p.blocks())) {
					t.Errorf("%s %dx%dx%d pack=%v (resolved %v): %d of %d blocks read A and B in place",
						chip.Name, m, n, k, pack, p.Opts.Pack, st.ABInPlaceBlocks, len(p.blocks()))
				}
				if inPlace && n%4 == 0 {
					sawInPlace = true
				}

			}
		}
	}
	if !sawInPlace {
		t.Error("no 4-lane PackNone plan with N mod 4 = 0 among the shapes: the in-place path went unchecked")
	}
}

// TestBlockFaultLeavesCUntouched: a block whose layout its Run refuses
// in the second k block of a C-tile group fails the group with
// compile.ErrBounds after the first block has written the staging
// buffer, and the whole C tile is left untouched: runGroup copies C
// back only once every block has succeeded.
func TestBlockFaultLeavesCUntouched(t *testing.T) {
	chip := hw.KP920()
	const m, n, k = 10, 41, 25
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

	if len(p.groups) != 1 || len(p.groups[0]) != 2 {
		t.Fatalf("want one C-tile group of two k blocks, got %d groups, first %+v", len(p.groups), p.groups[0])
	}
	g := p.groups[0]
	if blk := g[0]; blk.MB != m || blk.NB != n || blk.KOff != 0 || g[1].KOff != blk.KB {
		t.Fatalf("want the group to cover C with k blocks ascending, got %+v", g)
	}
	// Rebuild the second block's packed layout with its second call
	// past the B panel: the block's reach no longer fits, and its Run is
	// refused before any call.
	bp, err := p.blockProgram(g[1])
	if err != nil {
		t.Fatal(err)
	}
	st := &execState{}
	p.fit(st, 1)
	var cps []*compile.Program
	var at [][2]int
	for _, bd := range bp.tl.Bands(p.Chip.Lanes) {
		for _, cl := range p.calls(bd, g[1].KB) {
			cp, err := p.kernels.Compiled(cl.Spec)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < cl.Count; i++ {
				cps, at = append(cps, cp), append(at, [2]int{bd.Row, cl.Col + i*cl.Width})
			}
		}
	}
	if len(at) < 2 {
		t.Fatalf("second k block has %d calls, want at least 2", len(at))
	}
	at[1][1] = len(st.packB)
	ld := p.scratch.LD
	bp.packed = blockLayout(cps, at, g[1].KB, ld, ld)
	err = p.runGroup(st, g, c, a, b)
	if !errors.Is(err, compile.ErrBounds) {
		t.Fatalf("runGroup with a call past the B panel: %v, want ErrBounds", err)
	}
	for i := range c {
		if math.Float32bits(c[i]) != math.Float32bits(c0[i]) {
			t.Fatalf("failed group wrote C[%d]: %g, was %g", i, c[i], c0[i])
		}
	}
	if got := p.Stats().PackedBlocks; got != 0 {
		t.Errorf("failed group counted: PackedBlocks %d", got)
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

// TestScratchCrossesPlans: one participant's scratch serves every plan
// it runs. On a 1-worker pool, blocking runs (the caller slot) and
// submitted jobs (pool worker 0) interleave over plans with different
// envelopes and leading dimensions — small, a ForceInterp plan, large,
// a 16-lane A64FX plan that outgrows large in C staging alone, a
// 16-lane ForceInterp plan, then the earlier ones again. Every C bit-matches the reference. After
// every step each ID still holds the one state it built first, its
// arena regions the largest envelope that ID has run.
func TestScratchCrossesPlans(t *testing.T) {
	pool := sched.New(1, 0)
	defer pool.Close()
	type gemm struct {
		p       *Plan
		a, b    []float32
		c0, ref []float32
	}
	mk := func(chip *hw.Chip, m, n, k int, opts Options) *gemm {
		t.Helper()
		opts.Runtime = pool
		p, err := NewPlan(chip, m, n, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		g := &gemm{p: p, a: make([]float32, m*k), b: make([]float32, k*n), c0: make([]float32, m*n)}
		refgemm.Fill(g.a, m, k, k, uint64(m))
		refgemm.Fill(g.b, k, n, n, uint64(n))
		refgemm.Fill(g.c0, m, n, n, uint64(k))
		g.ref = append([]float32(nil), g.c0...)
		refgemm.GEMM(m, n, k, g.a, k, g.b, n, g.ref, n)
		return g
	}
	kp, a64 := hw.KP920(), hw.A64FX()
	small := mk(kp, 9, 13, 7, AutoOptions(kp))
	interp := mk(kp, 37, 53, 29, Options{MC: 16, NC: 24, KC: 12, Pack: PackOnline, Rotate: true, Fuse: true, ForceInterp: true})
	large := mk(kp, 150, 140, 90, AutoOptions(kp))
	wide := mk(a64, 40, 400, 16, AutoOptions(a64))
	wideInterp := mk(a64, 12, 40, 9, Options{Pack: PackOnline, Rotate: true, Fuse: true, ForceInterp: true})
	if ls, ws := large.p.scratch, wide.p.scratch; ls.LD == small.p.scratch.LD || ws.CBuf <= ls.CBuf || ws.PackA >= ls.PackA {
		t.Fatalf("envelopes do not exercise growth: small %+v, large %+v, wide %+v", small.p.scratch, ls, ws)
	}

	const (
		run      = iota
		parallel // capped at the pool's one worker: runs on the caller
		submit
	)
	exec := func(g *gemm, how int) {
		t.Helper()
		c := append([]float32(nil), g.c0...)
		var err error
		switch how {
		case run:
			err = g.p.Run(c, g.a, g.b)
		case parallel:
			err = g.p.RunParallel(c, g.a, g.b, 2)
		default:
			var f *RunFuture
			if f, err = g.p.Submit(context.Background(), c, g.a, g.b, 1, sched.QoS{}); err == nil {
				err = f.Wait()
			}
		}
		if err != nil {
			t.Fatalf("%dx%dx%d on %s (mode %d): %v", g.p.M, g.p.N, g.p.K, g.p.Chip.Name, how, err)
		}
		for i := range c {
			if math.Float32bits(c[i]) != math.Float32bits(g.ref[i]) {
				t.Fatalf("%dx%dx%d on %s (mode %d): C[%d] = %g, reference %g",
					g.p.M, g.p.N, g.p.K, g.p.Chip.Name, how, i, c[i], g.ref[i])
			}
		}
	}
	// states reads the scratch held by pool worker 0 and by the caller
	// slot a lone blocking run borrows.
	states := func() (worker, caller *execState) {
		t.Helper()
		f, err := pool.Submit(1, 1, func(w *sched.Worker, _ int) error {
			worker, _ = (*w.Local()).(*execState)
			return nil
		})
		if err == nil {
			err = f.Wait()
		}
		if err == nil {
			_, err = pool.RunQoS(context.Background(), 1, 1, sched.QoS{}, func(w *sched.Worker, _ int) error {
				caller, _ = (*w.Local()).(*execState)
				return nil
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		return worker, caller
	}

	var first [2]*execState // by ID: worker, caller
	var want [2]mkernel.Scratch
	for i, s := range []struct {
		g   *gemm
		how int
	}{
		{small, run}, {small, submit}, {interp, submit}, {interp, parallel},
		{large, run}, {large, submit}, {wide, submit}, {wide, parallel},
		{interp, run}, {interp, submit}, {wideInterp, parallel}, {wideInterp, submit},
		{interp, submit}, {interp, run}, {small, parallel}, {small, submit},
		{large, submit}, {large, parallel}, {wide, run}, {wide, submit},
	} {
		exec(s.g, s.how)
		id := 1
		if s.how == submit {
			id = 0
		}
		sc := s.g.p.scratch
		want[id] = mkernel.Scratch{PackA: max(want[id].PackA, sc.PackA), PackB: max(want[id].PackB, sc.PackB), CBuf: max(want[id].CBuf, sc.CBuf)}
		w, c := states()
		for j, st := range []*execState{w, c} {
			name := [2]string{"worker", "caller"}[j]
			switch {
			case want[j] == mkernel.Scratch{}:
				if st != nil {
					t.Fatalf("step %d: %s holds a state before running a plan", i, name)
				}
				continue
			case first[j] == nil:
				first[j] = st
			}
			if st != first[j] {
				t.Fatalf("step %d: %s state replaced (%p, was %p)", i, name, st, first[j])
			}
			if st.size != want[j] {
				t.Fatalf("step %d: %s arena regions %+v, want the largest envelope run %+v", i, name, st.size, want[j])
			}
		}
	}
	if first[0] == first[1] {
		t.Fatal("worker and caller share a state")
	}
}
