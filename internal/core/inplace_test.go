package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"autogemm/internal/hw"
	"autogemm/internal/refgemm"
	"autogemm/internal/sched"
)

// inPlaceCases are PackNone blockings on the 4-lane KP920: one block
// and many, N a multiple of 4 and not, with bottom (MB < MC) and right
// (NB < NC) edge blocks and a last k block shorter than KC.
var inPlaceCases = []struct {
	m, n, k    int
	mc, nc, kc int
}{
	{24, 32, 20, 0, 0, 0},     // one block, N mod 4 = 0
	{9, 30, 7, 0, 0, 0},       // one block, N mod 4 ≠ 0
	{37, 48, 50, 16, 16, 16},  // bottom edge, k edge, N mod 4 = 0
	{37, 46, 50, 16, 16, 16},  // bottom and right edge, N mod 4 ≠ 0
	{21, 40, 33, 8, 24, 32},   // right edge NB = 16, k edge KB = 1
	{5, 13, 9, 4, 8, 4},       // tiny blocks on every edge
	{64, 64, 64, 32, 32, 32},  // even grid
	{19, 100, 40, 20, 36, 40}, // one m and k block, right edge NB = 28
}

// inPlaceFits counts the blocks of p whose kernel launches all fit A
// (M·K) and B (K·N) read in place, from the tiling alone: a launch of
// an MR-row band at block row r and column col, w columns wide, reads
// A up to (MOff+r+MR−1)·K + KOff + KB and B up to
// (KOff+KB−1)·N + NOff + col + w. These are a generated kernel's exact
// extents, with none of its declared over-read slack.
func inPlaceFits(p *Plan) int {
	fits := 0
	for _, blk := range p.blocks() {
		ok := true
		for _, bd := range p.progs[[3]int{blk.MB, blk.NB, blk.KB}].tl.Bands(p.Chip.Lanes) {
			for _, cl := range p.calls(bd, blk.KB) {
				for i := 0; i < cl.Count; i++ {
					col := cl.Col + i*cl.Width
					if (blk.MOff+bd.Row+bd.MR-1)*p.K+blk.KOff+blk.KB > p.M*p.K ||
						(blk.KOff+blk.KB-1)*p.N+blk.NOff+col+cl.Width > p.K*p.N {
						ok = false
					}
				}
			}
		}
		if ok {
			fits++
		}
	}
	return fits
}

// TestReadsInPlace: a PackNone plan's blocks read A and B in place
// exactly when all their calls fit there, and the rest pack. Over
// inPlaceCases its C bit-matches ForceInterp and PackOnline plans of
// the same blocking under Run, and RunParallel(…, 2) and Submit over
// shared read-only operands from several goroutines (run it with
// -race) bit-match serial Run. ABInPlaceBlocks counts exactly the
// blocks that fit (inPlaceFits), PackedBlocks the others; a ForceInterp
// plan reads nothing in place.
func TestReadsInPlace(t *testing.T) {
	chip := hw.KP920()
	pool := sched.New(2, 0)
	defer pool.Close()
	sawFallback, sawWhole := false, false
	for _, tc := range inPlaceCases {
		plan := func(pack PackMode, interp bool) *Plan {
			t.Helper()
			opts := AutoOptions(chip)
			opts.MC, opts.NC, opts.KC, opts.Pack = tc.mc, tc.nc, tc.kc, pack
			opts.ForceInterp, opts.Runtime = interp, pool
			p, err := NewPlan(chip, tc.m, tc.n, tc.k, opts)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		none, interp, online := plan(PackNone, false), plan(PackNone, true), plan(PackOnline, false)
		if none.Opts.MC != online.Opts.MC || none.Opts.NC != online.Opts.NC || none.Opts.KC != online.Opts.KC {
			t.Fatalf("%dx%dx%d: PackNone blocking %+v differs from PackOnline %+v", tc.m, tc.n, tc.k, none.Opts, online.Opts)
		}
		a, b, c0 := make([]float32, tc.m*tc.k), make([]float32, tc.k*tc.n), make([]float32, tc.m*tc.n)
		refgemm.Fill(a, tc.m, tc.k, tc.k, uint64(tc.m))
		refgemm.Fill(b, tc.k, tc.n, tc.n, uint64(tc.n))
		refgemm.Fill(c0, tc.m, tc.n, tc.n, uint64(tc.k))
		run := func(p *Plan) []float32 {
			t.Helper()
			c := append([]float32(nil), c0...)
			if err := p.Run(c, a, b); err != nil {
				t.Fatalf("%s: %v", planName(p), err)
			}
			return c
		}
		want := run(none)
		for _, p := range []*Plan{interp, online} {
			requireBits(t, planName(p), run(p), want)
		}
		ref := append([]float32(nil), c0...)
		refgemm.GEMM(tc.m, tc.n, tc.k, a, tc.k, b, tc.n, ref, tc.n)
		if e := refgemm.MaxRelErr(want, ref, tc.m, tc.n, tc.n, tc.n); e > refgemm.Tolerance {
			t.Errorf("%s: max rel err %.3g", planName(none), e)
		}

		blocks, fits := int64(len(none.blocks())), int64(inPlaceFits(none))
		if st := none.Stats(); st.ABInPlaceBlocks != fits || st.PackedBlocks != blocks-fits || st.InterpBlocks != 0 || st.InPlaceBlocks != 0 {
			t.Errorf("%s: stats %+v over %d blocks, want %d in place and the rest packed", planName(none), st, blocks, fits)
		}
		if st := interp.Stats(); st.ABInPlaceBlocks != 0 || st.InterpBlocks != blocks {
			t.Errorf("%s: stats %+v over %d blocks, want every block interpreted over packed panels", planName(interp), st, blocks)
		}
		if st := online.Stats(); st.ABInPlaceBlocks != 0 || st.PackedBlocks != blocks {
			t.Errorf("%s: stats %+v over %d blocks, want every block packed", planName(online), st, blocks)
		}
		sawFallback = sawFallback || fits < blocks
		sawWhole = sawWhole || (fits == blocks && blocks > 1)
		if tc.n%4 == 0 && fits != blocks {
			t.Errorf("%s: N mod 4 = 0, but only %d of %d blocks fit in place", planName(none), fits, blocks)
		}

		// Shared read-only A and B, one C per goroutine.
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < 3; r++ {
					c := append([]float32(nil), c0...)
					var err error
					if g%2 == 0 {
						err = none.RunParallel(c, a, b, 2)
					} else {
						var f *RunFuture
						if f, err = none.Submit(context.Background(), c, a, b, 0, sched.QoS{}); err == nil {
							err = f.Wait()
						}
					}
					if err != nil {
						t.Errorf("%s goroutine %d: %v", planName(none), g, err)
						return
					}
					for i := range c {
						if math.Float32bits(c[i]) != math.Float32bits(want[i]) {
							t.Errorf("%s goroutine %d: C[%d] = %g, want %g", planName(none), g, i, c[i], want[i])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
	if !sawFallback || !sawWhole {
		t.Errorf("cases exercise fallback %v, a whole multi-block plan in place %v; want both", sawFallback, sawWhole)
	}
}

// planName labels a plan in failures: its mode, shape and blocking.
func planName(p *Plan) string {
	return fmt.Sprintf("%v %dx%dx%d blocks %d/%d/%d interp %v", p.Opts.Pack, p.M, p.N, p.K, p.Opts.MC, p.Opts.NC, p.Opts.KC, p.interpOnly)
}

// requireBits fails unless got and want are equal bit for bit.
func requireBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: C[%d] = %g, want %g", name, i, got[i], want[i])
		}
	}
}

// TestOverlapRefused: Run and Submit refuse a C that shares memory with
// A or B with ErrOverlap, before any work, on sub-slices of one backing
// array; A and B overlapping each other is a valid call.
func TestOverlapRefused(t *testing.T) {
	chip := hw.KP920()
	const m, n, k = 6, 8, 5
	p, err := NewPlan(chip, m, n, k, AutoOptions(chip))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float32, 4*(m*k+k*n+m*n))
	refgemm.Fill(buf, 1, len(buf), len(buf), 5)
	for _, tc := range []struct {
		name       string
		aOff, bOff int
		cOff       int
		overlap    bool
	}{
		{"C on A", 0, 200, 0, true},
		{"C ends in A's first element", 100, 250, 100 - m*n + 1, true},
		{"C starts at A's last element", 0, 200, m*k - 1, true},
		{"C inside B", 0, 100, 110, true},
		{"C over A and B", 0, m * k, 10, true},
		{"C after A and B", 0, m * k, m*k + k*n, false},
		{"C just before A", m * n, m*n + m*k, 0, false},
		{"A and B overlap", 0, 3, 200, false},
	} {
		a, b, c := buf[tc.aOff:tc.aOff+m*k], buf[tc.bOff:tc.bOff+k*n], buf[tc.cOff:tc.cOff+m*n]
		before := append([]float32(nil), buf...)
		want := append([]float32(nil), c...)
		refgemm.GEMM(m, n, k, a, k, b, n, want, n)
		for _, submit := range []bool{false, true} {
			copy(buf, before)
			if submit {
				var f *RunFuture
				if f, err = p.Submit(context.Background(), c, a, b, 0, sched.QoS{}); err == nil {
					err = f.Wait()
				}
			} else {
				err = p.Run(c, a, b)
			}
			if !tc.overlap {
				if err != nil {
					t.Fatalf("%s (submit %v): %v", tc.name, submit, err)
				}
				if e := refgemm.MaxRelErr(c, want, m, n, n, n); e > refgemm.Tolerance {
					t.Errorf("%s (submit %v): max rel err %.3g", tc.name, submit, e)
				}
				continue
			}
			if !errors.Is(err, ErrOverlap) {
				t.Fatalf("%s (submit %v): err %v, want ErrOverlap", tc.name, submit, err)
			}
			requireBits(t, tc.name+": refused run's buffer", buf, before)
		}
	}
}
