package core

import (
	"context"
	"math"
	"testing"

	"autogemm/internal/hw"
	"autogemm/internal/refgemm"
	"autogemm/internal/sched"
	"autogemm/internal/workload"
)

// TestPackPanelBitIdentical: packing A into the participant's row
// panel and staging each C tile once per group leave every result
// bit-identical to the reference and to serial Run, under Run,
// RunParallel and Submit — for a panel of one slot per k block, for one
// past aPanelBound that falls back to a single slot, for the first on
// the interpreter, for A overwritten in place between two runs (a
// stale panel would keep the old A), and for two plans of one shape
// over different A interleaved on one worker (the slots' keys match
// across the plans, so only the job boundary tells them apart).
func TestPackPanelBitIdentical(t *testing.T) {
	pool, solo := sched.New(2, 0), sched.New(1, 0)
	defer pool.Close()
	defer solo.Close()
	kp := hw.KP920()
	mk := func(m, n, k int, opts Options, rt *sched.Pool) *Plan {
		t.Helper()
		opts.Runtime = rt
		p, err := NewPlan(kp, m, n, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	operands := func(p *Plan, seed uint64) (a, b, c0 []float32) {
		a, b, c0 = make([]float32, p.M*p.K), make([]float32, p.K*p.N), make([]float32, p.M*p.N)
		refgemm.Fill(a, p.M, p.K, p.K, seed)
		refgemm.Fill(b, p.K, p.N, p.N, seed+1)
		refgemm.Fill(c0, p.M, p.N, p.N, seed+2)
		return a, b, c0
	}
	reference := func(p *Plan, a, b, c0 []float32) []float32 {
		c := append([]float32(nil), c0...)
		refgemm.GEMM(p.M, p.N, p.K, a, p.K, b, p.N, c, p.N)
		return c
	}
	const (
		run = iota
		parallel
		submit
	)
	exec := func(name string, p *Plan, how int, a, b, c0, want []float32) {
		t.Helper()
		c := append([]float32(nil), c0...)
		var err error
		switch how {
		case run:
			err = p.Run(c, a, b)
		case parallel:
			err = p.RunParallel(c, a, b, 2)
		default:
			var f *RunFuture
			if f, err = p.Submit(context.Background(), c, a, b, 2, sched.QoS{}); err == nil {
				err = f.Wait()
			}
		}
		if err != nil {
			t.Fatalf("%s (mode %d): %v", name, how, err)
		}
		for i := range c {
			if math.Float32bits(c[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s (mode %d): C[%d] = %g, want %g", name, how, i, c[i], want[i])
			}
		}
	}
	// every checks the reference against serial Run, then every mode
	// against both.
	every := func(name string, p *Plan, seed uint64) {
		t.Helper()
		a, b, c0 := operands(p, seed)
		want := reference(p, a, b, c0)
		for _, how := range []int{run, parallel, submit, run} {
			exec(name, p, how, a, b, c0, want)
		}
	}
	nk := func(p *Plan) int { return (p.K + p.Opts.KC - 1) / p.Opts.KC }

	tiles := Options{MC: 16, NC: 24, KC: 16, Pack: PackOnline, Rotate: true, Fuse: true}
	fits := mk(40, 100, 70, tiles, pool)
	if fits.aSlots != nk(fits) || fits.aSlots < 2 || len(fits.groups) < 2*fits.aSlots {
		t.Fatalf("fitting panel: %d slots for %d k blocks and %d groups", fits.aSlots, nk(fits), len(fits.groups))
	}
	every("fitting panel", fits, 1)

	over := mk(130, 20, 2100, Options{MC: 128, NC: 24, KC: 256, Pack: PackOnline, Rotate: true, Fuse: true}, pool)
	if over.aSlots != 1 || nk(over) < 2 || nk(over)*over.scratch.PackA <= aPanelBound {
		t.Fatalf("panel past the bound: %d slots for %d k blocks of %d elements", over.aSlots, nk(over), over.scratch.PackA)
	}
	every("panel past the bound", over, 4)

	interp := tiles
	interp.ForceInterp = true
	every("fitting panel, interpreted", mk(40, 100, 70, interp, pool), 1)

	// A overwritten in place between runs on one participant: the
	// second run must pack the new values, not reuse the panel. One m
	// block, so the next job's first group meets the keys the last
	// one left.
	const m1 = 12
	if m1 > tiles.MC {
		t.Fatalf("%d rows are more than one m block of %d", m1, tiles.MC)
	}
	for _, how := range []int{run, submit} {
		p := mk(m1, 100, 70, tiles, solo)
		a, b, c0 := operands(p, 7)
		exec("before overwrite", p, how, a, b, c0, reference(p, a, b, c0))
		refgemm.Fill(a, p.M, p.K, p.K, 8)
		exec("A overwritten in place", p, how, a, b, c0, reference(p, a, b, c0))
	}

	// Two plans of one shape with different A, interleaved on one
	// worker and its caller slot.
	p1, p2 := mk(m1, 100, 70, tiles, solo), mk(m1, 100, 70, tiles, solo)
	a1, b, c0 := operands(p1, 10)
	a2 := make([]float32, len(a1))
	refgemm.Fill(a2, p2.M, p2.K, p2.K, 20)
	want1, want2 := reference(p1, a1, b, c0), reference(p2, a2, b, c0)
	for _, how := range []int{submit, submit, run, run, submit, run} {
		exec("interleaved plan 1", p1, how, a1, b, c0, want1)
		exec("interleaved plan 2", p2, how, a2, b, c0, want2)
	}
}

// resnetSink keeps BenchmarkResNetPass's results live.
var resnetSink float32

// BenchmarkResNetPass runs one serial Plan.Run per Table V shape on
// KP920 — one ResNet-50 pass on one participant — and reports its
// GFLOP/s. Plans are built and their kernels compiled by a warm-up pass
// before the timer starts; one buffer of each operand, sized for the
// largest shape, serves every layer.
func BenchmarkResNetPass(b *testing.B) {
	pool := sched.New(1, 0)
	defer pool.Close()
	chip := hw.KP920()
	shapes := workload.ResNet50()
	var plans []*Plan
	var la, lb, lc int
	flops := 0.0
	for _, s := range shapes {
		opts := AutoOptions(chip)
		opts.Runtime = pool
		p, err := NewPlan(chip, s.M, s.N, s.K, opts)
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, p)
		la, lb, lc = max(la, s.M*s.K), max(lb, s.K*s.N), max(lc, s.M*s.N)
		flops += 2 * float64(s.M) * float64(s.N) * float64(s.K)
	}
	a, bb, c := make([]float32, la), make([]float32, lb), make([]float32, lc)
	refgemm.Fill(a, 1, la, la, 1)
	refgemm.Fill(bb, 1, lb, lb, 2)
	pass := func() {
		for _, p := range plans {
			if err := p.Run(c, a, bb); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	resnetSink = c[0]
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}
