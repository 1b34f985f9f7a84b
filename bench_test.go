package autogemm_test

// Host-side microbenchmarks of the engine's hot paths. The paper's
// tables and figures are regenerated by internal/experiments (run any
// of them with `go run ./cmd/autogemm-bench -exp <id>`); the
// repository's end-to-end benchmark is the bench module (bench/run.sh).

import (
	"math"
	"math/rand/v2"
	"testing"

	"autogemm"
	"autogemm/internal/baselines"
	"autogemm/internal/core"
	"autogemm/internal/hw"
	"autogemm/internal/refgemm"
	"autogemm/internal/workload"
)

// BenchmarkMultiply measures the host-side cost of the functional
// execution path (packing, then the compiled generated kernels) for a
// small GEMM.
func BenchmarkMultiply(b *testing.B) {
	eng, err := autogemm.New("KP920")
	if err != nil {
		b.Fatal(err)
	}
	const m, n, k = 32, 32, 32
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	c := make([]float32, m*n)
	refgemm.Fill(a, m, k, k, 1)
	refgemm.Fill(bb, k, n, n, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Multiply(c, a, bb, m, n, k); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(4 * (m*k + k*n + m*n)))
}

// BenchmarkSmallMix is the small-gemm shape mix in-process: each
// iteration makes one Multiply per shape (the Fig 8 cubes from 8 to 80,
// the six Fig 7 blocks and the 26×36×20 running example) on a
// two-worker KP920 engine, every plan warm. It reports GFLOP/s over the
// mix, where the work around each kernel call is a large share.
func BenchmarkSmallMix(b *testing.B) {
	eng, err := autogemm.New("KP920", autogemm.WithWorkers(2))
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	var shapes []workload.Shape
	for _, s := range workload.SmallSweep() {
		if s.M >= 8 && s.M <= 80 {
			shapes = append(shapes, s)
		}
	}
	shapes = append(shapes, workload.Fig7Blocks()...)
	shapes = append(shapes, workload.Shape{M: 26, N: 36, K: 20})
	type call struct{ a, bb, c []float32 }
	calls := make([]call, len(shapes))
	flops := 0.0
	for i, s := range shapes {
		cl := call{make([]float32, s.M*s.K), make([]float32, s.K*s.N), make([]float32, s.M*s.N)}
		refgemm.Fill(cl.a, s.M, s.K, s.K, uint64(2*i+1))
		refgemm.Fill(cl.bb, s.K, s.N, s.N, uint64(2*i+2))
		if err := eng.Multiply(cl.c, cl.a, cl.bb, s.M, s.N, s.K); err != nil {
			b.Fatal(err)
		}
		calls[i] = cl
		flops += 2 * float64(s.M) * float64(s.N) * float64(s.K)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, s := range shapes {
			cl := &calls[j]
			if err := eng.Multiply(cl.c, cl.a, cl.bb, s.M, s.N, s.K); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkColdMultiply times a shape's first call: one Multiply per
// distinct shape, M, N and K log-uniform in [8, 320] (seeded), each a
// plan-cache miss whose kernels may also be new, on a two-worker KP920
// engine replaced (untimed) every 50 shapes. A warm-up shape outside
// the range builds the process-wide lazy state first. It reports
// ms/shape.
func BenchmarkColdMultiply(b *testing.B) {
	const lo, hi, perEngine = 8, 320, 50
	rng := rand.New(rand.NewPCG(1, 2))
	dim := func() int {
		return int(math.Round(math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))))
	}
	seen := map[workload.Shape]bool{}
	shapes := make([]workload.Shape, 0, b.N)
	for len(shapes) < b.N {
		s := workload.Shape{M: dim(), N: dim(), K: dim()}
		if !seen[s] {
			seen[s] = true
			shapes = append(shapes, s)
		}
	}
	vals := make([]float32, hi*hi)
	refgemm.Fill(vals, hi, hi, hi, 1)
	c := make([]float32, hi*hi)
	newEngine := func() *autogemm.Engine {
		eng, err := autogemm.New("KP920", autogemm.WithWorkers(2))
		if err != nil {
			b.Fatal(err)
		}
		return eng
	}
	eng := newEngine()
	if err := eng.Multiply(c[:7*hi], vals[:7*hi], vals[:hi*hi], 7, hi, hi); err != nil {
		b.Fatal(err)
	}
	eng.Close()
	eng = newEngine()
	b.ResetTimer()
	for i, s := range shapes {
		if i > 0 && i%perEngine == 0 {
			b.StopTimer()
			eng.Close()
			eng = newEngine()
			b.StartTimer()
		}
		if err := eng.Multiply(c[:s.M*s.N], vals[:s.M*s.K], vals[:s.K*s.N], s.M, s.N, s.K); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	eng.Close()
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/shape")
}

// BenchmarkMultiplyParallelCallers is BenchmarkMultiply from several
// goroutines at once on one engine: each call runs on its own caller,
// so the callers contend only for the plan cache and the scheduler's
// admission lock.
func BenchmarkMultiplyParallelCallers(b *testing.B) {
	eng, err := autogemm.New("KP920")
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	const m, n, k = 32, 32, 32
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	refgemm.Fill(a, m, k, k, 1)
	refgemm.Fill(bb, k, n, n, 2)
	b.SetBytes(int64(4 * (m*k + k*n + m*n)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := make([]float32, m*n)
		for pb.Next() {
			if err := eng.Multiply(c, a, bb, m, n, k); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkEstimate measures one performance projection (the unit of
// work inside every experiment).
func BenchmarkEstimate(b *testing.B) {
	eng, err := autogemm.New("Graviton2")
	if err != nil {
		b.Fatal(err)
	}
	var last autogemm.Perf
	for i := 0; i < b.N; i++ {
		last, err = eng.Estimate(64, 64, 64, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.GFLOPS, "simulated-GFLOPS")
}

// BenchmarkKernelGeneration measures micro-kernel generation throughput.
func BenchmarkKernelGeneration(b *testing.B) {
	eng, err := autogemm.New("KP920")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := eng.GenerateKernel(5, 16, 64, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProviderEstimates measures the per-library projection cost on
// the Table I irregular shape.
func BenchmarkProviderEstimates(b *testing.B) {
	chip := hw.KP920()
	for _, p := range baselines.All() {
		if !p.Supports(chip, 256, 3136, 64) {
			continue
		}
		b.Run(p.Name, func(b *testing.B) {
			var eff float64
			for i := 0; i < b.N; i++ {
				est, err := p.Estimate(chip, 256, 3136, 64)
				if err != nil {
					b.Fatal(err)
				}
				eff = est.Efficiency
			}
			b.ReportMetric(eff*100, "sim-eff%")
		})
	}
}

// BenchmarkRunParallel measures the host-side parallel functional path.
func BenchmarkRunParallel(b *testing.B) {
	chip := hw.KP920()
	plan, err := coreNewPlan(chip)
	if err != nil {
		b.Fatal(err)
	}
	const m, n, k = 64, 64, 48
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	c := make([]float32, m*n)
	refgemm.Fill(a, m, k, k, 1)
	refgemm.Fill(bb, k, n, n, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.RunParallel(c, a, bb, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// coreNewPlan builds the 64x64x48 plan BenchmarkRunParallel uses.
func coreNewPlan(chip *hw.Chip) (*core.Plan, error) {
	return core.NewPlan(chip, 64, 64, 48, core.AutoOptions(chip))
}
