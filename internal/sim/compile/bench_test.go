package compile_test

import (
	"testing"

	"autogemm/internal/mkernel"
	"autogemm/internal/sim"
	"autogemm/internal/sim/compile"
)

// Per-kernel benchmarks, then the register-tile loop alone and the cost
// of a cold compile. Each kernel benchmark reports ns/fmla, the time per
// executed 4-lane FMLA, beside the usual per-run figures (SetBytes
// carries the run's flops, so MB/s reads as MFLOP/s). The kernels span
// the cases the affine regions help most and least:
//   - a 4×8 tile at KC = 64, where the k-loop dominates;
//   - a fused two-tile band, whose tile boundary interleaves the first
//     tile's stores with the second tile's loads;
//   - a 4×8 tile at KC = σ+1, where the prologue and epilogue dominate;
//   - a fused four-tile 5×16 band at KC = 128, as the ResNet-50 plans
//     run;
//   - a 4×32 tile at KC = 64 and σ = 16, the 512-bit SVE width, which
//     runs on the N-lane micro-ops with no affine regions.

var (
	benchKernel = mkernel.Config{Tile: mkernel.Tile{MR: 4, NR: 8}, KC: 64, Lanes: 4,
		Rotate: true, LoadC: true}
	benchShortKC = mkernel.Config{Tile: mkernel.Tile{MR: 4, NR: 8}, KC: 5, Lanes: 4,
		Rotate: true, LoadC: true}
	benchBand = mkernel.BandConfig{
		Segments: []mkernel.Segment{{Tile: mkernel.Tile{MR: 4, NR: 8}, Count: 2}},
		KC:       64, Lanes: 4, Rotate: true, Fuse: true, LoadC: true}
	benchResNetBand = mkernel.BandConfig{
		Segments: []mkernel.Segment{{Tile: mkernel.Tile{MR: 5, NR: 16}, Count: 4}},
		KC:       128, Lanes: 4, Rotate: true, Fuse: true, LoadC: true}
	bench16     = mkernel.Config{Tile: mkernel.Tile{MR: 4, NR: 32}, KC: 64, Lanes: 16, LoadC: true}
	benchAffine = mkernel.Config{Tile: mkernel.Tile{MR: 5, NR: 16}, KC: 256, Lanes: 4,
		Rotate: true, LoadC: true}
)

// benchOperands sizes A, B and C for cp's panel model with tight
// leading dimensions and fills A and B.
func benchOperands(cp *compile.Program) (a, bp, c []float32, lda, ldb, ldc int64) {
	bo := cp.Bounds
	lda = int64(bo.KC + bo.AOverVectors*bo.Lanes)
	ldb, ldc = int64(bo.NR), int64(bo.NR)
	a = make([]float32, bo.AExtent(lda))
	bp = make([]float32, bo.BExtent(ldb))
	c = make([]float32, bo.CExtent(ldc))
	for i := range a {
		a[i] = float32(i%13) * 0.5
	}
	for i := range bp {
		bp[i] = float32(i%7) * 0.25
	}
	return a, bp, c, lda, ldb, ldc
}

// fmlasPerRun is the number of FMLAs one run of cp executes: MR·NR/σ
// per k-step.
func fmlasPerRun(cp *compile.Program) int {
	bo := cp.Bounds
	return bo.MR * bo.NR / bo.Lanes * bo.KC
}

func reportPerFmla(b *testing.B, fmlas int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(fmlas), "ns/fmla")
}

func runCompiledBench(b *testing.B, cp *compile.Program, err error) {
	if err != nil {
		b.Fatal(err)
	}
	a, bp, c, lda, ldb, ldc := benchOperands(cp)
	e := compile.NewEnv(cp.Lanes)
	l := cp.Layout(lda, ldb, ldc)
	fmlas := fmlasPerRun(cp)
	b.SetBytes(int64(2 * cp.Lanes * fmlas))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cp.Run(e, l, a, bp, c, 0, 0, 0, 1<<30); err != nil {
			b.Fatal(err)
		}
	}
	reportPerFmla(b, fmlas)
}

func BenchmarkKernelInterpreted(b *testing.B) {
	cache := mkernel.NewCache()
	cp, err := cache.Compiled(benchKernel)
	if err != nil {
		b.Fatal(err)
	}
	p, err := cache.Program(benchKernel)
	if err != nil {
		b.Fatal(err)
	}
	a, bp, c, lda, ldb, ldc := benchOperands(cp)
	ar := sim.NewArena(len(a) + len(bp) + len(c) + 64)
	aAddr := ar.Alloc(len(a))
	bAddr := ar.Alloc(len(bp))
	cAddr := ar.Alloc(len(c))
	ar.Freeze()
	copy(ar.Slice(aAddr, len(a)), a)
	copy(ar.Slice(bAddr, len(bp)), bp)
	m := sim.NewMachine(ar, cp.Lanes)
	fmlas := fmlasPerRun(cp)
	b.SetBytes(int64(2 * cp.Lanes * fmlas))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SetArg(0, aAddr)
		m.SetArg(1, bAddr)
		m.SetArg(2, cAddr)
		m.SetArg(3, lda)
		m.SetArg(4, ldb)
		m.SetArg(5, ldc)
		if err := m.Run(p, 1<<31-1); err != nil {
			b.Fatal(err)
		}
	}
	reportPerFmla(b, fmlas)
}

func BenchmarkKernelCompiled(b *testing.B) {
	cp, err := mkernel.NewCache().Compiled(benchKernel)
	runCompiledBench(b, cp, err)
}

func BenchmarkBandFusedCompiled(b *testing.B) {
	cp, err := mkernel.NewCache().Compiled(benchBand)
	runCompiledBench(b, cp, err)
}

func BenchmarkKernelShortKCCompiled(b *testing.B) {
	cp, err := mkernel.NewCache().Compiled(benchShortKC)
	runCompiledBench(b, cp, err)
}

// BenchmarkKernelCompiled16 runs the 16-lane kernel TestLoopFuel uses:
// its FMLAs are σ = 16 wide, so ns/fmla is per 16 multiply-adds.
func BenchmarkKernelCompiled16(b *testing.B) {
	cp, err := mkernel.NewCache().Compiled(bench16)
	runCompiledBench(b, cp, err)
}

// BenchmarkAffine times the register-tile loop on its own, over the
// chunks one run of benchAffine resolves: the 5×16 tile at KC = 256,
// one 5-row × 4-vector chunk of 256 steps, the shape that does most of
// the ResNet-50 plans' work. native is the loop the executor installs
// on this host (the AVX loop on amd64 with AVX), go the pure-Go
// reference. A chunk's FMLAs are its accumulators × its steps.
func BenchmarkAffine(b *testing.B) {
	cp, err := mkernel.NewCache().Compiled(benchAffine)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name     string
		portable bool
	}{{"native", false}, {"go", true}} {
		b.Run(bc.name, func(b *testing.B) {
			a, bp, c, lda, ldb, ldc := benchOperands(cp)
			e := compile.NewEnv(cp.Lanes)
			run, fmlas, err := compile.AffineRunner(cp, e, a, bp, c, lda, ldb, ldc, bc.portable)
			if err != nil {
				b.Fatal(err)
			}
			if fmlas != fmlasPerRun(cp) {
				b.Fatalf("%s: chunks run %d FMLAs, the kernel %d", cp.Name, fmlas, fmlasPerRun(cp))
			}
			b.SetBytes(int64(2 * cp.Lanes * fmlas))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			reportPerFmla(b, fmlas)
		})
	}
}

// BenchmarkResNetBandCompiled runs band_k128_l4_5x16x4_rot_fuse, one of
// the kernels the KP920 ResNet-50 plans use: four fused 5×16 tiles over
// KC = 128.
func BenchmarkResNetBandCompiled(b *testing.B) {
	cp, err := mkernel.NewCache().Compiled(benchResNetBand)
	if cp != nil && cp.Name != "band_k128_l4_5x16x4_rot_fuse" {
		b.Fatalf("benchmark band is %s", cp.Name)
	}
	runCompiledBench(b, cp, err)
}

// BenchmarkColdCompile times Cache.Compiled of the ResNet band and of
// mk_5x16x128_l4_rot on a fresh cache: generation, the analyzer gate and
// lowering, affine proof included.
func BenchmarkColdCompile(b *testing.B) {
	tile := mkernel.Config{Tile: mkernel.Tile{MR: 5, NR: 16}, KC: 128, Lanes: 4, Rotate: true}
	for i := 0; i < b.N; i++ {
		cache := mkernel.NewCache()
		for _, s := range []mkernel.Spec{benchResNetBand, tile} {
			if _, err := cache.Compiled(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}
