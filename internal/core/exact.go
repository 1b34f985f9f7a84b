package core

import (
	"autogemm/internal/mkernel"
	"autogemm/internal/sim"
	"autogemm/internal/tiling"
)

// EstimateExact times the ENTIRE execution — every kernel invocation of
// every block, in plan order — through the pipeline simulator with the
// cache hierarchy live, instead of composing memoized per-band timings
// the way Estimate does. It is orders of magnitude slower and exists as
// the gold standard the fast estimator is validated against
// (TestEstimateAgainstExact) and for studying cache behaviour on small
// problems. Packing copies are charged with the same analytic cost as
// Estimate; kernel cycles and DRAM traffic come from the simulation.
func (p *Plan) EstimateExact() (Estimate, error) {
	chip := p.Chip
	lanes := chip.Lanes

	model := sim.NewModel(chip)

	arena := sim.NewArena(p.M*p.K + p.K*p.N + p.M*p.N + 1<<12)
	aAddr := arena.Alloc(p.M*p.K + 2*lanes)
	bAddr := arena.Alloc(p.K*p.N + 2*p.N + 2*lanes)
	cAddr := arena.Alloc(p.M*p.N + 2*lanes)

	mcMax, ncMax := p.Opts.MC, quantUp(p.Opts.NC, lanes)
	kcMax := p.Opts.KC
	packA := arena.Alloc(mcMax*kcMax + 2*lanes)
	packB := arena.Alloc((kcMax + 2) * (ncMax + mkernel.MaxNROverhang(lanes)))
	cBufLD := ncMax + mkernel.MaxNROverhang(lanes)
	cBuf := arena.Alloc((mcMax + mkernel.MaxMR) * cBufLD)

	mach := sim.NewMachine(arena, lanes)
	mach.Record = true

	// Warm-cache measurement, as GEMM benchmarking does (the paper times
	// steady-state repetitions): the operand regions and packing buffers
	// start resident in whatever levels hold them. Compulsory traffic is
	// accounted analytically via blockTrafficCost, exactly as in Estimate.
	model.Caches.Warm(uint64(aAddr), uint64(p.M*p.K*4))
	model.Caches.Warm(uint64(bAddr), uint64(p.K*p.N*4))
	model.Caches.Warm(uint64(cAddr), uint64(p.M*p.N*4))
	if p.Opts.Pack != PackNone {
		model.Caches.Warm(uint64(packA), uint64(mcMax*kcMax*4))
		model.Caches.Warm(uint64(packB), uint64((kcMax+2)*(ncMax+mkernel.MaxNROverhang(lanes))*4))
	}
	model.Caches.Warm(uint64(cBuf), uint64((mcMax+mkernel.MaxMR)*cBufLD*4))

	var est Estimate
	est.Cores = 1

	for _, blk := range p.blocks() {
		tl, err := p.blockTiling(blk.MB, blk.NB)
		if err != nil {
			return est, err
		}
		// Resolve bases the same way the functional runner does; the
		// data content is irrelevant for timing, the addresses are not.
		var aBase, bBase int64
		var lda, ldb int
		nbQ := quantUp(blk.NB, lanes)
		if p.Opts.Pack == PackNone {
			aBase, lda = aAddr+int64((blk.MOff*p.K+blk.KOff)*4), p.K
			bBase, ldb = bAddr+int64((blk.KOff*p.N+blk.NOff)*4), p.N
		} else {
			aBase, lda = packA, blk.KB
			bBase, ldb = packB, nbQ+mkernel.MaxNROverhang(lanes)
			// Warm nothing: the packed panels arrive cold, their fill
			// traffic is the packing cost.
		}
		pack, dram := p.blockTrafficCost(blk.MB, blk.NB, blk.KB)
		est.PackCycles += pack
		est.DRAMBytes += dram

		for _, bd := range tl.Bands(lanes) {
			aArg := aBase + int64(bd.Row*lda*4)
			bArg := bBase + int64(bd.Col*4)
			cArg := cBuf + int64((bd.Row*cBufLD+bd.Col)*4)
			cycles, err := p.timeBandExact(model, mach, bd, blk.KB, aArg, bArg, cArg, lda, ldb, cBufLD)
			if err != nil {
				return est, err
			}
			est.KernelCycles += cycles
			est.LaunchOver += float64(chip.LaunchCycles)
			if cycles > est.MaxBandCost {
				est.MaxBandCost = cycles
			}
		}
	}

	est.Cycles = est.KernelCycles + est.LaunchOver + est.PackCycles + float64(p.Opts.CallOverhead)
	freqHz := chip.FreqGHz * 1e9
	est.Seconds = est.Cycles / freqHz
	flops := 2 * float64(p.M) * float64(p.N) * float64(p.K)
	est.GFLOPS = flops / est.Seconds / 1e9
	est.Efficiency = est.GFLOPS / chip.PeakGFLOPS()
	return est, nil
}

// timeBandExact runs one band's kernel launches functionally and
// through the live-cache timing model, returning their cycles.
func (p *Plan) timeBandExact(model *sim.Model, mach *sim.Machine, bd tiling.Band, kc int,
	aArg, bArg, cArg int64, lda, ldb, ldc int) (float64, error) {

	total := 0.0
	for _, cl := range p.calls(bd, kc) {
		prog, err := p.kernels.Program(cl.Spec)
		if err != nil {
			return 0, err
		}
		for i := 0; i < cl.Count; i++ {
			colOff := int64(cl.Col-bd.Col+i*cl.Width) * 4
			mach.SetArg(0, aArg)
			mach.SetArg(1, bArg+colOff)
			mach.SetArg(2, cArg+colOff)
			mach.SetArg(3, int64(lda))
			mach.SetArg(4, int64(ldb))
			mach.SetArg(5, int64(ldc))
			res, err := model.RunAndTime(prog, mach, 1<<31)
			if err != nil {
				return 0, err
			}
			total += float64(res.Cycles)
		}
	}
	return total, nil
}
