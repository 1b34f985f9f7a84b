package core

import (
	"math"

	"autogemm/internal/cache"
	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
	"autogemm/internal/sim"
)

// Estimate is the projected execution profile of a plan on its chip.
type Estimate struct {
	Cycles     float64 // end-to-end cycles (with Cores > 1: critical path)
	Seconds    float64
	GFLOPS     float64
	Efficiency float64 // fraction of the peak of the cores used

	KernelCycles float64 // single-core micro-kernel work
	PackCycles   float64
	LaunchOver   float64
	DRAMBytes    float64
	MaxBandCost  float64 // largest indivisible work unit (imbalance bound)
	Cores        int
}

// bandCostKey caches per-kernel timing simulations.
type bandCostKey struct {
	key mkernel.Key
	lat int
}

// blockCost is the simulated cost of one visit to a cache-block shape:
// the per-band timing-simulator cycles, launch overheads, packing
// cycles charged in the timed region, the DRAM bytes moved, and the
// largest single band (the analytic imbalance bound). Computed once per
// distinct shape (shapeCosts) and shared between the analytic estimate
// and the virtual-time cost attribution — both views of a plan's time
// come from the same numbers.
type blockCost struct {
	kernel  float64
	launch  float64
	pack    float64
	dram    float64
	maxBand float64
}

// total returns the compute cycles of one block visit.
func (b blockCost) total() float64 { return b.kernel + b.launch + b.pack }

// shapeCosts computes (once, memoized on the plan) the cost of every
// distinct block shape in the grid. Keys are returned in first-visit
// order of the plan's loop order, and all composition downstream
// iterates that slice — never the map — so every float sum is performed
// in one fixed order and the resulting estimates are bit-deterministic
// across runs and GOMAXPROCS.
func (p *Plan) shapeCosts() (map[[3]int]blockCost, [][3]int, error) {
	p.costOnce.Do(func() {
		hier := cache.NewHierarchy(p.Chip)
		bandCache := make(map[bandCostKey]float64)
		costs := make(map[[3]int]blockCost, 8)
		var keys [][3]int
		for _, blk := range p.blocks() {
			key := [3]int{blk.MB, blk.NB, blk.KB}
			if _, ok := costs[key]; ok {
				continue
			}
			bc, err := p.blockCostFor(hier, bandCache, key[0], key[1], key[2])
			if err != nil {
				p.costErr = err
				return
			}
			costs[key] = bc
			keys = append(keys, key)
		}
		p.costs, p.costKeys = costs, keys
	})
	return p.costs, p.costKeys, p.costErr
}

// blockCostFor times one visit to a block shape: every distinct band
// kernel runs once through the cycle simulator at the load latency
// implied by the blocking's cache residency, and packing/launch/DRAM
// costs are added per the plan's pack mode.
func (p *Plan) blockCostFor(hier *cache.Hierarchy, bandCache map[bandCostKey]float64, mb, nb, kb int) (blockCost, error) {
	chip := p.Chip
	var bc blockCost

	tl, err := p.blockTiling(mb, nb)
	if err != nil {
		return bc, err
	}
	lat := p.blockLoadLatency(hier, mb, nb, kb)

	for _, bd := range tl.Bands(chip.Lanes) {
		var cost float64
		for _, cl := range p.calls(bd, kb) {
			c, err := p.bandCycles(bandCache, cl.Spec, lat, bd.MR, cl.Width, kb)
			if err != nil {
				return bc, err
			}
			cost += float64(cl.Count) * c
			bc.launch += float64(cl.Count) * float64(chip.LaunchCycles)
		}
		bc.kernel += cost
		if cost > bc.maxBand {
			bc.maxBand = cost
		}
	}

	bc.pack, bc.dram = p.blockTrafficCost(mb, nb, kb)
	return bc, nil
}

// Estimate projects the plan's runtime at the plan's configured core
// count (Options.Cores; 0 or 1 is single-core). See EstimateAt.
func (p *Plan) Estimate() (Estimate, error) {
	return p.EstimateAt(max(1, p.Opts.Cores))
}

// EstimateAt projects the plan's runtime on `cores` cores: the memoized
// per-shape costs are composed over the block grid, and — for
// multi-core runs — the imbalance, synchronization and NUMA/CMG
// contention model (hw.Topology) is applied. The per-shape simulation
// work is shared across calls, so sweeping a scaling curve costs one
// timing simulation per distinct shape, not per core count.
func (p *Plan) EstimateAt(cores int) (Estimate, error) {
	var est Estimate
	costs, keys, err := p.shapeCosts()
	if err != nil {
		return est, err
	}

	counts := make(map[[3]int]int, len(keys))
	for _, blk := range p.blocks() {
		counts[[3]int{blk.MB, blk.NB, blk.KB}]++
	}
	for _, key := range keys {
		bc := costs[key]
		cnt := float64(counts[key])
		est.KernelCycles += cnt * bc.kernel
		est.LaunchOver += cnt * bc.launch
		est.PackCycles += cnt * bc.pack
		est.DRAMBytes += cnt * bc.dram
		if bc.maxBand > est.MaxBandCost {
			est.MaxBandCost = bc.maxBand
		}
	}

	chip := p.Chip
	single := est.KernelCycles + est.LaunchOver + est.PackCycles + float64(p.Opts.CallOverhead)
	est.Cores = max(1, cores)
	est.Cycles = p.parallelCyclesAt(single, est, est.Cores)
	freqHz := chip.FreqGHz * 1e9
	est.Seconds = est.Cycles / freqHz
	flops := 2 * float64(p.M) * float64(p.N) * float64(p.K)
	est.GFLOPS = flops / est.Seconds / 1e9
	est.Efficiency = est.GFLOPS / (chip.PeakGFLOPS() * float64(est.Cores))
	return est, nil
}

// bandCycles memoizes the per-invocation cycle count of a kernel at a
// given effective load latency by running it once through the functional
// machine and then the timing model, over scratch panels of mr rows,
// width columns and depth kc.
func (p *Plan) bandCycles(memo map[bandCostKey]float64, spec mkernel.Spec, lat, mr, width, kc int) (float64, error) {
	key := bandCostKey{spec.Key(), lat}
	if c, ok := memo[key]; ok {
		return c, nil
	}
	prog, err := p.kernels.Program(spec)
	if err != nil {
		return 0, err
	}
	lanes := p.Chip.Lanes
	arena := sim.NewArena(mr*kc + (kc+4)*(width+lanes) + mr*(width+lanes) + 4096)
	aAddr := arena.Alloc(mr*kc + 2*lanes)
	bAddr := arena.Alloc((kc + 4) * (width + lanes))
	cAddr := arena.Alloc(mr * (width + lanes))
	mach := sim.NewMachine(arena, lanes)
	mach.SetArg(0, aAddr)
	mach.SetArg(1, bAddr)
	mach.SetArg(2, cAddr)
	mach.SetArg(3, int64(kc))
	mach.SetArg(4, int64(width))
	mach.SetArg(5, int64(width))

	model := sim.NewModel(p.Chip)
	model.Caches = nil
	model.AssumeLoadLat = lat

	res, err := model.RunAndTime(prog, mach, 1<<31)
	if err != nil {
		return 0, err
	}
	c := float64(res.Cycles)
	memo[key] = c
	return c, nil
}

// blockLoadLatency derives the effective micro-kernel load latency for
// a block visit; the planner records the same figure in the recipe (see
// loadLatencyFor), the estimator keeps per-k-chunk resolution.
func (p *Plan) blockLoadLatency(hier *cache.Hierarchy, mb, nb, kb int) int {
	return loadLatencyFor(p.Chip, hier, p.Opts.Pack, p.N, nb, kb)
}

// blockTrafficCost returns the packing cycles charged inside the timed
// region for one block visit and the DRAM bytes it moves. Offline
// packing moves the B panel ahead of time (bytes still count toward
// bandwidth, cycles do not — the LibShalom accounting of §V-C).
func (p *Plan) blockTrafficCost(mb, nb, kb int) (packCycles, dramBytes float64) {
	chip := p.Chip
	lanes := chip.Lanes
	nbQ := quantUp(nb, lanes)
	aBytes := float64(mb*kb) * 4
	bBytes := float64(kb*nbQ) * 4
	cBytes := float64(mb*nbQ) * 4

	bwBytesPerCycle := chip.DRAMGBs / chip.FreqGHz
	copyCost := func(bytes float64) float64 {
		elems := bytes / 4
		issue := elems / float64(lanes) * (1/float64(chip.LoadPorts) + 1/float64(chip.StorePorts))
		stream := 2 * bytes / bwBytesPerCycle
		return math.Max(issue, stream) + float64(chip.DRAMLatCycles)
	}

	switch p.Opts.Pack {
	case PackOnline:
		packCycles = copyCost(aBytes) + copyCost(bBytes)
	case PackOffline:
		packCycles = copyCost(aBytes) // only A packs in the timed region
	}
	// Streaming traffic: panels in once, C read+written per k chunk.
	dramBytes = aBytes + bBytes + 2*cBytes
	return packCycles, dramBytes
}

// parallelCyclesAt applies the multi-core model at an explicit core
// count: greedy band scheduling (imbalance bounded by the largest
// band), then the NUMA/CMG span slowdown, per-core synchronization
// fraction and socket bandwidth floor — all read off the shared
// hw.Topology contention model so the analytic estimate and the
// virtual-time simulator (internal/vtime) apply identical penalties.
func (p *Plan) parallelCyclesAt(single float64, est Estimate, cores int) float64 {
	if cores <= 1 {
		return single
	}
	top := hw.NewTopology(p.Chip)
	cores = top.ClampCores(cores)
	perCore := single/float64(cores) + est.MaxBandCost // greedy bound
	perCore *= top.SpanPenalty(cores)
	perCore *= top.SyncPenalty(cores)

	bw := est.DRAMBytes / top.SocketBandwidth()
	return math.Max(perCore, bw)
}
