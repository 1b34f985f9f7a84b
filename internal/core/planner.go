package core

import (
	"context"
	"fmt"
	"strings"

	"autogemm/internal/cache"
	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
	"autogemm/internal/perfmodel"
	"autogemm/internal/plan"
	"autogemm/internal/plan/audit"
	"autogemm/internal/sched"
	"autogemm/internal/tiling"
)

// This file is the plan *producer*: everything expensive and
// shape-specific — automatic blocking resolution, the residency-aware
// Dynamic Micro-Tiling of every distinct cache block, the kernel-key
// enumeration and the Eqn-13 cost projection — happens here, once, and
// is captured in an immutable plan.Plan. The executor (core.go,
// exec.go) replays plans without re-deriving any of it.

// PackFromString parses a packing mode name, including "auto".
func PackFromString(s string) (PackMode, error) {
	for _, p := range []PackMode{PackNone, PackOnline, PackOffline, PackAuto} {
		if strings.EqualFold(p.String(), s) {
			return p, nil
		}
	}
	return PackAuto, fmt.Errorf("core: unknown packing mode %q", s)
}

// strategyName reports the tiler a set of options selects.
func strategyName(o Options) string {
	if o.Strategy == nil {
		return (&tiling.DMT{}).Name()
	}
	return o.Strategy.Name()
}

// RequestOf converts planning inputs into the serializable request the
// plan-cache key and the fingerprint are computed over — the options
// exactly as given, before any automatic resolution, so identical
// requests always map to the same plan-cache and registry entry.
func RequestOf(chip *hw.Chip, m, n, k int, opts Options) plan.Request {
	req := plan.Request{
		Chip: chip.Name, M: m, N: n, K: k,
		MC: opts.MC, NC: opts.NC, KC: opts.KC,
		Pack:   opts.Pack.String(),
		Rotate: opts.Rotate, Fuse: opts.Fuse,
		KCisK: opts.ForceKCisK, Tiler: strategyName(opts),
	}
	for _, t := range opts.DMTCandidates {
		req.Cands = append(req.Cands, t.String())
	}
	return req
}

// resolveOptions applies the automatic parameter choices: packing by
// problem size (§IV-C2) and Goto-layered blocking. It returns a copy;
// the caller's options are not mutated.
func resolveOptions(chip *hw.Chip, m, n, k int, opts Options) Options {
	o := opts
	if o.Pack == PackAuto {
		// Skip packing when the whole B matrix fits L1 alongside the A
		// and C bands; otherwise pack online.
		if k*quantUp(n, chip.Lanes)*4 <= chip.L1D.SizeBytes*3/4 {
			o.Pack = PackNone
		} else {
			o.Pack = PackOnline
		}
	}
	resolveBlocking(chip, m, n, k, &o)
	return o
}

// resolveBlocking picks m_c, n_c, k_c when unset: k_c sized so a B panel
// (k_c × n_c) plus the A band fits L1 (Eqn 1's residency assumption),
// m_c so the A block fits L2, following Goto's layering.
func resolveBlocking(chip *hw.Chip, m, n, k int, o *Options) {
	lanes := chip.Lanes
	if o.ForceKCisK {
		o.KC = k
	}
	if o.KC <= 0 {
		// Half of L1 for the B panel at the default n_c target.
		target := chip.L1D.SizeBytes / 2 / 4 / 64 // elements of k per 64-wide panel
		o.KC = clamp(target, lanes, 256)
		if o.KC > k {
			o.KC = k
		}
	}
	if o.NC <= 0 {
		nc := (chip.L1D.SizeBytes / 2 / 4) / max(o.KC, 1)
		nc = nc / lanes * lanes
		o.NC = clamp(nc, lanes, 512)
		if o.NC > n {
			o.NC = quantUp(n, lanes)
		}
	}
	if o.MC <= 0 {
		mc := (chip.L2.SizeBytes / 2 / 4) / max(o.KC, 1)
		o.MC = clamp(mc, 4, 256)
		if o.MC > m {
			o.MC = m
		}
	}
}

// blockShapes returns the distinct block extents of a dimension: the
// full block size and the remainder, if any.
func blockShapes(total, bs int) []int {
	if bs >= total {
		return []int{total}
	}
	out := []int{bs}
	if rem := total % bs; rem > 0 {
		out = append(out, rem)
	}
	return out
}

// tilerFor returns the strategy instance planning uses, applying the
// residency-derived load latency and any candidate restriction when the
// strategy is DMT (default or explicit).
func tilerFor(opts Options, params perfmodel.Params, lat int) tiling.Strategy {
	popt := perfmodel.Opt{Rotate: opts.Rotate, Fuse: opts.Fuse}
	base, isDMT := opts.Strategy.(*tiling.DMT)
	if opts.Strategy == nil {
		base, isDMT = &tiling.DMT{Params: params, Opt: popt}, true
	}
	if !isDMT {
		return opts.Strategy
	}
	d := &tiling.DMT{
		Params:     base.Params.WithLoadLatency(float64(lat)),
		Opt:        base.Opt,
		Candidates: base.Candidates,
	}
	if d.Params.Lanes == 0 { // zero-value DMT: inherit chip params
		d.Params = params.WithLoadLatency(float64(lat))
		d.Opt = popt
	}
	if opts.DMTCandidates != nil {
		d.Candidates = opts.DMTCandidates
	}
	return d
}

// loadLatencyFor derives the effective micro-kernel load latency from
// where the block's streaming working set resides: the B panel plus one
// A band and one C band. Without packing the strided panels occupy about
// twice the footprint in cache lines and conflict more, modelled as a
// doubled footprint (§IV-C: packing pays off once N is large).
func loadLatencyFor(chip *hw.Chip, hier *cache.Hierarchy, pack PackMode, nTotal, nb, kb int) int {
	lanes := chip.Lanes
	nbQ := quantUp(nb, lanes)
	panel := kb * nbQ * 4
	if pack == PackNone && nTotal > nbQ {
		// Strided panels occupy roughly double their size in cache lines
		// and conflict more — but never more than the whole B matrix.
		panel = min(2*panel, kb*quantUp(nTotal, lanes)*4)
	}
	ws := panel + mkernel.MaxMR*kb*4 + mkernel.MaxMR*nbQ*4
	return hier.LatencyOfLevel(hier.ResidencyLevel(ws))
}

// produceEnv is the resolved planning context every producer shares —
// the synchronous Produce, the tier-0 ProduceHeuristic and the pooled
// ProduceOn and SubmitProduce differ only in *how* each distinct block
// shape gets tiled; everything around that (request, resolved options,
// model parameters, residency latencies, kernel-key enumeration, cost
// composition) is identical and lives here so the paths cannot drift
// apart.
type produceEnv struct {
	chip    *hw.Chip
	m, n, k int
	req     plan.Request
	o       Options
	params  perfmodel.Params
	hier    *cache.Hierarchy
	popt    perfmodel.Opt
	kcTile  int
	mShapes []int
	nShapes []int
	kShapes []int
}

// newProduceEnv validates the problem and resolves the planning
// context.
func newProduceEnv(chip *hw.Chip, m, n, k int, opts Options) (*produceEnv, error) {
	if chip == nil {
		return nil, fmt.Errorf("core: nil chip")
	}
	if m <= 0 || n <= 0 || k <= 0 {
		return nil, fmt.Errorf("core: invalid problem %dx%dx%d", m, n, k)
	}
	if err := checkGeometry(m, n, k); err != nil {
		return nil, err
	}
	o := resolveOptions(chip, m, n, k, opts)
	return &produceEnv{
		chip: chip, m: m, n: n, k: k,
		req:     RequestOf(chip, m, n, k, opts),
		o:       o,
		params:  perfmodel.FromChip(chip),
		hier:    cache.NewHierarchy(chip),
		popt:    perfmodel.Opt{Rotate: o.Rotate, Fuse: o.Fuse},
		kcTile:  min(o.KC, k),
		mShapes: blockShapes(m, o.MC),
		nShapes: blockShapes(n, o.NC),
		kShapes: blockShapes(k, o.KC),
	}, nil
}

// latFor derives the residency load latency of a block column width.
func (e *produceEnv) latFor(nb int) int {
	return loadLatencyFor(e.chip, e.hier, e.o.Pack, e.n, nb, e.kcTile)
}

// build assembles the full plan given a per-block tiling function:
// tile is called once per distinct (mb, nb) block shape with its
// residency latency and returns the block's panel cover. The rest —
// kernel keys for every k-chunk depth, the Eqn-13 cost composed over
// the block grid — is shared verbatim across producers.
func (e *produceEnv) build(source string, tile func(mb, nb, lat int) (tiling.Tiling, error)) (*plan.Plan, error) {
	bld := plan.NewBuilder(e.req, e.o.MC, e.o.NC, e.o.KC, e.o.Pack.String())
	bld.SetSource(source)

	keys := map[mkernel.Key]bool{}
	for _, mb := range e.mShapes {
		for _, nb := range e.nShapes {
			lat := e.latFor(nb)
			tl, err := tile(mb, nb, lat)
			if err != nil {
				return nil, err
			}
			if err := tl.Validate(e.chip.Lanes); err != nil {
				return nil, fmt.Errorf("core: strategy %s: %w", tl.Strategy, err)
			}
			blk := tl.ToPlanBlock()
			blk.LoadLatency = lat
			blk.Cost = tl.Cost(e.params.WithLoadLatency(float64(lat)), e.kcTile, e.popt)
			bld.AddBlock(blk)

			// Kernel keys for every k-chunk depth this block executes at.
			bands := tl.Bands(e.chip.Lanes)
			for _, kb := range e.kShapes {
				for _, bd := range bands {
					for _, cl := range bd.Calls(kb, e.chip.Lanes, e.o.Rotate, e.o.Fuse) {
						keys[cl.Spec.Key()] = true
					}
				}
			}
		}
	}

	for key := range keys {
		bld.AddKernelKey(string(key))
	}

	// Projected cost composed over the block grid: the per-visit Eqn-13
	// cost of each (m, n) block shape times its visit count across the
	// k chunks — the analytic figure the tuner prunes with.
	kChunks := (e.k + e.o.KC - 1) / e.o.KC
	for _, mb := range e.mShapes {
		for _, nb := range e.nShapes {
			mCnt := gridCount(e.m, e.o.MC, mb)
			nCnt := gridCount(e.n, e.o.NC, nb)
			if blk := bld.Block(mb, nb); blk != nil {
				bld.AddModelCycles(blk.Cost * float64(mCnt*nCnt*kChunks))
			}
		}
	}
	return bld.Finish()
}

// Produce plans a problem from scratch and returns the immutable,
// serializable recipe: resolved blocking, the tiling of every distinct
// block shape (each tiled at the load latency its residency implies),
// the kernel keys execution will request, and the Eqn-13 projected
// cost. Produce never touches the simulator — it is the cheap analytic
// half of planning; the tuner's search sits on top of it, scoring each
// candidate by the ModelCycles of the plan Produce makes of it and
// returning the winner's plan.
func Produce(chip *hw.Chip, m, n, k int, opts Options) (*plan.Plan, error) {
	e, err := newProduceEnv(chip, m, n, k, opts)
	if err != nil {
		return nil, err
	}
	return e.build(plan.SourceAuto, func(mb, nb, lat int) (tiling.Tiling, error) {
		return tilerFor(e.o, e.params, lat).Tile(mb, nb, e.kcTile)
	})
}

// ProduceHeuristic is the tier-0 producer: the same request, resolved
// blocking, kernel keys and cost composition as Produce, but each block
// is covered by the single-panel Heuristic tiler instead of the DMT
// dynamic program — O(#candidates) per block, microseconds where the
// full search takes milliseconds (a median 3.6 ms and at most about
// 11 ms over the ResNet-50 shapes, 2-vCPU Xeon, KP920 model). The plan
// answers the same fingerprint as Produce's (Source is not
// fingerprinted), is tagged plan.SourceHeuristic, and passes the same
// audit gate; the tiered engine serves it instantly on a cold miss
// while the full plan builds in the background. A custom non-DMT
// strategy is already O(1), so it is used as-is (the plan is still
// tagged heuristic — it took the instant path).
func ProduceHeuristic(chip *hw.Chip, m, n, k int, opts Options) (*plan.Plan, error) {
	e, err := newProduceEnv(chip, m, n, k, opts)
	if err != nil {
		return nil, err
	}
	return e.build(plan.SourceHeuristic, func(mb, nb, lat int) (tiling.Tiling, error) {
		strat := tilerFor(e.o, e.params, lat)
		if d, ok := strat.(*tiling.DMT); ok {
			strat = &tiling.Heuristic{DMT: *d}
		}
		return strat.Tile(mb, nb, e.kcTile)
	})
}

// dmtFill is a DMT planning run opened up for a pool: one
// tiling.Search per distinct DMT-tiled block shape, its memo rows cut
// into chunks that are independent pool tasks. The background upgrade
// (SubmitProduce) and the blocking fan-out (ProduceOn) both plan
// through it, so the two cannot chunk differently; finishing it goes
// through the shared build path and lands Produce's plan bit for bit.
// Opening the searches costs nothing: a search's candidates, cost table
// and memo are set up by the first of its tasks to run.
type dmtFill struct {
	e        *produceEnv
	searches map[[2]int]*tiling.Search // by block (mb, nb)
	chunks   []rowChunk
}

// rowChunk is one task of a dmtFill: memo rows [lo, hi) of one search.
type rowChunk struct {
	s      *tiling.Search
	lo, hi int
}

// minFillRows is the smallest row chunk a search is cut into, so tiny
// blocks are not shredded into claim overhead.
const minFillRows = 16

// openFill opens the searches of a planning run and cuts each into at
// most parts row chunks. Static strategies have nothing to parallelize
// and tile inline at assembly.
func (e *produceEnv) openFill(parts int) (*dmtFill, error) {
	f := &dmtFill{e: e, searches: map[[2]int]*tiling.Search{}}
	for _, mb := range e.mShapes {
		for _, nb := range e.nShapes {
			d, ok := tilerFor(e.o, e.params, e.latFor(nb)).(*tiling.DMT)
			if !ok {
				continue
			}
			s, err := d.NewSearch(mb, nb, e.kcTile)
			if err != nil {
				return nil, err
			}
			f.searches[[2]int{mb, nb}] = s
			rows := s.Rows()
			per := max((rows+parts-1)/parts, minFillRows)
			for lo := 0; lo < rows; lo += per {
				f.chunks = append(f.chunks, rowChunk{s: s, lo: lo, hi: min(lo+per, rows)})
			}
		}
	}
	return f, nil
}

// task fills chunk i; it is the pool task function of the fill.
func (f *dmtFill) task(_ *sched.Worker, i int) error {
	f.chunks[i].s.FillRows(f.chunks[i].lo, f.chunks[i].hi)
	return nil
}

// finish runs each search's outer split over its filled memo and
// assembles the plan. Call after every task has run.
func (f *dmtFill) finish() (*plan.Plan, error) {
	e := f.e
	return e.build(plan.SourceAuto, func(mb, nb, lat int) (tiling.Tiling, error) {
		if s := f.searches[[2]int{mb, nb}]; s != nil {
			return s.Finish()
		}
		return tilerFor(e.o, e.params, lat).Tile(mb, nb, e.kcTile)
	})
}

// SubmitProduce plans a problem in the background on a sched pool and
// produces the same plan Produce would, bit for bit: the memo rows of
// every block search (dmtFill) are one background-class job, and the
// completion hook finishes the searches and assembles the plan. onDone
// receives the finished plan or the first error; it runs on the pool's
// completion goroutine, never on a serving thread. SubmitProduce never
// blocks: when the pool is at its in-flight depth it returns
// sched.ErrBusy without enqueuing anything, and the caller retries
// later.
func SubmitProduce(pool *sched.Pool, chip *hw.Chip, m, n, k int, opts Options, onDone func(*plan.Plan, error)) error {
	if pool == nil {
		return fmt.Errorf("core: nil pool")
	}
	if onDone == nil {
		return fmt.Errorf("core: nil completion hook")
	}
	e, err := newProduceEnv(chip, m, n, k, opts)
	if err != nil {
		return err
	}
	f, err := e.openFill(pool.Workers())
	if err != nil {
		return err
	}
	// Upgrades run under the scheduler's background class: weighted
	// claiming keeps DMT row-filling off the critical path whenever any
	// foreground class has jobs queued, instead of competing FIFO.
	fut, err := pool.TrySubmitQoS(len(f.chunks), 0, sched.QoS{Class: sched.BackgroundClass}, f.task)
	if err != nil {
		return err
	}
	fut.OnDone(func(jobErr error) {
		if jobErr != nil {
			onDone(nil, jobErr)
			return
		}
		onDone(f.finish())
	})
	return nil
}

// ProduceOn is Produce with the memo rows of every block search
// (dmtFill) filled by one foreground job on pool, under qos, with the
// calling goroutine joined (sched.Pool.TryRunQoS): the caller fills
// rows itself and at most the pool's other workers help. The plan is
// Produce's, bit for bit. A run with fewer than two chunks, or a pool
// of one worker, has nobody to share with and fills on the caller with
// no job. The helper never waits: a pool at depth or closed leaves the
// caller to fill every row alone, so ProduceOn fails only where Produce
// would, or with the error of a helper task that ran and failed (an
// injected fault, a contained panic).
func ProduceOn(pool *sched.Pool, qos sched.QoS, chip *hw.Chip, m, n, k int, opts Options) (*plan.Plan, error) {
	e, err := newProduceEnv(chip, m, n, k, opts)
	if err != nil {
		return nil, err
	}
	f, err := e.openFill(pool.Workers())
	if err != nil {
		return nil, err
	}
	if len(f.chunks) >= 2 && pool.Workers() >= 2 {
		// No context: the plan is shared through the plan cache, so one
		// caller's cancellation must not fail it for the others.
		if fut, err := pool.TryRunQoS(context.Background(), len(f.chunks), 0, qos, f.task); err == nil {
			if err := fut.Wait(); err != nil {
				return nil, err
			}
		}
	}
	// Finish computes any memo cell the fill did not reach, so a refused
	// helper leaves the whole search to the caller.
	return f.finish()
}

// gridCount returns how many blocks of extent size a dimension of the
// grid contains.
func gridCount(total, bs, size int) int {
	if bs >= total {
		return 1
	}
	if size == bs {
		return total / bs
	}
	return 1 // remainder block
}

// Attach binds an executor to a produced (or deserialized) recipe. The
// recipe must validate and belong to the chip; unless runtime marks it
// TrustedPlan (the in-process produce path), it must additionally pass
// the static plan audit — coverage, bounds composition and kernel-key
// consistency are re-proven before any kernel can execute, so a
// corrupt or tampered registry entry is rejected here and the caller
// falls back to fresh planning. runtime carries only what the recipe
// does not: ForceInterp, a custom Strategy for later re-planning,
// TrustedPlan, the scheduler (Runtime), the kernel cache (Kernels) and
// the CallOverhead the estimates charge.
func Attach(chip *hw.Chip, rec *plan.Plan, runtime Options) (*Plan, error) {
	if chip == nil {
		return nil, fmt.Errorf("core: nil chip")
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	if rec.Request.Chip != chip.Name {
		return nil, fmt.Errorf("core: plan for chip %s attached to %s", rec.Request.Chip, chip.Name)
	}
	if !runtime.TrustedPlan {
		if _, err := audit.Audit(chip, rec, audit.Options{}); err != nil {
			return nil, err
		}
	}
	// A deserialized recipe is untrusted: reject degenerate or
	// overflowing geometry here, before it can reach execution where the
	// minimum-buffer-length checks would mis-evaluate on it.
	if rec.Request.M <= 0 || rec.Request.N <= 0 || rec.Request.K <= 0 {
		return nil, fmt.Errorf("core: plan has invalid problem %dx%dx%d",
			rec.Request.M, rec.Request.N, rec.Request.K)
	}
	if err := checkGeometry(rec.Request.M, rec.Request.N, rec.Request.K); err != nil {
		return nil, err
	}
	pack, err := PackFromString(rec.Pack)
	if err != nil {
		return nil, err
	}
	if pack == PackAuto {
		return nil, fmt.Errorf("core: plan has unresolved packing mode")
	}

	o := runtime
	o.MC, o.NC, o.KC = rec.MC, rec.NC, rec.KC
	o.Pack = pack
	o.Rotate, o.Fuse = rec.Request.Rotate, rec.Request.Fuse
	o.ForceKCisK = rec.Request.KCisK

	p := &Plan{
		Chip: chip, M: rec.Request.M, N: rec.Request.N, K: rec.Request.K,
		Opts:    o,
		Recipe:  rec,
		params:  perfmodel.FromChip(chip),
		tilings: make(map[[2]int]tiling.Tiling, len(rec.Blocks)),
		progs:   make(map[[3]int]*blockProg),
		kernels: o.Kernels,
	}
	if p.kernels == nil {
		p.kernels = mkernel.NewCache()
	}
	for _, blk := range rec.Blocks {
		tl := tiling.FromPlanBlock(blk)
		if err := tl.Validate(chip.Lanes); err != nil {
			return nil, fmt.Errorf("core: plan block %dx%d: %w", blk.M, blk.N, err)
		}
		p.tilings[[2]int{blk.M, blk.N}] = tl
	}
	// Every block shape of the grid must be covered by the recipe; each
	// gets its program entry, resolved on first use.
	for _, mb := range blockShapes(p.M, o.MC) {
		for _, nb := range blockShapes(p.N, o.NC) {
			tl, ok := p.tilings[[2]int{mb, nb}]
			if !ok {
				return nil, fmt.Errorf("core: plan missing tiling for block %dx%d", mb, nb)
			}
			for _, kb := range blockShapes(p.K, o.KC) {
				p.progs[[3]int{mb, nb, kb}] = &blockProg{tl: tl}
			}
		}
	}
	p.interpOnly = o.ForceInterp
	p.scratch = mkernel.ScratchEnvelope(o.MC, o.NC, o.KC, chip.Lanes)
	p.aSlots = aSlots(p.K, o.KC, p.scratch.PackA)

	// Execution runtime: the scheduler pool every run is a job on, and
	// the C-tile-group partition, precomputed here instead of rebuilt by
	// every parallel call.
	p.runtime = o.Runtime
	if p.runtime == nil {
		p.runtime = sched.Shared()
	}
	// The grid visits each C tile's k blocks back to back, so a tile's
	// group is a run of kBlocks consecutive blocks.
	blocks := p.blocks()
	kBlocks := (p.K + o.KC - 1) / o.KC
	for i := 0; i < len(blocks); i += kBlocks {
		p.groups = append(p.groups, blocks[i:i+kBlocks])
	}
	p.readsInPlace = pack == PackNone && !p.interpOnly && chip.Lanes == 4
	return p, nil
}
