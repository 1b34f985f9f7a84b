package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"autogemm/internal/asm"
	"autogemm/internal/mkernel"
	"autogemm/internal/sched"
	"autogemm/internal/sim/compile"
	"autogemm/internal/tiling"
)

// calls lowers a band to its kernel launches at depth kb; see
// tiling.Band.Calls, the one rule the planner and auditor share.
func (p *Plan) calls(bd tiling.Band, kb int) []tiling.Call {
	return bd.Calls(kb, p.Chip.Lanes, p.Opts.Rotate, p.Opts.Fuse)
}

// kernelFuel bounds taken loop branches per kernel invocation — a
// backstop against generator bugs, matching the interpreter's step cap.
const kernelFuel = 1 << 31

// Run computes C += A·B functionally through the generated kernels,
// following the plan's blocking, packing and tiling. A, B
// and C are row-major with leading dimensions K, N and N. This is the
// verification path; Estimate projects its runtime on the target chip.
//
// Run executes on the calling goroutine as a one-participant job on the
// plan's scheduler runtime (RunQoS): the caller walks the precomputed
// C-tile groups in order, each group's k chunks ascending, and no pool
// worker is woken — the serial reference every parallel, batch and
// async execution is held bit-identical to.
//
// Every C-tile group takes one path (runGroup): the group's C tile is
// staged into the worker's padded buffer once, each of its k blocks
// runs its compiled kernels onto it, and the tile is copied back once.
// A block's kernel calls are one compiled layout (compile.Layout) and
// run as one checked Run. A block reads A and B where the plan's
// packing mode says: a PackNone plan's block reads them in place, at
// lda = K and ldb = N, when its in-place layout's reach fits them at
// the block's corner; any other block packs A into its slot of the
// worker's A row panel and B into the B panel (each skipped when it
// already holds that block). A kernel that fails to generate or
// compile, or a block its Run refuses, is an error, and the failing
// group's C tile is left untouched. With ForceInterp the kernels run
// call by call on the checked interpreter over the packed buffers.
func (p *Plan) Run(c, a, b []float32) error { return p.RunParallel(c, a, b, 1) }

// bandCall is one kernel invocation of a block: the program a
// ForceInterp plan runs on the machine, and its row/column placement
// inside the block.
type bandCall struct {
	prog *asm.Program
	row  int
	col  int
}

// blockProg is the resolved program of one block shape (MB, NB, KB):
// its tiling and its kernel calls, as compiled layouts or, on a
// ForceInterp plan, as calls the machine runs one by one. Attach makes
// one entry per shape of the grid; the calls are resolved once, on the
// shape's first visit, so repeated block visits (and repeated Run calls
// on a cached plan) skip straight to kernel execution with no per-visit
// banding or cache lookups.
type blockProg struct {
	tl   tiling.Tiling
	once sync.Once
	// packed is the block's calls over the packed panels, at (KB, LD,
	// LD), and inPlace over A and B read in place, at (K, N, LD); it is
	// nil unless the plan reads in place (Plan.readsInPlace).
	packed, inPlace *compile.Layout
	calls           []bandCall // ForceInterp only
	err             error
}

// blockProgram returns the resolved program for a block's shape,
// resolving its calls on first use. Concurrent workers hitting the same
// shape share one build via the entry's sync.Once.
func (p *Plan) blockProgram(blk blockIter) (*blockProg, error) {
	bp, ok := p.progs[[3]int{blk.MB, blk.NB, blk.KB}]
	if !ok {
		return nil, fmt.Errorf("core: plan has no block %dx%dx%d", blk.MB, blk.NB, blk.KB)
	}
	bp.once.Do(func() { bp.err = p.resolveCalls(bp, blk.KB) })
	return bp, bp.err
}

// resolveCalls lowers a block shape's bands to its kernel invocations:
// a ForceInterp plan's programs with their placements, or else the
// compiled kernels as the block's layouts (blockLayout), at the packed
// panels' leading dimensions (KB, LD, LD) and, when the plan reads in
// place, at A's and B's own (K, N, LD). A kernel that fails to generate
// or compile is an error — the kernel cache memoizes it, so repeated
// blocks do not rebuild it.
func (p *Plan) resolveCalls(bp *blockProg, kb int) error {
	var cps []*compile.Program
	var at [][2]int
	for _, bd := range bp.tl.Bands(p.Chip.Lanes) {
		for _, cl := range p.calls(bd, kb) {
			var prog *asm.Program
			var cp *compile.Program
			var err error
			if p.interpOnly {
				prog, err = p.kernels.Program(cl.Spec)
			} else {
				cp, err = p.kernels.Compiled(cl.Spec)
			}
			if err != nil {
				return err
			}
			for i := 0; i < cl.Count; i++ {
				col := cl.Col + i*cl.Width
				if p.interpOnly {
					bp.calls = append(bp.calls, bandCall{prog: prog, row: bd.Row, col: col})
				} else {
					cps, at = append(cps, cp), append(at, [2]int{bd.Row, col})
				}
			}
		}
	}
	if !p.interpOnly {
		ld := p.scratch.LD
		bp.packed = blockLayout(cps, at, kb, ld, ld)
		if p.readsInPlace {
			bp.inPlace = blockLayout(cps, at, p.K, p.N, ld)
		}
	}
	return nil
}

// blockLayout resolves a block's compiled calls at lda, ldb and ldc:
// call i runs cps[i] at block row at[i][0] and column at[i][1], reading
// A at row·lda, B at col and C at row·ldc + col past the Run's bases.
func blockLayout(cps []*compile.Program, at [][2]int, lda, ldb, ldc int) *compile.Layout {
	offs := make([][3]int64, len(at))
	for i, rc := range at {
		row, col := rc[0], rc[1]
		offs[i] = [3]int64{int64(row * lda), int64(col), int64(row*ldc + col)}
	}
	return compile.NewLayout(int64(lda), int64(ldb), int64(ldc), cps, offs)
}

// Prebuild compiles the kernels a plan's blocks call into its kernel
// cache before its first execution, as one job of one task per kernel
// not yet compiled, on the whole pool with the caller joined
// (sched.Pool.TryRunQoS), bound to ctx and scheduled under qos. The
// block programs still resolve through their own sync.Once on first
// visit (blockProgram); after Prebuild that only hits the cache. A
// kernel that fails to build is memoized by the cache and fails the
// block that calls it, exactly as without Prebuild.
//
// Prebuild does nothing once a call found every kernel compiled, on a
// ForceInterp plan, on a one-worker pool (the run's own lazy resolution
// does the same work on the caller), or with fewer than two kernels to
// build. A refused job (pool at depth, closed, ctx done) also leaves the
// builds to the run. It returns only the error of a helper job that ran
// and failed: an injected fault, a contained panic, or ctx firing
// mid-job.
func (p *Plan) Prebuild(ctx context.Context, qos sched.QoS) error {
	if p.interpOnly || p.runtime.Workers() < 2 || p.prebuilt.Load() {
		return nil
	}
	specs := p.unbuiltSpecs()
	if len(specs) >= 2 {
		fut, err := p.runtime.TryRunQoS(ctx, len(specs), 0, qos, func(_ *sched.Worker, i int) error {
			_, _ = p.kernels.Compiled(specs[i]) // a failure is reported by the block that calls it
			return nil
		})
		if err != nil {
			return nil
		}
		if err := fut.Wait(); err != nil {
			return err
		}
	}
	p.prebuilt.Store(true)
	return nil
}

// unbuiltSpecs lists the distinct kernels the plan's blocks call that
// the kernel cache has not compiled yet, in first-visit order.
func (p *Plan) unbuiltSpecs() []mkernel.Spec {
	shapes := map[[3]int]bool{}
	keys := map[mkernel.Key]bool{}
	var specs []mkernel.Spec
	for _, g := range p.groups {
		for _, blk := range g {
			shape := [3]int{blk.MB, blk.NB, blk.KB}
			if shapes[shape] {
				continue
			}
			shapes[shape] = true
			for _, bd := range p.progs[shape].tl.Bands(p.Chip.Lanes) {
				for _, cl := range p.calls(bd, blk.KB) {
					if key := cl.Spec.Key(); !keys[key] {
						keys[key] = true
						if !p.kernels.Lowered(key) {
							specs = append(specs, cl.Spec)
						}
					}
				}
			}
		}
	}
	return specs
}

// aPanelBound caps a participant's A row panel, in float32 elements
// (1 MiB). A plan whose k blocks' A slots fit under it keeps one slot
// per k block, so a group's A blocks stay packed for the next group of
// the same m block; above it the panel is one slot, re-packed on every
// k step.
const aPanelBound = 1 << 18

// aSlots returns the A slots of a plan's row panel: its k-block count
// when that many ScratchEnvelope A blocks fit aPanelBound, else 1.
func aSlots(k, kc, packA int) int {
	if nk := (k + kc - 1) / kc; nk <= aPanelBound/packA {
		return nk
	}
	return 1
}

// runGroup executes one C-tile group, its k blocks ascending: the C
// tile is staged into cBuf once, each block runs its calls onto it as
// one Run, reading A and B in place when the block's in-place layout
// fits them at its corner and otherwise packing A into its slot of the
// row panel and B into the B panel (skipped when they already hold that
// block), and the tile is copied back once, only when every block
// succeeded. Each block's calls add onto cBuf in the order a per-block
// copy through C would, so the result is bit-identical to staging C
// around every block; a block reads the same A and B values on either
// path. a and b are cut to M·K and K·N.
func (p *Plan) runGroup(st *execState, group []blockIter, c, a, b []float32) error {
	k, n := p.K, p.N
	ld, sa := p.scratch.LD, p.scratch.PackA
	t := group[0]
	for i := 0; i < t.MB; i++ {
		copy(st.cBuf[i*ld:i*ld+t.NB], c[(t.MOff+i)*n+t.NOff:])
	}
	inPlace := 0
	for ki, blk := range group {
		bp, err := p.blockProgram(blk)
		if err != nil {
			return err
		}
		aOff, bOff := int64(blk.MOff*k+blk.KOff), int64(blk.KOff*n+blk.NOff)
		if ip := bp.inPlace; ip != nil && ip.Fits(len(a), len(b), len(st.cBuf), aOff, bOff, 0) {
			if err := ip.Run(st.env, a, b, st.cBuf, aOff, bOff, 0, kernelFuel); err != nil {
				return err
			}
			inPlace++
			continue
		}
		lda, slot := blk.KB, ki%p.aSlots
		if ak := [4]int{blk.MOff, blk.KOff, blk.MB, blk.KB}; st.aKeys[slot] != ak {
			pa := st.packA[slot*sa:]
			for i := 0; i < blk.MB; i++ {
				copy(pa[i*lda:i*lda+blk.KB], a[(blk.MOff+i)*k+blk.KOff:])
			}
			st.aKeys[slot] = ak
		}
		if bk := [4]int{blk.NOff, blk.KOff, blk.NB, blk.KB}; st.bKey != bk {
			for r := 0; r < blk.KB; r++ {
				copy(st.packB[r*ld:r*ld+blk.NB], b[(blk.KOff+r)*n+blk.NOff:])
			}
			st.bKey = bk
		}
		if !p.interpOnly {
			if err := bp.packed.Run(st.env, st.packA[slot*sa:(slot+1)*sa], st.packB, st.cBuf, 0, 0, 0, kernelFuel); err != nil {
				return err
			}
			continue
		}
		for _, cl := range bp.calls {
			if err := p.interpCall(st, cl, slot, lda, ld); err != nil {
				return err
			}
		}
	}
	for i := 0; i < t.MB; i++ {
		copy(c[(t.MOff+i)*n+t.NOff:(t.MOff+i)*n+t.NOff+t.NB], st.cBuf[i*ld:])
	}
	if p.interpOnly {
		atomic.AddInt64(&p.nInterp, int64(len(group)))
		return nil
	}
	if inPlace > 0 {
		atomic.AddInt64(&p.nABInPlace, int64(inPlace))
	}
	if inPlace < len(group) {
		atomic.AddInt64(&p.nPacked, int64(len(group)-inPlace))
	}
	return nil
}

// interpCall runs one kernel invocation of a ForceInterp plan on the
// machine, over the worker's panels: its A operand in the given slot of
// the row panel, at lda, and B and C at ld.
func (p *Plan) interpCall(st *execState, cl bandCall, slot, lda, ld int) error {
	m := st.mach
	m.SetArg(0, st.aReg+int64(slot*p.scratch.PackA+cl.row*lda)*4)
	m.SetArg(1, st.bReg+int64(cl.col)*4)
	m.SetArg(2, st.cReg+int64(cl.row*ld+cl.col)*4)
	m.SetArg(3, int64(lda))
	m.SetArg(4, int64(ld))
	m.SetArg(5, int64(ld))
	return m.Run(cl.prog, kernelFuel)
}
