package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"autogemm/internal/asm"
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
// following the plan's blocking, packing, loop order and tiling. A, B
// and C are row-major with leading dimensions K, N and N. This is the
// verification path; Estimate projects its runtime on the target chip.
//
// Run executes on the calling goroutine as a one-participant job on the
// plan's scheduler runtime (RunQoS): the caller walks the precomputed
// C-tile groups in order, each group's k chunks ascending, and no pool
// worker is woken — the serial reference every parallel, batch and
// async execution is held bit-identical to.
//
// Every block takes one path (runBlock): A and B are packed into the
// worker's scratch panels, C is staged through its padded block
// buffer, the block's compiled kernels run over them, and C is copied
// back. The plan's packing mode is the cycle model's decision
// (Estimate); on the host every block packs. A kernel that fails to
// generate or compile, or a call that fails its precheck, is an error,
// and the failing block's C region is left untouched. With ForceInterp
// the kernels run on the checked interpreter over the same buffers.
func (p *Plan) Run(c, a, b []float32) error { return p.RunParallel(c, a, b, 1) }

// bandCall is one kernel invocation of a block: the program, its
// layout at the block's leading dimensions and its row/column placement
// inside the block. cp and lay are nil on a ForceInterp plan, which
// runs prog instead.
type bandCall struct {
	cp   *compile.Program
	lay  *compile.Layout
	prog *asm.Program
	row  int
	col  int
}

// blockProg is the resolved program of one block shape (MB, NB, KB):
// its tiling and kernel call sequence. Attach makes one entry per shape
// of the grid; the calls are resolved once, on the shape's first visit,
// so repeated block visits (and repeated Run calls on a cached plan)
// skip straight to kernel execution with no per-visit banding or cache
// lookups.
type blockProg struct {
	tl    tiling.Tiling
	once  sync.Once
	calls []bandCall
	err   error
}

// blockProgram returns the resolved program for a block's shape,
// resolving its calls on first use. Concurrent workers hitting the same
// shape share one build via the entry's sync.Once.
func (p *Plan) blockProgram(blk blockIter) (*blockProg, error) {
	bp, ok := p.progs[[3]int{blk.MB, blk.NB, blk.KB}]
	if !ok {
		return nil, fmt.Errorf("core: plan has no block %dx%dx%d", blk.MB, blk.NB, blk.KB)
	}
	bp.once.Do(func() { bp.calls, bp.err = p.resolveCalls(bp.tl.Bands(p.Chip.Lanes), blk.KB) })
	return bp, bp.err
}

// resolveCalls lowers the block's bands to kernel invocations, each
// compiled kernel with its layout at the block's leading dimensions
// (KB, LD, LD); calls of one kernel share its layout. A kernel that
// fails to generate or compile is an error — the kernel cache memoizes
// it, so repeated blocks do not rebuild it.
func (p *Plan) resolveCalls(bands []tiling.Band, kb int) ([]bandCall, error) {
	ld := int64(p.scratch.LD)
	lays := map[*compile.Program]*compile.Layout{}
	var calls []bandCall
	for _, bd := range bands {
		for _, cl := range p.calls(bd, kb) {
			bc := bandCall{row: bd.Row}
			if p.interpOnly {
				prog, err := p.kernels.Program(cl.Spec)
				if err != nil {
					return nil, err
				}
				bc.prog = prog
			} else {
				cp, err := p.kernels.Compiled(cl.Spec)
				if err != nil {
					return nil, err
				}
				if lays[cp] == nil {
					lays[cp] = cp.Layout(int64(kb), ld, ld)
				}
				bc.cp, bc.lay = cp, lays[cp]
			}
			for i := 0; i < cl.Count; i++ {
				bc.col = cl.Col + i*cl.Width
				calls = append(calls, bc)
			}
		}
	}
	return calls, nil
}

// runBlock executes one cache block: A and B are packed into the
// worker's panels (skipped when the panel already holds them), C is
// staged through the padded block buffer, the block's calls run, and C
// is copied back only when every call succeeded.
func (p *Plan) runBlock(st *execState, blk blockIter, c, a, b []float32) error {
	bp, err := p.blockProgram(blk)
	if err != nil {
		return err
	}
	k, n := p.K, p.N
	lda, ld := blk.KB, p.scratch.LD
	if ak := [4]int{blk.MOff, blk.KOff, blk.MB, blk.KB}; st.aKey != ak {
		for i := 0; i < blk.MB; i++ {
			copy(st.packA[i*lda:i*lda+blk.KB], a[(blk.MOff+i)*k+blk.KOff:])
		}
		st.aKey = ak
	}
	if bk := [4]int{blk.NOff, blk.KOff, blk.NB, blk.KB}; st.bKey != bk {
		for r := 0; r < blk.KB; r++ {
			copy(st.packB[r*ld:r*ld+blk.NB], b[(blk.KOff+r)*n+blk.NOff:])
		}
		st.bKey = bk
	}
	for i := 0; i < blk.MB; i++ {
		copy(st.cBuf[i*ld:i*ld+blk.NB], c[(blk.MOff+i)*n+blk.NOff:])
	}
	for _, cl := range bp.calls {
		if err := p.runCall(st, cl, lda, ld); err != nil {
			return err
		}
	}
	for i := 0; i < blk.MB; i++ {
		copy(c[(blk.MOff+i)*n+blk.NOff:(blk.MOff+i)*n+blk.NOff+blk.NB], st.cBuf[i*ld:])
	}
	if p.interpOnly {
		atomic.AddInt64(&p.nInterp, 1)
	} else {
		atomic.AddInt64(&p.nPacked, 1)
	}
	return nil
}

// runCall runs one kernel invocation over the worker's panels, compiled
// or, on a ForceInterp plan, on the machine over the same arena.
func (p *Plan) runCall(st *execState, cl bandCall, lda, ld int) error {
	aOff, bOff, cOff := int64(cl.row*lda), int64(cl.col), int64(cl.row*ld+cl.col)
	if cl.cp != nil {
		return cl.cp.Run(st.env, cl.lay, st.packA, st.packB, st.cBuf, aOff, bOff, cOff, kernelFuel)
	}
	m := st.mach
	m.SetArg(0, st.aReg+aOff*4)
	m.SetArg(1, st.bReg+bOff*4)
	m.SetArg(2, st.cReg+cOff*4)
	m.SetArg(3, int64(lda))
	m.SetArg(4, int64(ld))
	m.SetArg(5, int64(ld))
	return m.Run(cl.prog, kernelFuel)
}
