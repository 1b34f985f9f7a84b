package core

import (
	"sync"
	"sync/atomic"

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
// Run executes as a single-worker job on the plan's scheduler runtime:
// one pool worker walks the precomputed C-tile groups in order, each
// group's k chunks ascending — the serial reference every parallel,
// batch and async execution is held bit-identical to.
//
// Kernels proven bound-safe by the analyzer execute in compiled form,
// addressing the operand slices directly where the panel prechecks
// allow it; anything unproven (and everything, when ForceInterp is set)
// runs on the checked interpreter over a per-worker arena. Slices
// longer than the minimum m·k / k·n / m·n extents give the in-place
// fast path more room: edge blocks whose kernels over-read past the
// matrix end otherwise fall back to the packed path.
func (p *Plan) Run(c, a, b []float32) error { return p.RunParallel(c, a, b, 1) }

// bandCall is one compiled kernel invocation of a block: the program
// plus its row/column placement inside the block.
type bandCall struct {
	cp  *compile.Program
	row int
	col int
}

// blockProg is the fully-resolved program of one block shape (MB, NB,
// KB): its band decomposition and, when every kernel compiled, the
// compiled call sequence. It is built once per shape — repeated block
// visits (and repeated Run calls on a cached plan) skip straight to
// kernel execution with no per-visit banding or cache lookups.
type blockProg struct {
	once       sync.Once
	bands      []tiling.Band
	calls      []bandCall
	compiledOK bool
	err        error

	// lays[t][i] is calls[i]'s kernel layout at tier t's leading
	// dimensions, resolved on the tier's first run.
	lays [numTiers]struct {
		once sync.Once
		l    []*compile.Layout
	}
}

// The compiled tiers of runBlockCompiled. Each passes its kernels
// leading dimensions fixed by the plan and the block shape: (K, N, N)
// in place, (K, N, ldc) with C staged, (KB, ldc, ldc) packed, where ldc
// is the staging buffer's.
const (
	tierInPlace = iota
	tierStagedC
	tierPacked
	numTiers
)

// layouts returns the calls' kernel layouts at tier's leading
// dimensions, resolving them on the tier's first use; calls of one
// kernel share its layout.
func (bp *blockProg) layouts(tier, lda, ldb, ldc int) []*compile.Layout {
	t := &bp.lays[tier]
	t.once.Do(func() {
		byProg := map[*compile.Program]*compile.Layout{}
		t.l = make([]*compile.Layout, len(bp.calls))
		for i, cl := range bp.calls {
			l, ok := byProg[cl.cp]
			if !ok {
				l = cl.cp.Layout(int64(lda), int64(ldb), int64(ldc))
				byProg[cl.cp] = l
			}
			t.l[i] = l
		}
	})
	return t.l
}

// blockProgram returns the resolved program for a block's shape,
// building it on first use. Concurrent workers hitting the same shape
// share one build via the entry's sync.Once.
func (p *Plan) blockProgram(blk blockIter) (*blockProg, error) {
	key := [3]int{blk.MB, blk.NB, blk.KB}
	p.mu.Lock()
	bp, ok := p.progs[key]
	if !ok {
		bp = &blockProg{}
		p.progs[key] = bp
	}
	p.mu.Unlock()
	bp.once.Do(func() {
		tl, err := p.blockTiling(blk.MB, blk.NB)
		if err != nil {
			bp.err = err
			return
		}
		bp.bands = tl.Bands(p.Chip.Lanes)
		if !p.interpOnly {
			bp.calls, bp.compiledOK = p.resolveCalls(bp.bands, blk.KB)
		}
	})
	return bp, bp.err
}

// runBlock executes one cache block, choosing the cheapest proven path:
//
//  1. fully in place — compiled kernels address A, B and C directly in
//     the user slices (PackNone, no padded overhang, prechecks pass);
//  2. A/B in place, C staged through the padded block buffer;
//  3. packed — A and B copied into scratch panels, C staged;
//  4. checked interpreter over the per-worker arena, when any kernel of
//     the block failed to compile or the plan forces interpretation.
func (p *Plan) runBlock(st *execState, blk blockIter, c, a, b []float32) error {
	bp, err := p.blockProgram(blk)
	if err != nil {
		return err
	}
	if !p.interpOnly && bp.compiledOK {
		done, err := p.runBlockCompiled(st, blk, bp, c, a, b)
		if done || err != nil {
			return err
		}
	}
	return p.runBlockInterp(st, blk, bp.bands, c, a, b)
}

// resolveCalls lowers the block's bands to compiled kernel invocations.
// ok is false when any kernel failed to compile — the analyzer could
// not prove its bounds — and the caller must use the interpreter. The
// kernel cache memoizes failures, so repeated blocks do not re-analyze.
func (p *Plan) resolveCalls(bands []tiling.Band, kc int) (calls []bandCall, ok bool) {
	for _, bd := range bands {
		for _, cl := range p.calls(bd, kc) {
			cp, err := p.kernels.Compiled(cl.Spec)
			if err != nil {
				return nil, false
			}
			for i := 0; i < cl.Count; i++ {
				calls = append(calls, bandCall{cp: cp, row: bd.Row, col: cl.Col + i*cl.Width})
			}
		}
	}
	return calls, true
}

// blockFits reports whether every band stays geometrically inside the
// block extents — no padded row or column overhang — the precondition
// for storing C in place.
func blockFits(bands []tiling.Band, blk blockIter) bool {
	for _, bd := range bands {
		if bd.Row+bd.MR > blk.MB || bd.Col+bd.Width() > blk.NB {
			return false
		}
	}
	return true
}

// runBlockCompiled executes the block through the compiled backend.
// done is false when the scratch prechecks fail (the caller then uses
// the interpreter); the decision is made before any operand is written,
// so a fallback never observes a half-executed block.
func (p *Plan) runBlockCompiled(st *execState, blk blockIter, bp *blockProg, c, a, b []float32) (bool, error) {
	bands, calls := bp.bands, bp.calls
	k, n := p.K, p.N
	env := st.env
	inPlaceAB := p.Opts.Pack == PackNone

	// In-place operand offsets (elements) for a call.
	aOff := func(cl bandCall) int64 { return int64((blk.MOff+cl.row)*k + blk.KOff) }
	bOff := func(cl bandCall) int64 { return int64(blk.KOff*n + blk.NOff + cl.col) }
	cOff := func(cl bandCall) int64 { return int64((blk.MOff+cl.row)*n + blk.NOff + cl.col) }

	// Tier 1: everything in place. Requires exact geometric fit (stores
	// into padding would clobber neighbouring C data) and every call's
	// panel precheck passing against the real slice extents.
	if inPlaceAB && blockFits(bands, blk) {
		ok := true
		for _, cl := range calls {
			if !cl.cp.Fits(len(a), len(b), len(c),
				aOff(cl), bOff(cl), cOff(cl), int64(k), int64(n), int64(n)) {
				ok = false
				break
			}
		}
		if ok {
			lays := bp.layouts(tierInPlace, k, n, n)
			for i, cl := range calls {
				if err := cl.cp.Run(env, lays[i], a, b, c,
					aOff(cl), bOff(cl), cOff(cl), kernelFuel); err != nil {
					return true, err
				}
			}
			atomic.AddInt64(&p.nInPlace, 1)
			return true, nil
		}
	}

	// Tiers 2 and 3 stage C through the padded block buffer.
	ldc := st.cBufLD
	cBufOff := func(cl bandCall) int64 { return int64(cl.row*ldc + cl.col) }

	// Tier 2: A and B still read in place.
	useAB := inPlaceAB
	if useAB {
		for _, cl := range calls {
			if !cl.cp.Fits(len(a), len(b), len(st.cBuf),
				aOff(cl), bOff(cl), cBufOff(cl), int64(k), int64(n), int64(ldc)) {
				useAB = false
				break
			}
		}
	}

	lda, ldb := blk.KB, ldc
	if !useAB {
		// Tier 3: precheck against the scratch panels before packing.
		for _, cl := range calls {
			if !cl.cp.Fits(len(st.packA), len(st.packB), len(st.cBuf),
				int64(cl.row*lda), int64(cl.col), cBufOff(cl),
				int64(lda), int64(ldb), int64(ldc)) {
				return false, nil
			}
		}
		if ak := [4]int{blk.MOff, blk.KOff, blk.MB, blk.KB}; st.aKey != ak {
			for i := 0; i < blk.MB; i++ {
				copy(st.packA[i*lda:i*lda+blk.KB], a[(blk.MOff+i)*k+blk.KOff:])
			}
			st.aKey = ak
		}
		if bk := [4]int{blk.NOff, blk.KOff, blk.NB, blk.KB}; st.bKey != bk {
			for r := 0; r < blk.KB; r++ {
				copy(st.packB[r*ldb:r*ldb+blk.NB], b[(blk.KOff+r)*n+blk.NOff:])
			}
			st.bKey = bk
		}
	}

	for i := 0; i < blk.MB; i++ {
		copy(st.cBuf[i*ldc:i*ldc+blk.NB], c[(blk.MOff+i)*n+blk.NOff:])
	}
	var lays []*compile.Layout
	if useAB {
		lays = bp.layouts(tierStagedC, k, n, ldc)
	} else {
		lays = bp.layouts(tierPacked, lda, ldb, ldc)
	}
	for i, cl := range calls {
		var err error
		if useAB {
			err = cl.cp.Run(env, lays[i], a, b, st.cBuf,
				aOff(cl), bOff(cl), cBufOff(cl), kernelFuel)
		} else {
			err = cl.cp.Run(env, lays[i], st.packA, st.packB, st.cBuf,
				int64(cl.row*lda), int64(cl.col), cBufOff(cl), kernelFuel)
		}
		if err != nil {
			return true, err
		}
	}
	for i := 0; i < blk.MB; i++ {
		copy(c[(blk.MOff+i)*n+blk.NOff:(blk.MOff+i)*n+blk.NOff+blk.NB], st.cBuf[i*ldc:])
	}
	if useAB {
		atomic.AddInt64(&p.nABInPlace, 1)
	} else {
		atomic.AddInt64(&p.nPacked, 1)
	}
	return true, nil
}

// runBlockInterp executes the block on the checked interpreter: the
// operand regions are copied into the worker's frozen arena (a dense
// pack — functionally identical for every packing mode), the bands run
// through sim.Machine, and the C region is copied back.
func (p *Plan) runBlockInterp(st *execState, blk blockIter, bands []tiling.Band, c, a, b []float32) error {
	lanes := p.Chip.Lanes
	st.ensureInterp(lanes)
	k, n := p.K, p.N
	lda, ldb, ldc := blk.KB, st.cBufLD, st.cBufLD

	aDst := st.arena.Slice(st.aReg, len(st.packA))
	for i := 0; i < blk.MB; i++ {
		copy(aDst[i*lda:i*lda+blk.KB], a[(blk.MOff+i)*k+blk.KOff:])
	}
	bDst := st.arena.Slice(st.bReg, len(st.packB))
	for r := 0; r < blk.KB; r++ {
		copy(bDst[r*ldb:r*ldb+blk.NB], b[(blk.KOff+r)*n+blk.NOff:])
	}
	cDst := st.arena.Slice(st.cReg, len(st.cBuf))
	for i := 0; i < blk.MB; i++ {
		copy(cDst[i*ldc:i*ldc+blk.NB], c[(blk.MOff+i)*n+blk.NOff:])
	}

	for _, bd := range bands {
		aArg := st.aReg + int64(bd.Row*lda*4)
		bArg := st.bReg + int64(bd.Col*4)
		cArg := st.cReg + int64((bd.Row*ldc+bd.Col)*4)
		if err := p.runBandInterp(st, bd, blk.KB, aArg, bArg, cArg, lda, ldb, ldc); err != nil {
			return err
		}
	}

	for i := 0; i < blk.MB; i++ {
		copy(c[(blk.MOff+i)*n+blk.NOff:(blk.MOff+i)*n+blk.NOff+blk.NB], cDst[i*ldc:])
	}
	atomic.AddInt64(&p.nInterp, 1)
	return nil
}

// runBandInterp executes one band's kernel launches on the machine.
func (p *Plan) runBandInterp(st *execState, bd tiling.Band, kc int, aArg, bArg, cArg int64, lda, ldb, ldc int) error {
	mach := st.mach
	for _, cl := range p.calls(bd, kc) {
		prog, err := p.kernels.Program(cl.Spec)
		if err != nil {
			return err
		}
		for i := 0; i < cl.Count; i++ {
			colOff := int64(cl.Col-bd.Col+i*cl.Width) * 4
			mach.SetArg(0, aArg)
			mach.SetArg(1, bArg+colOff)
			mach.SetArg(2, cArg+colOff)
			mach.SetArg(3, int64(lda))
			mach.SetArg(4, int64(ldb))
			mach.SetArg(5, int64(ldc))
			if err := mach.Run(prog, kernelFuel); err != nil {
				return err
			}
		}
	}
	return nil
}
