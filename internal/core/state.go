package core

import (
	"autogemm/internal/sched"
	"autogemm/internal/sim"
	"autogemm/internal/sim/compile"
)

// execState is the per-worker execution scratch: the packing and
// C-staging buffers, and the executor that runs kernels over them — a
// compiled-kernel environment, or on a ForceInterp plan a machine. The
// buffers are slices of one frozen arena, so both executors address the
// same memory. Each scheduler worker ID — a pool worker, or a caller
// slot a blocking run borrows — owns one state per plan, slot ID of the
// plan's states slice, built on the ID's first task for the plan and
// reused across every later job.
type execState struct {
	packA []float32 // A block, row-major, lda = k_c
	packB []float32 // B panel, row-major, ldb = Plan.scratch.LD
	cBuf  []float32 // padded C block staging buffer, ldc = Plan.scratch.LD

	// Pack-reuse keys: the (offset, shape) of the block currently held
	// in packA/packB. A and B are read-only during a job, so when the
	// loop order revisits the same panel (e.g. the A block across the n
	// loop in MNK order) the copy is skipped. Reset when the worker
	// moves to a new job — the operand slices differ between jobs.
	aKey, bKey [4]int
	job        uint64 // sequence number of the job the keys belong to

	env  *compile.Env // nil on a ForceInterp plan
	mach *sim.Machine // ForceInterp only, over the arena below

	// The buffers' byte addresses in the arena, which the machine's
	// kernel arguments take. The arena's layout is fixed at
	// construction and frozen, honouring sim.Arena's growth contract.
	aReg, bReg, cReg int64
}

// newState sizes the scratch for the plan's largest block using the
// shared mkernel.ScratchEnvelope — the same envelope the plan auditor
// proves every kernel call of a loaded plan fits inside.
func (p *Plan) newState() *execState {
	lanes := p.Chip.Lanes
	sc := p.scratch
	ar := sim.NewArena(sc.PackA + sc.PackB + sc.CBuf + 64)
	st := &execState{
		aKey: noKey, bKey: noKey,
		aReg: ar.Alloc(sc.PackA),
		bReg: ar.Alloc(sc.PackB),
		cReg: ar.Alloc(sc.CBuf),
	}
	ar.Freeze()
	st.packA = ar.Slice(st.aReg, sc.PackA)
	st.packB = ar.Slice(st.bReg, sc.PackB)
	st.cBuf = ar.Slice(st.cReg, sc.CBuf)
	if p.interpOnly {
		st.mach = sim.NewMachine(ar, lanes)
	} else {
		st.env = compile.NewEnv(lanes)
	}
	return st
}

// noKey marks a pack buffer as holding no reusable panel.
var noKey = [4]int{-1, -1, -1, -1}

// stateFor returns the running participant's scratch for this plan,
// building it on first use. Slot w.ID() is only ever active on one
// goroutine at a time (the sched.Worker contract), so the slice slot
// needs no lock; pack-reuse keys reset when the worker crosses into a
// new job, because the operand slices differ between jobs.
func (p *Plan) stateFor(w *sched.Worker, job uint64) *execState {
	st := p.states[w.ID()]
	if st == nil {
		st = p.newState()
		p.states[w.ID()] = st
	}
	if st.job != job {
		st.job = job
		st.aKey, st.bKey = noKey, noKey
	}
	return st
}
