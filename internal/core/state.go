package core

import (
	"autogemm/internal/mkernel"
	"autogemm/internal/sched"
	"autogemm/internal/sim"
	"autogemm/internal/sim/compile"
)

// execState is one scheduler participant's execution scratch: the
// packing and C-staging buffers, and the executor that runs kernels
// over them — a compiled-kernel environment, or for a ForceInterp plan
// a machine. The buffers are regions of one frozen arena, so both
// executors address the same memory. Each worker ID — a pool worker,
// or a caller slot a blocking run borrows — keeps one state in its
// sched.Worker.Local slot and carries it across every plan it runs.
type execState struct {
	// The running plan's views of the arena regions, cut to its
	// mkernel.ScratchEnvelope so a block that overruns the plan's
	// envelope fails its reach check whatever the arena has grown to.
	// The A row panel is Plan.aSlots slots of PackA elements; each
	// block receives its slot cut to PackA.
	packA []float32 // A row panel, slot-major; each slot row-major, lda = k_c
	packB []float32 // B panel, row-major, ldb = Plan.scratch.LD
	cBuf  []float32 // padded C tile staging buffer, ldc = Plan.scratch.LD

	// Pack-reuse keys: the (offset, shape) of the block currently held
	// in each A slot and in packB. A and B are read-only during a job,
	// so when a task meets a block a slot or the panel already holds
	// (an A block again for the next C tile of the same m block) the
	// copy is skipped. A k block's A goes to slot ki mod aSlots. Reset
	// when the worker moves to a new job — the operand slices, and
	// perhaps the plan, differ between jobs.
	aKeys [][4]int
	bKey  [4]int
	job   uint64 // sequence number of the job the keys belong to

	env  *compile.Env // built for the last compiled plan's lanes
	mach *sim.Machine // built on demand for a ForceInterp plan, over arena

	// The arena, the largest envelope this ID has run (size; its
	// PackB and CBuf are the B and C regions), the A region's length
	// in elements (aLen, the largest A row panel run) and the regions'
	// byte addresses, which the machine's kernel arguments take. The
	// layout is fixed at construction and frozen, honouring
	// sim.Arena's growth contract; growing builds a new arena.
	arena            *sim.Arena
	size             mkernel.Scratch
	aLen             int
	aReg, bReg, cReg int64
}

// noKey marks a pack buffer as holding no reusable panel.
var noKey = [4]int{-1, -1, -1, -1}

// stateFor returns the running participant's scratch, fitted to this
// plan. The state lives in the ID's Local slot, which only the
// goroutine holding the ID touches, so it needs no lock.
func (p *Plan) stateFor(w *sched.Worker, job uint64) *execState {
	slot := w.Local()
	st, _ := (*slot).(*execState)
	if st == nil {
		st = &execState{}
		*slot = st
	}
	p.fit(st, job)
	return st
}

// fit prepares a participant's scratch for a task of this plan's job:
// the arena grows when the plan's envelope or A row panel exceeds it,
// the executor is (re)built when the chip's lanes differ, the views are
// cut to the plan's envelope, and the pack-reuse keys reset on a new
// job.
func (p *Plan) fit(st *execState, job uint64) {
	sc, lanes := p.scratch, p.Chip.Lanes
	aLen := p.aSlots * sc.PackA
	if aLen > st.aLen || sc.PackB > st.size.PackB || sc.CBuf > st.size.CBuf {
		st.aLen = max(aLen, st.aLen)
		st.size.PackB, st.size.CBuf = max(sc.PackB, st.size.PackB), max(sc.CBuf, st.size.CBuf)
		ar := sim.NewArena(st.aLen + st.size.PackB + st.size.CBuf + 64)
		st.aReg, st.bReg, st.cReg = ar.Alloc(st.aLen), ar.Alloc(st.size.PackB), ar.Alloc(st.size.CBuf)
		ar.Freeze()
		st.arena, st.mach = ar, nil
	}
	st.size.PackA = max(sc.PackA, st.size.PackA) // a record only: aLen sizes the A region
	if p.interpOnly {
		if st.mach == nil || st.mach.Lanes != lanes {
			st.mach = sim.NewMachine(st.arena, lanes)
		}
	} else if st.env == nil || st.env.Lanes() != lanes {
		st.env = compile.NewEnv(lanes)
	}
	st.packA = st.arena.Slice(st.aReg, aLen)
	st.packB = st.arena.Slice(st.bReg, sc.PackB)
	st.cBuf = st.arena.Slice(st.cReg, sc.CBuf)
	if st.job != job {
		st.job = job
		if cap(st.aKeys) < p.aSlots {
			st.aKeys = make([][4]int, p.aSlots)
		}
		st.aKeys = st.aKeys[:p.aSlots]
		for i := range st.aKeys {
			st.aKeys[i] = noKey
		}
		st.bKey = noKey
	}
}
