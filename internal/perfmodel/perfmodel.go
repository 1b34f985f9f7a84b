// Package perfmodel implements the paper's analytic micro-kernel
// performance model (§III-B and §III-C): projected cycle counts for the
// prologue, main loop and epilogue of a generated micro-kernel (Eqns
// 4–8), the rotating-register-allocation refinements (Eqns 9–10), the
// epilogue–prologue fusion cost (Eqn 11), and the sub-matrix cost
// composition used to prune the tuning search space (Eqn 13).
//
// Counts follow the paper's conventions: n̂_r = n_r/σ_lane and
// k̂_c = k_c/σ_lane are vectorized extents, IPC_x is the issue cost in
// cycles per instruction of class x (the reciprocal of port count for
// fully pipelined units), and L_x is the completion latency.
package perfmodel

import (
	"math"

	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
)

// Params carries the hardware quantities of Table III.
type Params struct {
	IPCFMA   float64 // cycles per FMA issue
	IPCLoad  float64 // cycles per vector-load issue
	IPCStore float64 // cycles per vector-store issue
	LFMA     float64 // FMA latency
	LLoad    float64 // load-to-use latency at the residency level
	LStore   float64 // store latency
	Lanes    int     // σ_lane
	SigmaAI  float64 // σ_AI threshold
	Launch   float64 // T_launch, the kernel call overhead
}

// FromChip derives model parameters from a machine description, taking
// the L1-resident load latency (the model's default assumption: the
// paper's kernels rely on blocking, not L1 prefetch, §V-C).
func FromChip(c *hw.Chip) Params {
	return Params{
		IPCFMA:   1 / float64(c.FMAPorts),
		IPCLoad:  1 / float64(c.LoadPorts),
		IPCStore: 1 / float64(c.StorePorts),
		LFMA:     float64(c.LatFMA),
		LLoad:    float64(c.LatLoad),
		LStore:   float64(c.LatStore),
		Lanes:    c.Lanes,
		SigmaAI:  c.SigmaAI,
		Launch:   float64(c.LaunchCycles),
	}
}

// WithLoadLatency returns a copy of p with the load latency replaced —
// used when the blocking configuration leaves a panel resident in L2 or
// beyond (the KP920 N=64, K=256 cliff of §V-B).
func (p Params) WithLoadLatency(lat float64) Params {
	p.LLoad = lat
	return p
}

// Opt selects which §III-C optimizations the projection assumes.
type Opt struct {
	Rotate bool
	Fuse   bool
}

// vec returns the vectorized extents (n̂_r, ⌊k̂_c⌋, remainder).
func vec(t mkernel.Tile, kc, lanes int) (nhat, khat, rem float64) {
	return float64(t.NR) / float64(lanes), math.Floor(float64(kc) / float64(lanes)),
		float64(kc % lanes)
}

// Prologue returns T_prologue (Eqn 5): issuing the C(m_r,n_r) loads, the
// first A block and first B row, plus one load latency to drain.
func (p Params) Prologue(t mkernel.Tile) float64 {
	nhat := float64(t.NR) / float64(p.Lanes)
	mr := float64(t.MR)
	return (mr*nhat+mr+nhat)*p.IPCLoad + p.LLoad
}

// fmaStream returns the main-loop FMA time: k̂_c·σ_lane k-steps, each
// issuing m_r·n̂_r FMAs. Every accumulator is updated once per k-step,
// so the step period cannot drop below the FMA latency (an effect the
// paper's didactic parameters sit exactly at: 2×16 has 8 accumulators at
// IPC 1 against L_fma = 8, leaving Eqns 6–10 unchanged); tiles with too
// few accumulators for a chip's FMA pipeline are capped by this chain.
func (p Params) fmaStream(t mkernel.Tile, kc int) float64 {
	nhat, khat, _ := vec(t, kc, p.Lanes)
	step := float64(t.MR) * nhat * p.IPCFMA
	if step < p.LFMA {
		step = p.LFMA
	}
	return step * khat * float64(p.Lanes)
}

// MainloopCompute returns T_mainloop for a compute-bound tile (Eqn 6):
// the FMA stream covers the B loads; the per-block A reloads stall once
// per unrolled block.
func (p Params) MainloopCompute(t mkernel.Tile, kc int) float64 {
	_, khat, _ := vec(t, kc, p.Lanes)
	mr := float64(t.MR)
	return p.fmaStream(t, kc) + khat*(mr*p.IPCLoad+p.LLoad)
}

// MainloopComputeRotated returns Eqn 9: rotating register allocation
// hides the A reload stall in every other block.
func (p Params) MainloopComputeRotated(t mkernel.Tile, kc int) float64 {
	_, khat, _ := vec(t, kc, p.Lanes)
	mr := float64(t.MR)
	return p.fmaStream(t, kc) + math.Ceil(khat/2)*(mr*p.IPCLoad+p.LLoad)
}

// MainloopMemory returns T_mainloop for a memory-bound tile: the
// FMA→LOAD→FMA register dependency inserts a bubble each k-step (Eqn 8).
// On machines with more load bandwidth than the paper's didactic
// configuration, Eqn 8 can fall below the FMA-stream time itself, which
// is a hard lower bound; the projection is therefore the maximum of the
// two constraints.
func (p Params) MainloopMemory(t mkernel.Tile, kc int) float64 {
	_, khat, _ := vec(t, kc, p.Lanes)
	mr := float64(t.MR)
	eqn8 := mr*p.IPCLoad*khat*float64(p.Lanes) + p.LLoad*khat*(float64(p.Lanes)+1)
	return math.Max(eqn8, p.MainloopMemoryRotated(t, kc))
}

// MainloopMemoryRotated returns Eqn 10: doubled B buffering removes the
// dependency bubbles, leaving the FMA stream plus the A reload stalls.
func (p Params) MainloopMemoryRotated(t mkernel.Tile, kc int) float64 {
	_, khat, _ := vec(t, kc, p.Lanes)
	mr := float64(t.MR)
	return p.fmaStream(t, kc) + khat*(mr*p.IPCLoad+p.LLoad)
}

// Epilogue returns T_epilogue (Eqn 7): the k_c-remainder FMAs, the FMA
// pipeline drain, and the C stores.
func (p Params) Epilogue(t mkernel.Tile, kc int) float64 {
	nhat, _, rem := vec(t, kc, p.Lanes)
	mr := float64(t.MR)
	return mr*nhat*p.IPCFMA*rem + p.LFMA + mr*nhat*p.IPCStore
}

// Mainloop dispatches on the tile's boundedness and rotation.
func (p Params) Mainloop(t mkernel.Tile, kc int, opt Opt) float64 {
	cb := t.ComputeBound(p.Lanes, p.SigmaAI)
	switch {
	case cb && opt.Rotate:
		return p.MainloopComputeRotated(t, kc)
	case cb:
		return p.MainloopCompute(t, kc)
	case opt.Rotate:
		return p.MainloopMemoryRotated(t, kc)
	default:
		return p.MainloopMemory(t, kc)
	}
}

// TileTime returns the total projected micro-kernel runtime T_r (Eqn 4):
// launch + prologue + main loop + epilogue.
func (p Params) TileTime(t mkernel.Tile, kc int, opt Opt) float64 {
	return p.Launch + p.Prologue(t) + p.Mainloop(t, kc, opt) + p.Epilogue(t, kc)
}

// FuseBoundary returns the cost of a fused epilogue→prologue boundary
// between two consecutive tiles (Eqn 11 generalized to the four modes of
// Fig 4). It replaces cur's epilogue, next's launch and next's prologue.
// For a compute-bound→compute-bound boundary this is exactly Eqn 11: the
// remainder FMAs of cur plus the overlapped C-and-A loads of next. When
// either side is memory-bound there is no FMA surplus to hide behind, so
// the store drain (cur memory-bound) and the B-row loads (next
// memory-bound) surface in the cost.
func (p Params) FuseBoundary(cur mkernel.Tile, curKC int, next mkernel.Tile, nextKC int) float64 {
	nhatC, _, remC := vec(cur, curKC, p.Lanes)
	nhatN := float64(next.NR) / float64(p.Lanes)
	mrC, mrN := float64(cur.MR), float64(next.MR)

	cost := mrC*nhatC*p.IPCFMA*remC + (mrN*nhatN+mrN)*p.IPCLoad + p.LLoad
	if !cur.ComputeBound(p.Lanes, p.SigmaAI) {
		cost += mrC * nhatC * p.IPCStore // stores cannot hide behind FMAs
	}
	if !next.ComputeBound(p.Lanes, p.SigmaAI) {
		cost += nhatN * p.IPCLoad // B prologue loads surface too
	}
	return cost
}

// Terms are the per-shape pieces a run of same-shape tiles is composed
// from. They depend only on the tile, k_c, the chip and Opt, so a
// caller pricing many runs of one shape (the DMT memo table) computes
// them once and composes each run with Sequence.
type Terms struct {
	Tile     float64 // TileTime: one unfused call (Eqn 4)
	head     float64 // Launch + Prologue: the start of a fused run
	interior float64 // Mainloop + FuseBoundary: each fused tile but the last
	main     float64 // Mainloop of the last fused tile
	tail     float64 // Epilogue of the last fused tile
	fuse     bool
}

// Terms returns the sequence pieces of tile t at depth k_c. Tile is
// summed in TileTime's order, so it equals TileTime bit for bit.
func (p Params) Terms(t mkernel.Tile, kc int, opt Opt) Terms {
	s := Terms{
		head: p.Launch + p.Prologue(t),
		main: p.Mainloop(t, kc, opt),
		tail: p.Epilogue(t, kc),
		fuse: opt.Fuse,
	}
	s.Tile = s.head + s.main + s.tail
	if opt.Fuse {
		s.interior = s.main + p.FuseBoundary(t, kc, t, kc)
	}
	return s
}

// Sequence projects the runtime of n consecutive tiles of the shape.
// Without fusion each tile pays the full Eqn 4; with fusion the interior
// boundaries are replaced by FuseBoundary and only the first prologue,
// last epilogue and one launch remain (§III-C2).
func (s Terms) Sequence(n int) float64 {
	if n <= 0 {
		return 0
	}
	if !s.fuse || n == 1 {
		return float64(n) * s.Tile
	}
	return s.head + float64(n-1)*s.interior + s.main + s.tail
}

// SequenceTime projects the runtime of n consecutive same-shape tiles
// (Terms.Sequence).
func (p Params) SequenceTime(t mkernel.Tile, kc, n int, opt Opt) float64 {
	return p.Terms(t, kc, opt).Sequence(n)
}

// TileGrid projects the cost of covering an m×n panel with ⌈m/m_r⌉×
// ⌈n/n_r⌉ tiles of one shape at depth k_c — the T(m, n) inner cost of
// Algorithm 1, with fusion applied along each row band when enabled.
func (p Params) TileGrid(t mkernel.Tile, m, n, kc int, opt Opt) float64 {
	if m <= 0 || n <= 0 {
		return 0
	}
	rows := (m + t.MR - 1) / t.MR
	cols := (n + t.NR - 1) / t.NR
	return float64(rows) * p.SequenceTime(t, kc, cols, opt)
}

// FLOPs returns the floating-point operations of one tile invocation.
func FLOPs(t mkernel.Tile, kc int) float64 { return 2 * float64(t.MR) * float64(t.NR) * float64(kc) }

// Efficiency converts a projected cycle count into fraction-of-peak for
// the chip: useful work over FMA-port capacity.
func Efficiency(c *hw.Chip, flops, cycles float64) float64 {
	if cycles <= 0 {
		return 0
	}
	peakPerCycle := float64(c.FMAPorts) * float64(c.Lanes) * 2
	return flops / (cycles * peakPerCycle)
}
