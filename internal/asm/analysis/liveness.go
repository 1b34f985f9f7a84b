package analysis

import (
	"fmt"

	"autogemm/internal/asm"
)

// defaultArgs is the AAPCS64 argument convention of the generated
// kernels: x0..x5 are defined at entry.
func (a *analyzer) entryDefined() regset {
	var s regset
	if len(a.opts.ArgRegs) == 0 {
		for i := 0; i <= 5; i++ {
			s.add(i)
		}
		return s
	}
	for _, r := range a.opts.ArgRegs {
		s.add(regID(r))
	}
	return s
}

// checkUseBeforeDef runs a forward "definitely assigned" analysis: a
// register read on some path before any write is a contract violation
// (the kernel would consume garbage).
func (a *analyzer) checkUseBeforeDef() {
	nb := len(a.g.blocks)
	in := make([]regset, nb)
	out := make([]regset, nb)
	full := fullSet()
	for bi := range a.g.blocks {
		in[bi] = full // ⊤ for the must-intersection
		out[bi] = full
	}

	changed := true
	for changed {
		changed = false
		for bi := range a.g.blocks {
			b := &a.g.blocks[bi]
			// The meet is over every incoming edge; block 0 additionally
			// has the virtual entry edge carrying the argument registers.
			s := full
			if bi == 0 {
				s = a.entryDefined()
			}
			for _, p := range b.preds {
				s = s.inter(out[p])
			}
			in[bi] = s
			for i := b.start; i < b.end; i++ {
				s = s.union(a.defs[i])
			}
			if s != out[bi] {
				out[bi] = s
				changed = true
			}
		}
	}
	// Report pass.
	for bi := range a.g.blocks {
		b := &a.g.blocks[bi]
		s := in[bi]
		for i := b.start; i < b.end; i++ {
			missing := a.uses[i].minus(s)
			if !missing.empty() {
				for id := 0; id < universe; id++ {
					if !missing.has(id) {
						continue
					}
					f := Finding{Kind: KindUseBeforeDef, Index: i, Reg: asm.NoReg,
						Detail: "read before any definition reaches it"}
					if id == flagsID {
						f.Detail = "conditional branch reads flags never set by subs"
					} else {
						f.Reg = asm.Reg(id)
					}
					a.addFinding(f)
				}
			}
			s = s.union(a.defs[i])
		}
	}
}

// checkLiveness runs backward liveness to measure peak vector register
// pressure and to flag dead value definitions. Dead *loads* are exempt:
// the generator's trailing over-read loads double as pointer advances
// and prefetch and are part of the documented contract; a dead FMLA or
// VZERO, by contrast, is always a generator bug.
func (a *analyzer) checkLiveness() {
	nb := len(a.g.blocks)
	liveIn := make([]regset, nb)
	liveOut := make([]regset, nb)
	changed := true
	for changed {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			b := &a.g.blocks[bi]
			var out regset
			for _, s := range b.succs {
				out = out.union(liveIn[s])
			}
			liveOut[bi] = out
			s := out
			for i := b.end - 1; i >= b.start; i-- {
				s = s.minus(a.defs[i]).union(a.uses[i])
			}
			if s != liveIn[bi] {
				liveIn[bi] = s
				changed = true
			}
		}
	}
	budget := a.opts.VectorBudget
	if budget <= 0 {
		budget = asm.NumVectorRegs
	}
	maxLive, maxAt := 0, -1
	for bi := range a.g.blocks {
		b := &a.g.blocks[bi]
		s := liveOut[bi]
		for i := b.end - 1; i >= b.start; i-- {
			in := &a.p.Instrs[i]
			if in.Op == asm.OpFmla || in.Op == asm.OpVZero {
				dst := regID(in.Dst)
				if !s.has(dst) {
					a.addFinding(Finding{Kind: KindDeadDef, Index: i, Reg: in.Dst,
						Detail: fmt.Sprintf("%s result is never read", in.Op)})
				}
			}
			s = s.minus(a.defs[i]).union(a.uses[i])
			if n := s.countVectors(); n > maxLive {
				maxLive, maxAt = n, i
			}
		}
	}
	a.report.MaxLiveVectors = maxLive
	if maxLive > budget {
		a.addFinding(Finding{Kind: KindPressure, Index: maxAt, Reg: asm.NoReg,
			Detail: fmt.Sprintf("%d vector registers live, budget %d", maxLive, budget)})
	}
}

// checkClobbers verifies the accumulator protocol with a forward
// dataflow over per-register states: an accumulator is "dirty" from the
// first FMLA that folds into it until a store writes it back to C. A
// full overwrite (vector load or zeroing) of a dirty accumulator throws
// away a partial sum — the exact bug class epilogue–prologue fusion can
// introduce at band boundaries. An accumulator still dirty when a path
// reaches RET is a partial sum never written back at all.
func (a *analyzer) checkClobbers() {
	if a.acc.empty() {
		return
	}
	// An accumulator whose unstored value is never read was already
	// reported as a dead definition (checkLiveness runs first); one
	// defect, one finding.
	var deadAcc regset
	for _, f := range a.report.Findings {
		if f.Kind == KindDeadDef {
			deadAcc.add(regID(f.Reg))
		}
	}
	nb := len(a.g.blocks)
	dirtyIn := make([]regset, nb)
	dirtyOut := make([]regset, nb)
	transfer := func(dirty regset, i int, report bool) regset {
		in := &a.p.Instrs[i]
		switch in.Op {
		case asm.OpFmla:
			for _, src := range []asm.Reg{in.Src1, in.Src2} {
				if report && dirty.has(regID(src)) {
					a.addFinding(Finding{Kind: KindRoleOverlap, Index: i, Reg: src,
						Detail: "FMLA multiplicand holds an unstored accumulator"})
				}
			}
			dirty.add(regID(in.Dst))
		case asm.OpStrQ, asm.OpStrQPost, asm.OpSt1W:
			dirty.del(regID(in.Dst)) // data register written back
		case asm.OpLdrQ, asm.OpLdrQPost, asm.OpLd1W, asm.OpVZero:
			id := regID(in.Dst)
			if a.acc.has(id) {
				if report && dirty.has(id) {
					a.addFinding(Finding{Kind: KindAccClobber, Index: i, Reg: in.Dst,
						Detail: "overwrites an accumulator before its partial sum is stored"})
				}
				dirty.del(id) // fresh initialization either way
			}
		case asm.OpRet:
			if report {
				for _, r := range regsOf(dirty) {
					if !deadAcc.has(regID(r)) {
						a.addFinding(Finding{Kind: KindAccUnstored, Index: i, Reg: r,
							Detail: "accumulator reaches RET without being stored"})
					}
				}
			}
		}
		return dirty
	}
	changed := true
	for changed {
		changed = false
		for bi := range a.g.blocks {
			b := &a.g.blocks[bi]
			var s regset
			for _, p := range b.preds {
				s = s.union(dirtyOut[p])
			}
			dirtyIn[bi] = s
			for i := b.start; i < b.end; i++ {
				s = transfer(s, i, false)
			}
			if s != dirtyOut[bi] {
				dirtyOut[bi] = s
				changed = true
			}
		}
	}
	for bi := range a.g.blocks {
		s := dirtyIn[bi]
		b := &a.g.blocks[bi]
		for i := b.start; i < b.end; i++ {
			s = transfer(s, i, true)
		}
	}
}
