package analysis

import (
	"fmt"

	"autogemm/internal/asm"
)

// isVecLoad reports an instruction that fully overwrites a vector
// register from memory.
func isVecLoad(op asm.Op) bool {
	switch op {
	case asm.OpLdrQ, asm.OpLdrQPost, asm.OpLd1W:
		return true
	}
	return false
}

// checkPipeline verifies the steady-state software pipeline inside each
// counted loop body. The generator's k-steps are recovered from the
// FMLA Lane operands: all FMLAs of one unrolled k-step share a lane
// index, and the lane changes exactly at step boundaries. Two contracts
// are enforced:
//
//  1. a load issued during step s must not feed an FMLA later in the
//     same step — its consumers belong to step s+1 (or s+2 under B
//     double buffering), otherwise the load latency lands directly on
//     the FMA stream (the Fig 3-b bubble the rotation exists to kill);
//  2. when the generator claims rotation (Options.Rotation), the
//     claimed alternation is verified: with BDouble the B working sets
//     of adjacent k-steps are disjoint, and with ARows > 0 the A
//     working sets of the two halves of the unrolled body differ in
//     exactly ARows registers per side.
func (a *analyzer) checkPipeline(loops []loop) {
	for _, l := range loops {
		if !l.simple {
			continue
		}
		a.checkLoopSteps(l)
	}
}

// stepFMLA describes the FMLAs and loads of a loop body grouped into
// unrolled k-steps.
type stepInfo struct {
	aRegs regset // FMLA Src2 (by-element) registers of the step
	bRegs regset // FMLA Src1 (full-vector) registers of the step
}

func (a *analyzer) checkLoopSteps(l loop) {
	p := a.p
	// Pass 1: same-step load-to-FMLA feeds, walking the body in order.
	step := 0
	lastLane := -1
	var loadStep [universe]int  // register -> 1 + the step of its latest load
	var loadIndex [universe]int // register -> instr index of that load
	var steps []stepInfo
	ensure := func(s int) {
		for len(steps) <= s {
			steps = append(steps, stepInfo{})
		}
	}
	for i := l.head + 1; i < l.latch; i++ {
		in := &p.Instrs[i]
		switch {
		case in.Op == asm.OpFmla:
			if lastLane >= 0 && int(in.Lane) != lastLane {
				step++
			}
			lastLane = int(in.Lane)
			ensure(step)
			steps[step].bRegs.add(regID(in.Src1))
			steps[step].aRegs.add(regID(in.Src2))
			for _, src := range [2]asm.Reg{in.Src1, in.Src2} {
				if int(src) < universe && loadStep[src] == step+1 {
					a.addFinding(Finding{Kind: KindPipeline, Index: i, Reg: src,
						Detail: fmt.Sprintf("FMLA consumes the load at instr %d within the same unrolled k-step — no latency slack", loadIndex[src])})
				}
			}
		case isVecLoad(in.Op) && int(in.Dst) < universe:
			loadStep[in.Dst] = step + 1
			loadIndex[in.Dst] = i
		}
	}
	nsteps := len(steps)
	if nsteps == 0 || a.opts.Rotation == nil {
		return
	}
	hint := a.opts.Rotation

	// Pass 2a: B-side double buffering — adjacent k-steps must read
	// disjoint B register sets.
	if hint.BDouble && nsteps >= 2 {
		var even, odd regset
		for s := range steps {
			if s%2 == 0 {
				even = even.union(steps[s].bRegs)
			} else {
				odd = odd.union(steps[s].bRegs)
			}
		}
		if ov := even.inter(odd); !ov.empty() {
			a.addFinding(Finding{Kind: KindRotation, Index: l.head, Reg: regsOf(ov)[0],
				Detail: "B double buffering claimed but adjacent k-steps share B registers"})
		}
	}

	// Pass 2b: A-side rotation — the body holds two unrolled blocks
	// whose A register sets differ in exactly ARows registers each way.
	if hint.ARows > 0 && nsteps%2 == 0 {
		half := nsteps / 2
		var first, second regset
		for s := 0; s < half; s++ {
			first = first.union(steps[s].aRegs)
		}
		for s := half; s < nsteps; s++ {
			second = second.union(steps[s].aRegs)
		}
		onlyFirst := first.minus(second)
		onlySecond := second.minus(first)
		nf, ns := len(regsOf(onlyFirst)), len(regsOf(onlySecond))
		if nf != hint.ARows || ns != hint.ARows {
			a.addFinding(Finding{Kind: KindRotation, Index: l.head, Reg: asm.NoReg,
				Detail: fmt.Sprintf("A rotation of %d rows claimed but block A-sets differ by %d/%d registers", hint.ARows, nf, ns)})
		}
	}
}
