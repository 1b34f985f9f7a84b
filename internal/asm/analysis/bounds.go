package analysis

import (
	"fmt"

	"autogemm/internal/asm"
)

// The bounds pass interprets the scalar register file symbolically over
// the affine domain  c + Σ kᵢ·symᵢ  with symbols for the three panel
// base pointers and the three leading dimensions (in elements; the
// kernels' LSL-by-2 stride conversion lands in the coefficients). Every
// load/store address must resolve to  base + r·ld + c  with r and c
// inside the panel plus the declared over-read slack. Counted SUBS/B.NE
// loops are handled exactly: the body's per-iteration delta is affine,
// so the final iteration is re-checked at  snapshot + (n−1)·delta. Each
// access's panel, lanes, trip-0 position and per-trip step go into
// Report.Accesses, which compiled execution runs from: this is the only
// symbolic reading of scalar code in the tree.
//
// The pass is deliberately restricted to the branch structure the
// generator emits — backward conditional branches only. Programs with
// forward or unconditional branches skip the pass (Report.BoundsChecked
// stays false) rather than risk unsound conclusions.

// Affine symbols.
const (
	symLda = iota
	symLdb
	symLdc
	symA
	symB
	symC
	nsyms
)

// symval is an affine value: c + Σ k[i]·sym[i]; known=false is ⊤.
type symval struct {
	known bool
	c     int64
	k     [nsyms]int64
}

func symConst(c int64) symval { return symval{known: true, c: c} }

func symOf(s int) symval {
	v := symval{known: true}
	v.k[s] = 1
	return v
}

func (v symval) add(o symval) symval {
	if !v.known || !o.known {
		return symval{}
	}
	r := symval{known: true, c: v.c + o.c}
	for i := range r.k {
		r.k[i] = v.k[i] + o.k[i]
	}
	return r
}

func (v symval) sub(o symval) symval {
	if !v.known || !o.known {
		return symval{}
	}
	r := symval{known: true, c: v.c - o.c}
	for i := range r.k {
		r.k[i] = v.k[i] - o.k[i]
	}
	return r
}

func (v symval) addConst(c int64) symval {
	if !v.known {
		return v
	}
	v.c += c
	return v
}

func (v symval) shl(sh int64) symval {
	if !v.known || sh < 0 || sh > 32 {
		return symval{}
	}
	v.c <<= sh
	for i := range v.k {
		v.k[i] <<= sh
	}
	return v
}

func (v symval) scale(n int64) symval {
	if !v.known {
		return v
	}
	v.c *= n
	for i := range v.k {
		v.k[i] *= n
	}
	return v
}

// isConst reports a pure constant and its value.
func (v symval) isConst() (int64, bool) {
	if !v.known {
		return 0, false
	}
	for _, k := range v.k {
		if k != 0 {
			return 0, false
		}
	}
	return v.c, true
}

// boundsState is the machine state of the symbolic walk.
type boundsState struct {
	x     [asm.NumScalarRegs]symval
	preds [asm.NumPredRegs]int // active lanes; -1 unknown
}

type boundsInterp struct {
	a      *analyzer
	b      *Bounds
	st     boundsState
	snaps  map[int]boundsState // label instruction index -> state
	rewalk bool

	// replay limits checkAccess to alignment and step records while
	// handleLoop replays trip 1 for its register deltas; trip is the loop
	// trip being walked (0 outside loops and on the first walk).
	replay bool
	trip   int64

	// incomplete records that some access was skipped rather than proven
	// (unknown address, absolute address, havoced loop, unknown opcode).
	// It demotes Report.BoundsComplete without producing a finding.
	incomplete bool
}

// checkBounds drives the symbolic walk. Loops must be the counted
// backward-B.NE kind; anything else disables the pass.
func (a *analyzer) checkBounds(loops []loop) {
	p := a.p
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Op == asm.OpB {
			return // unconditional branches: linear walk unsound
		}
		if in.Op == asm.OpBne {
			if t, ok := p.LabelIndex(in.Label); !ok || t > i {
				return // forward conditional branch
			}
		}
	}
	for _, l := range loops {
		if !l.simple {
			return // nested or irregular loop bodies
		}
	}
	bi := &boundsInterp{a: a, b: a.opts.Bounds, snaps: make(map[int]boundsState)}
	for r := range bi.st.x {
		bi.st.x[r] = symval{} // unknown
	}
	bi.st.x[0] = symOf(symA)
	bi.st.x[1] = symOf(symB)
	bi.st.x[2] = symOf(symC)
	bi.st.x[3] = symOf(symLda)
	bi.st.x[4] = symOf(symLdb)
	bi.st.x[5] = symOf(symLdc)
	for i := range bi.st.preds {
		bi.st.preds[i] = -1
	}
	a.report.BoundsChecked = true
	a.report.Accesses = make([]Access, len(p.Instrs))
	for i := range a.report.Accesses {
		a.report.Accesses[i].Bank = BankNone
	}

	li := 0
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Op == asm.OpLabel {
			bi.snaps[i] = bi.st
		}
		if in.Op == asm.OpBne {
			// Every backward B.NE is a loop and findLoops lists them in
			// program order, so the walk meets them in that order.
			bi.handleLoop(&a.report.Loops[li])
			li++
		}
		bi.step(in, i)
	}
	a.report.BoundsComplete = !bi.incomplete
}

// val reads a scalar register's symbolic value.
func (bi *boundsInterp) val(r asm.Reg) symval {
	if r == asm.XZR {
		return symConst(0)
	}
	if !r.IsScalar() {
		return symval{}
	}
	return bi.st.x[r.Index()]
}

func (bi *boundsInterp) set(r asm.Reg, v symval) {
	if r == asm.XZR || !r.IsScalar() {
		return
	}
	bi.st.x[r.Index()] = v
}

// step interprets one instruction, checking memory accesses.
func (bi *boundsInterp) step(in *asm.Instr, idx int) {
	switch in.Op {
	case asm.OpMov:
		bi.set(in.Dst, bi.val(in.Src1))
	case asm.OpMovI:
		bi.set(in.Dst, symConst(in.Imm))
	case asm.OpLsl:
		bi.set(in.Dst, bi.val(in.Src1).shl(in.Imm))
	case asm.OpAdd:
		bi.set(in.Dst, bi.val(in.Src1).add(bi.val(in.Src2)))
	case asm.OpAddI:
		bi.set(in.Dst, bi.val(in.Src1).addConst(in.Imm))
	case asm.OpSubI, asm.OpSubs:
		bi.set(in.Dst, bi.val(in.Src1).addConst(-in.Imm))
	case asm.OpLdrQ:
		bi.checkAccess(idx, bi.val(in.Src1).addConst(in.Imm), bi.b.Lanes, false)
	case asm.OpStrQ:
		bi.checkAccess(idx, bi.val(in.Src1).addConst(in.Imm), bi.b.Lanes, true)
	case asm.OpLdrQPost:
		bi.checkAccess(idx, bi.val(in.Src1), bi.b.Lanes, false)
		bi.set(in.Src1, bi.val(in.Src1).addConst(in.Imm))
	case asm.OpStrQPost:
		bi.checkAccess(idx, bi.val(in.Src1), bi.b.Lanes, true)
		bi.set(in.Src1, bi.val(in.Src1).addConst(in.Imm))
	case asm.OpPTrue:
		if in.Dst.IsPred() {
			bi.st.preds[int(in.Dst)-predID0] = bi.b.Lanes
		}
	case asm.OpWhilelt:
		if in.Dst.IsPred() {
			n := -1
			if lo, ok := bi.val(in.Src1).isConst(); ok {
				if hi, ok2 := bi.val(in.Src2).isConst(); ok2 {
					d := hi - lo
					if d < 0 {
						d = 0
					}
					if d > int64(bi.b.Lanes) {
						d = int64(bi.b.Lanes)
					}
					n = int(d)
				}
			}
			bi.st.preds[int(in.Dst)-predID0] = n
		}
	case asm.OpLd1W, asm.OpSt1W:
		lanes := -1
		if in.Src2.IsPred() {
			lanes = bi.st.preds[int(in.Src2)-predID0]
		}
		if lanes != 0 {
			bi.checkAccess(idx, bi.val(in.Src1).addConst(in.Imm), lanes, in.Op == asm.OpSt1W)
		} else {
			// Provably zero active lanes: nothing to check, but the access
			// stays unclassified, so the program cannot claim completeness.
			bi.incomplete = true
		}
	case asm.OpPrfm, asm.OpNop, asm.OpLabel, asm.OpB, asm.OpBne, asm.OpRet,
		asm.OpFmla, asm.OpVZero:
		// Prefetches are hints with no architectural bound; the rest
		// touch no scalar state or memory.
	default:
		// Unknown opcode writing a scalar register: drop to ⊤.
		bi.incomplete = true
		for _, r := range in.Writes() {
			bi.set(r, symval{})
		}
	}
}

// predID0 is the dataflow id of p0.
const predID0 = asm.NumScalarRegs + asm.NumVectorRegs

// handleLoop is called at a backward B.NE. The body [head+1, latch) has
// already been walked once (iteration 1, accesses checked). Using the
// snapshot at the head label it derives the per-iteration affine delta
// and the exact trip count, re-checks the final iteration, and leaves
// the state at loop exit. It records the trip count in l.Trips.
//
// The count is exact only for the canonical counter: the SUBS nearest
// the latch (which sets the flags B.NE reads) must be
// `subs ctr, ctr, #1`, nothing else in the body may write ctr, and ctr
// must hold a constant n ≥ 1 at the head. The body then runs n times.
// Any other shape — a larger decrement that can step over zero, a
// second write to the counter — is havoced.
func (bi *boundsInterp) handleLoop(l *Loop) {
	if bi.rewalk {
		return
	}
	head, latch := l.Head, l.Latch
	p := bi.a.p
	snap, ok := bi.snaps[head]
	if !ok {
		bi.havocBody(head, latch)
		return
	}
	// The governing counter: nearest SUBS before the latch.
	ctr, at := asm.NoReg, -1
	for j := latch - 1; j > head; j-- {
		if in := &p.Instrs[j]; in.Op == asm.OpSubs {
			if in.Dst == in.Src1 && in.Imm == 1 {
				ctr, at = in.Src1, j
			}
			break
		}
	}
	if ctr == asm.NoReg || !ctr.IsScalar() || ctr == asm.XZR {
		bi.havocBody(head, latch)
		return
	}
	for j := head + 1; j < latch; j++ {
		if j == at {
			continue
		}
		for _, w := range p.Instrs[j].Writes() {
			if w == ctr {
				bi.havocBody(head, latch)
				return
			}
		}
	}
	n, isConst := snap.x[ctr.Index()].isConst()
	if !isConst || n < 1 {
		bi.havocBody(head, latch)
		return
	}
	l.Trips = n
	if n == 1 {
		return // the single iteration was the one already walked
	}
	// Per-iteration delta of every scalar register; unknown propagates.
	s1 := bi.st
	var delta [asm.NumScalarRegs]symval
	for r := range delta {
		delta[r] = s1.x[r].sub(snap.x[r])
	}
	// Replay iteration 1 for its registers and keep only the deltas it
	// repeats. The body is affine, S ↦ M·S + c, so S₂ − S₁ =
	// M·(S₁ − S₀): a delta repeated once is a fixed point of M and
	// repeats on every trip, S_t = S₀ + t·delta. A register the body
	// copies from a moving one (mov x7, x6 beside add x6, x6, #16) moves
	// by a different amount on its second trip and drops to ⊤. The
	// replay checks only alignment and records each access's step: with
	// exact deltas every address is affine in the trip, so the first and
	// last trips bound the rest, and the first two fix its residue mod 4
	// and its step for all of them.
	bi.rewalk, bi.replay, bi.trip = true, true, 1
	bi.walkBody(head, latch)
	bi.replay = false
	for r := range delta {
		if bi.st.x[r].sub(s1.x[r]) != delta[r] {
			delta[r] = symval{}
		}
	}
	// Predicates must be loop-invariant for the exact treatment.
	for i := range s1.preds {
		if s1.preds[i] != snap.preds[i] {
			bi.st.preds[i] = -1
		} else {
			bi.st.preds[i] = snap.preds[i]
		}
	}
	// Jump to the start of the final iteration and re-walk it with
	// access checks; the walk itself then produces the exit state.
	for r := range bi.st.x {
		bi.st.x[r] = snap.x[r].add(delta[r].scale(n - 1))
	}
	bi.trip = n - 1
	start := bi.st.preds
	bi.walkBody(head, latch)
	bi.rewalk, bi.trip = false, 0
	// The last trip was walked from the predicates trip 0 left. They are
	// its real entry state only if the last trip leaves them too: a
	// WHILELT count is monotone in the trip, so equal counts on the first
	// and last trips fix every trip's.
	if bi.st.preds != start {
		bi.incomplete = true
	}
}

// walkBody interprets the loop body [head+1, latch) once from the
// current state, checking its accesses.
func (bi *boundsInterp) walkBody(head, latch int) {
	p := bi.a.p
	for j := head + 1; j < latch; j++ {
		bi.step(&p.Instrs[j], j)
	}
}

// havocBody forgets everything the loop body writes — the conservative
// fallback when the trip count cannot be proven. Iterations beyond the
// first were never walked, so their accesses are unverified: the program
// loses completeness even if no finding is ever produced.
func (bi *boundsInterp) havocBody(head, latch int) {
	bi.incomplete = true
	p := bi.a.p
	for j := head + 1; j < latch; j++ {
		in := &p.Instrs[j]
		for _, r := range in.Writes() {
			bi.set(r, symval{})
			if in.Dst.IsPred() {
				bi.st.preds[int(in.Dst)-predID0] = -1
			}
		}
	}
}

// checkAccess verifies one memory access of lanes floats (-1: a full
// vector whose active lanes are unproven) at the symbolic address and
// records its position in Report.Accesses.
func (bi *boundsInterp) checkAccess(idx int, addr symval, lanes int, isStore bool) {
	// The panel bases are 4·element offsets and a complete access's
	// stride coefficients are multiples of 4 (checked below), so the
	// address is 4-byte aligned exactly when its constant is.
	if !addr.known || addr.c%4 != 0 {
		bi.incomplete = true
	}
	if !addr.known {
		return
	}
	b := bi.b
	nbase, base := 0, -1
	for s := symA; s <= symC; s++ {
		if addr.k[s] != 0 {
			nbase++
			base = s
		}
	}
	if nbase == 0 {
		bi.incomplete = true
		return // absolute address: outside the panel model
	}
	badAddr := func(detail string) {
		bi.incomplete = true
		if !bi.replay {
			bi.a.addFinding(Finding{Kind: KindBadAddress, Index: idx, Reg: asm.NoReg, Detail: detail})
		}
	}
	if nbase > 1 || addr.k[base] != 1 {
		badAddr("address is not base + r·ld + c over a single panel")
		return
	}
	// Byte-stride coefficients must be whole multiples of 4 (the LSL-2
	// element-to-byte conversion) on the matching stride only.
	ld := base - symA + symLda
	for s := symLda; s <= symLdc; s++ {
		if (s != ld && addr.k[s] != 0) || addr.k[ld]%4 != 0 {
			badAddr(fmt.Sprintf("%c address mixes foreign strides", 'A'+base-symA))
			return
		}
	}
	bank, row := int8(base-symA), addr.k[ld]/4
	bi.record(idx, bank, row, addr.c, lanes)
	if bi.replay {
		return // trip 1 lies between the checked first and last trips
	}
	bad := func(detail string) {
		bi.incomplete = true
		bi.a.addFinding(Finding{Kind: KindOverRead, Index: idx, Reg: asm.NoReg, Detail: detail})
	}
	if lanes < 0 {
		lanes = b.Lanes
	}
	size := int64(lanes) * 4
	vb := int64(b.Lanes) * 4
	switch bank {
	case BankA:
		if isStore {
			bad("store into the A panel")
			return
		}
		if row < 0 || row >= int64(b.MR) {
			bad(fmt.Sprintf("A row %d outside 0..%d", row, b.MR-1))
			return
		}
		limit := int64(b.KC)*4 + int64(b.AOverVectors)*vb
		if addr.c < 0 || addr.c+size > limit {
			bad(fmt.Sprintf("A row offset [%d,%d) exceeds row length %d + slack %d",
				addr.c, addr.c+size, b.KC*4, int64(b.AOverVectors)*vb))
		}
	case BankB:
		if isStore {
			bad("store into the B panel")
			return
		}
		if row < 0 || row >= int64(b.KC+b.BOverRows) {
			bad(fmt.Sprintf("B row %d outside 0..%d (+%d over-read rows)", row, b.KC-1, b.BOverRows))
			return
		}
		if addr.c < 0 || addr.c+size > int64(b.NR)*4 {
			bad(fmt.Sprintf("B column offset [%d,%d) exceeds panel width %d", addr.c, addr.c+size, b.NR*4))
		}
	case BankC:
		if row < 0 || row >= int64(b.MR) {
			bad(fmt.Sprintf("C row %d outside 0..%d", row, b.MR-1))
			return
		}
		if addr.c < 0 || addr.c+size > int64(b.NR)*4 {
			bad(fmt.Sprintf("C offset [%d,%d) exceeds row width %d — C has no over-read slack",
				addr.c, addr.c+size, b.NR*4))
		}
	}
}

// record enters an access's position in Report.Accesses: on trip 0 its
// position, on trip 1 its step, and on every trip a check that the
// access is the one trip 0 and the step predict — the same panel, the
// same active lanes, at Row + t·DRow and Col + t·DCol. An access that
// fails the check, or whose position overflows the int32 fields, leaves
// the report incomplete.
func (bi *boundsInterp) record(idx int, bank int8, row, col int64, lanes int) {
	ac := &bi.a.report.Accesses[idx]
	switch {
	case bi.trip == 0:
		*ac = Access{Bank: bank, Lanes: int16(lanes), Row: int32(row), Col: int32(col)}
	case bi.replay:
		ac.DRow, ac.DCol = int32(row-int64(ac.Row)), int32(col-int64(ac.Col))
	}
	t := bi.trip
	if ac.Bank != bank || int(ac.Lanes) != lanes ||
		int64(ac.Row)+t*int64(ac.DRow) != row || int64(ac.Col)+t*int64(ac.DCol) != col {
		bi.incomplete = true
	}
}
