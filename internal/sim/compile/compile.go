package compile

import (
	"fmt"

	"autogemm/internal/asm"
	"autogemm/internal/asm/analysis"
)

// Options configures Compile. Bounds is mandatory — without a panel
// description there is no elision proof and therefore nothing to compile.
type Options struct {
	// Lanes is σ_lane; must match Bounds.Lanes.
	Lanes int
	// Bounds describes the operand panels under the standard argument
	// convention, exactly as passed to the analyzer.
	Bounds analysis.Bounds
	// Rotation and VectorBudget are forwarded to the analyzer unchanged.
	Rotation     *analysis.RotationHint
	VectorBudget int
}

// Compile lowers a program to closure-threaded form: one closure per
// fused basic block, each executing a pre-decoded micro-op array with
// flat register-file indices and no per-access bounds checks. Fusing at
// block granularity rather than per instruction matters: a per-instr
// closure pays a mispredicted indirect call per instruction, which eats
// most of the win over the interpreter's switch.
//
// Compile runs the full analyzer and lowers from its report (Lower).
func Compile(p *asm.Program, opts Options) (*Program, error) {
	if opts.Bounds.Lanes != opts.Lanes {
		return nil, fmt.Errorf("compile: %s: Options.Lanes %d != Bounds.Lanes %d", p.Name, opts.Lanes, opts.Bounds.Lanes)
	}
	bounds := opts.Bounds
	rep, err := analysis.Analyze(p, analysis.Options{
		Bounds:       &bounds,
		Rotation:     opts.Rotation,
		VectorBudget: opts.VectorBudget,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrUnproven, p.Name, err)
	}
	return Lower(p, bounds, rep)
}

// Lower compiles a program from an analyzer report the caller already
// holds — the kernel cache keeps its generation gate's report, so a
// cached kernel is never analyzed twice. rep must come from analyzing p
// under bounds. Lower refuses (ErrUnproven) unless the report is clean
// AND the bounds pass was complete: every executable access
// affine-resolved, panel-classified, in-bounds and 4-byte aligned for
// every iteration, every loop's trip count exact. Anything short of the
// full proof is not an error to paper over — the caller keeps using the
// interpreter.
func Lower(p *asm.Program, bounds analysis.Bounds, rep *analysis.Report) (*Program, error) {
	if bounds.Lanes < 1 || bounds.Lanes > MaxLanes {
		return nil, fmt.Errorf("compile: %s: lanes %d out of range 1..%d", p.Name, bounds.Lanes, MaxLanes)
	}
	if rep.Program != p {
		return nil, fmt.Errorf("compile: %s: report is for another program", p.Name)
	}
	if err := rep.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnproven, err)
	}
	if !rep.BoundsComplete {
		return nil, fmt.Errorf("%w: %s: bounds pass incomplete (some access not affine-resolved or aligned)", ErrUnproven, p.Name)
	}
	return translate(p, bounds.Lanes, bounds, rep.AccessBanks, rep.Loops)
}

// translate decodes the program into micro-ops, collapses every proven
// affine region of a 4-lane program into one micro-op (affine.go),
// partitions the rest at branch boundaries into basic blocks, fuses each
// block's FMLA runs, and emits one closure per block with pre-resolved
// successor indices.
func translate(p *asm.Program, lanes int, bounds analysis.Bounds, banks []int8, loops []analysis.Loop) (*Program, error) {
	n := len(p.Instrs)

	// Kept instructions: everything that executes. Labels, nops and
	// prefetch hints are compacted away.
	kept := make([]decoded, 0, n)
	keptAt := make([]int, n+1) // orig index -> kept index of first kept instr at orig ≥ i
	for i := range p.Instrs {
		switch p.Instrs[i].Op {
		case asm.OpLabel, asm.OpNop, asm.OpPrfm:
		default:
			kept = append(kept, decoded{orig: i, in: &p.Instrs[i]})
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("compile: %s: empty program", p.Name)
	}
	keptAt[n] = len(kept)
	k := len(kept) - 1
	for i := n - 1; i >= 0; i-- {
		keptAt[i] = keptAt[i+1]
		if k >= 0 && kept[k].orig == i {
			keptAt[i] = k
			k--
		}
	}

	// decode builds a non-terminator's micro-op; emitted is false for
	// writes to XZR.
	decode := func(ki int) (uop, bool, error) {
		d := kept[ki]
		return buildUop(p, d.in, lanes, banks[d.orig], d.orig)
	}

	var regions []keptRegion
	if lanes == 4 {
		regions = affineRegions(kept, keptAt, loops, decode)
	}
	inRegion := make([]bool, len(kept))
	for _, r := range regions {
		for ki := r.start; ki < r.end; ki++ {
			inRegion[ki] = true
		}
	}

	// Block leaders: entry, branch targets, and branch successors, for
	// the branches a region did not collapse.
	leader := make([]bool, len(kept))
	leader[0] = true
	for ki, d := range kept {
		if inRegion[ki] {
			continue
		}
		switch d.in.Op {
		case asm.OpB, asm.OpBne:
			t, ok := p.LabelIndex(d.in.Label)
			if !ok {
				return nil, fmt.Errorf("compile: %s: undefined label %q", p.Name, d.in.Label)
			}
			if keptAt[t] >= len(kept) {
				return nil, fmt.Errorf("compile: %s: label %q has no executable successor", p.Name, d.in.Label)
			}
			leader[keptAt[t]] = true
			if ki+1 < len(kept) {
				leader[ki+1] = true
			}
		case asm.OpRet:
			if ki+1 < len(kept) {
				leader[ki+1] = true
			}
		}
	}
	blockOf := make([]int, len(kept))
	nblocks := 0
	for ki := range kept {
		if leader[ki] {
			nblocks++
		}
		blockOf[ki] = nblocks - 1
	}

	cp := &Program{Name: p.Name, Lanes: lanes, Bounds: bounds, ops: make([]op, 0, nblocks)}
	var body []uop
	var aff []*region
	flush := func(term *decoded, fallBlock int) error {
		c := lowerBlock(body, aff)
		cp.fmlas += countFmla(body)
		for _, r := range aff {
			cp.fmlas += r.fmlas
			cp.affineFmlas += r.fmlas
		}
		body, aff = body[:0], nil
		if term == nil { // fallthrough into the next block
			return appendBlock(cp, c, termFall, fallBlock, 0)
		}
		switch term.in.Op {
		case asm.OpRet:
			return appendBlock(cp, c, termRet, 0, 0)
		case asm.OpB, asm.OpBne:
			t, _ := p.LabelIndex(term.in.Label)
			taken := blockOf[keptAt[t]]
			kind := uint8(termB)
			if term.in.Op == asm.OpBne {
				kind = termBne
			}
			return appendBlock(cp, c, kind, fallBlock, taken)
		}
		return fmt.Errorf("compile: %s: bad terminator %s", p.Name, term.in.Op)
	}

	for ki := 0; ki < len(kept); ki++ {
		d := kept[ki]
		if len(regions) > 0 && regions[0].start == ki {
			body = append(body, uop{kind: uAffine4, a: int32(len(aff))})
			aff = append(aff, regions[0].r)
			ki = regions[0].end - 1
			regions = regions[1:]
		} else {
			switch d.in.Op {
			case asm.OpB, asm.OpBne, asm.OpRet:
				if err := flush(&d, blockOf[ki]+1); err != nil {
					return nil, err
				}
				continue
			}
			u, emitted, err := decode(ki)
			if err != nil {
				return nil, err
			}
			if emitted {
				body = append(body, u)
			}
		}
		if ki+1 < len(kept) && leader[ki+1] {
			if err := flush(nil, blockOf[ki+1]); err != nil {
				return nil, err
			}
		}
	}
	if len(body) > 0 {
		return nil, fmt.Errorf("compile: %s: fell off the end without ret", p.Name)
	}
	return cp, nil
}

// decoded is one kept instruction and its index in the program.
type decoded struct {
	orig int
	in   *asm.Instr
}

// keptRegion is a proven affine region over kept instructions
// [start, end).
type keptRegion struct {
	start, end int
	r          *region
}

// affineRegions cuts a 4-lane program into store-free regions and
// returns those buildRegion proves, in program order. A region never
// holds a store, a return or an unconditional branch. It holds a
// counted loop only whole: a loop whose body holds a store, or whose
// trip count the analyzer did not prove, cuts at its latch and starts a
// new region at its head.
func affineRegions(kept []decoded, keptAt []int, loops []analysis.Loop, decode func(int) (uop, bool, error)) []keptRegion {
	cut := make([]bool, len(kept))
	brk := make([]bool, len(kept))
	trips := make([]int64, len(kept)) // first body instr of a collapsible loop -> trips
	for ki, d := range kept {
		switch d.in.Op {
		case asm.OpStrQ, asm.OpStrQPost, asm.OpSt1W, asm.OpRet, asm.OpB, asm.OpBne:
			cut[ki] = true
		}
	}
	for _, l := range loops {
		lo, latch := keptAt[l.Head], keptAt[l.Latch]
		ok := l.Trips > 0 && lo < latch && kept[latch].in.Op == asm.OpBne
		for ki := lo; ok && ki < latch; ki++ {
			ok = !cut[ki]
		}
		if ok {
			cut[latch] = false
			trips[lo] = l.Trips
		} else if lo < len(kept) {
			brk[lo] = true
		}
	}

	var out []keptRegion
	body := make([]uop, 0, 256)
	var spans []span
	sc := new(buffers)
	for s := 0; s < len(kept); {
		if cut[s] {
			s++
			continue
		}
		e := s + 1
		for e < len(kept) && !cut[e] && !brk[e] {
			e++
		}
		body, spans = body[:0], spans[:0]
		ok := true
		for ki := s; ok && ki < e; ki++ {
			if trips[ki] > 0 {
				spans = append(spans, span{lo: len(body), trips: trips[ki]})
			}
			if kept[ki].in.Op == asm.OpBne {
				spans[len(spans)-1].hi = len(body)
				continue
			}
			u, emitted, err := decode(ki)
			ok = err == nil
			if emitted {
				body = append(body, u)
			}
		}
		if ok && countFmla(body) > 0 {
			if r := buildRegion(sc, body, spans); r != nil {
				out = append(out, keptRegion{start: s, end: e, r: r})
			}
		}
		s = e
	}
	return out
}

// lowerBlock builds one basic block's executable form from its
// micro-ops and the affine regions its uAffine4 micro-ops name.
func lowerBlock(body []uop, aff []*region) *code {
	c := &code{aff: append([]*region(nil), aff...)}
	c.body, c.fm = fuseFmla(body)
	for _, r := range aff {
		c.fuel += r.fuel
	}
	return c
}

func countFmla(uops []uop) int {
	n := 0
	for _, u := range uops {
		if u.kind == uFmla4 || u.kind == uFmlaN {
			n++
		}
	}
	return n
}

// Block terminator kinds.
const (
	termFall = uint8(iota)
	termB
	termBne
	termRet
)

// appendBlock emits the closure for one basic block. The closure runs
// the block's micro-ops through the shared executor, then resolves the
// successor; loop fuel is charged on taken branches only, those of the
// block's collapsed loops included.
func appendBlock(cp *Program, c *code, term uint8, next, taken int) error {
	switch term {
	case termFall:
		nx := next
		cp.ops = append(cp.ops, func(e *Env) int {
			execUops(e, c)
			return nx
		})
	case termRet:
		cp.ops = append(cp.ops, func(e *Env) int {
			execUops(e, c)
			return haltRet
		})
	case termB:
		tgt := taken
		cp.ops = append(cp.ops, func(e *Env) int {
			execUops(e, c)
			e.fuel--
			if e.fuel < 0 {
				return haltFuel
			}
			return tgt
		})
	case termBne:
		nx, tgt := next, taken
		cp.ops = append(cp.ops, func(e *Env) int {
			execUops(e, c)
			if e.z {
				return nx
			}
			e.fuel--
			if e.fuel < 0 {
				return haltFuel
			}
			return tgt
		})
	default:
		return fmt.Errorf("compile: %s: unknown terminator %d", cp.Name, term)
	}
	// A block holding collapsed loops charges their taken branches up
	// front, so a run out of fuel stops before the block does any work.
	if cost := c.fuel; cost > 0 {
		run := cp.ops[len(cp.ops)-1]
		cp.ops[len(cp.ops)-1] = func(e *Env) int {
			e.fuel -= cost
			if e.fuel < 0 {
				return haltFuel
			}
			return run(e)
		}
	}
	return nil
}

// predIdx returns the predicate register number of r.
func predIdx(r asm.Reg) int { return int(r) - asm.NumScalarRegs - asm.NumVectorRegs }

// validOperands rejects operand classes the decoder cannot represent.
// The executor addresses the register files through raw pointers, so
// every register number must be proven in range here, at translate time
// — a NoReg or misclassified operand must never reach a flat offset.
func validOperands(p *asm.Program, in *asm.Instr, lanes, idx int) error {
	bad := func(what string, r asm.Reg) error {
		return fmt.Errorf("compile: %s: instr %d (%s): %s operand %s", p.Name, idx, in.Op, what, r)
	}
	scalar := func(r asm.Reg) error {
		if !r.IsScalar() {
			return bad("non-scalar", r)
		}
		return nil
	}
	vector := func(r asm.Reg) error {
		if !r.IsVector() {
			return bad("non-vector", r)
		}
		return nil
	}
	pred := func(r asm.Reg) error {
		if !r.IsPred() {
			return bad("non-predicate", r)
		}
		return nil
	}
	base := func(r asm.Reg) error {
		if !r.IsScalar() || r == asm.XZR {
			return bad("unaddressable base", r)
		}
		return nil
	}
	switch in.Op {
	case asm.OpMovI:
		return scalar(in.Dst)
	case asm.OpMov, asm.OpLsl, asm.OpAddI, asm.OpSubI, asm.OpSubs:
		if err := scalar(in.Dst); err != nil {
			return err
		}
		return scalar(in.Src1)
	case asm.OpAdd:
		if err := scalar(in.Dst); err != nil {
			return err
		}
		if err := scalar(in.Src1); err != nil {
			return err
		}
		return scalar(in.Src2)
	case asm.OpLdrQ, asm.OpLdrQPost, asm.OpStrQ, asm.OpStrQPost:
		if err := vector(in.Dst); err != nil {
			return err
		}
		return base(in.Src1)
	case asm.OpFmla:
		if err := vector(in.Dst); err != nil {
			return err
		}
		if err := vector(in.Src1); err != nil {
			return err
		}
		if err := vector(in.Src2); err != nil {
			return err
		}
		if int(in.Lane) >= lanes {
			return fmt.Errorf("compile: %s: instr %d: FMLA lane %d ≥ σ_lane %d", p.Name, idx, in.Lane, lanes)
		}
		return nil
	case asm.OpVZero:
		return vector(in.Dst)
	case asm.OpWhilelt:
		if err := pred(in.Dst); err != nil {
			return err
		}
		if err := scalar(in.Src1); err != nil {
			return err
		}
		return scalar(in.Src2)
	case asm.OpPTrue:
		return pred(in.Dst)
	case asm.OpLd1W, asm.OpSt1W:
		if err := vector(in.Dst); err != nil {
			return err
		}
		if err := base(in.Src1); err != nil {
			return err
		}
		return pred(in.Src2)
	}
	return nil
}

// buildUop decodes one non-terminator instruction. emitted is false for
// instructions with no architectural effect (writes to XZR).
func buildUop(p *asm.Program, in *asm.Instr, lanes int, bank int8, idx int) (uop, bool, error) {
	u := uop{imm: in.Imm, lanes: int32(lanes)}
	if err := validOperands(p, in, lanes, idx); err != nil {
		return u, false, err
	}
	discard := in.Dst == asm.XZR
	switch in.Op {
	case asm.OpMov:
		if discard {
			return u, false, nil
		}
		u.kind, u.d, u.a = uMov, int32(in.Dst.Index()), int32(in.Src1.Index())
	case asm.OpMovI:
		if discard {
			return u, false, nil
		}
		u.kind, u.d = uMovI, int32(in.Dst.Index())
	case asm.OpLsl:
		if discard {
			return u, false, nil
		}
		u.kind, u.d, u.a = uLsl, int32(in.Dst.Index()), int32(in.Src1.Index())
	case asm.OpAdd:
		if discard {
			return u, false, nil
		}
		u.kind, u.d, u.a, u.b = uAdd, int32(in.Dst.Index()), int32(in.Src1.Index()), int32(in.Src2.Index())
	case asm.OpAddI:
		if discard {
			return u, false, nil
		}
		u.kind, u.d, u.a = uAddI, int32(in.Dst.Index()), int32(in.Src1.Index())
	case asm.OpSubI:
		if discard {
			return u, false, nil
		}
		u.kind, u.d, u.a = uSubI, int32(in.Dst.Index()), int32(in.Src1.Index())
	case asm.OpSubs:
		if discard { // CMP form: flags only
			u.kind, u.a = uCmpI, int32(in.Src1.Index())
		} else {
			u.kind, u.d, u.a = uSubs, int32(in.Dst.Index()), int32(in.Src1.Index())
		}
	case asm.OpLdrQ, asm.OpLdrQPost:
		bk, err := bankOf(p, in, bank, idx)
		if err != nil {
			return u, false, err
		}
		u.bank = uint8(bk)
		u.d = int32(in.Dst.Index() * lanes)
		u.a = int32(in.Src1.Index())
		if in.Src1 == asm.XZR {
			return u, false, fmt.Errorf("compile: %s: instr %d: XZR base", p.Name, idx)
		}
		post := in.Op == asm.OpLdrQPost
		switch {
		case lanes == 4 && post:
			u.kind = uLdrQPost4
		case lanes == 4:
			u.kind = uLdrQ4
		case post:
			u.kind = uLdrQPostN
		default:
			u.kind = uLdrQN
		}
	case asm.OpStrQ, asm.OpStrQPost:
		bk, err := bankOf(p, in, bank, idx)
		if err != nil {
			return u, false, err
		}
		u.bank = uint8(bk)
		u.d = int32(in.Dst.Index() * lanes)
		u.a = int32(in.Src1.Index())
		if in.Src1 == asm.XZR {
			return u, false, fmt.Errorf("compile: %s: instr %d: XZR base", p.Name, idx)
		}
		post := in.Op == asm.OpStrQPost
		switch {
		case lanes == 4 && post:
			u.kind = uStrQPost4
		case lanes == 4:
			u.kind = uStrQ4
		case post:
			u.kind = uStrQPostN
		default:
			u.kind = uStrQN
		}
	case asm.OpFmla:
		u.d = int32(in.Dst.Index() * lanes)
		u.a = int32(in.Src1.Index() * lanes)
		u.b = int32(in.Src2.Index()*lanes + int(in.Lane))
		if lanes == 4 {
			u.kind = uFmla4
		} else {
			u.kind = uFmlaN
		}
	case asm.OpVZero:
		u.d = int32(in.Dst.Index() * lanes)
		if lanes == 4 {
			u.kind = uVZero4
		} else {
			u.kind = uVZeroN
		}
	case asm.OpWhilelt:
		u.kind = uWhilelt
		u.d = int32(predIdx(in.Dst) * lanes)
		u.a = int32(in.Src1.Index())
		u.b = int32(in.Src2.Index())
	case asm.OpPTrue:
		u.kind = uPTrue
		u.d = int32(predIdx(in.Dst) * lanes)
	case asm.OpLd1W, asm.OpSt1W:
		bk, err := bankOf(p, in, bank, idx)
		if err != nil {
			return u, false, err
		}
		u.bank = uint8(bk)
		u.d = int32(in.Dst.Index() * lanes)
		u.a = int32(in.Src1.Index())
		u.b = int32(predIdx(in.Src2) * lanes)
		if in.Op == asm.OpLd1W {
			u.kind = uLd1W
		} else {
			u.kind = uSt1W
		}
	default:
		return u, false, fmt.Errorf("compile: %s: instr %d: unsupported op %s", p.Name, idx, in.Op)
	}
	return u, true, nil
}

// bankOf validates that the analyzer classified this memory instruction
// to an operand panel. A BankNone memory op means the instruction was
// never reached by the symbolic walk — with BoundsComplete that can only
// be dead code, which the generators don't emit; refuse rather than
// guess.
func bankOf(p *asm.Program, in *asm.Instr, bank int8, idx int) (int, error) {
	if bank < 0 || bank > 2 {
		return 0, fmt.Errorf("compile: %s: instr %d (%s): memory access not panel-classified", p.Name, idx, in.Op)
	}
	return int(bank), nil
}
