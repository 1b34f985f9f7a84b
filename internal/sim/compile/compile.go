package compile

import (
	"fmt"
	"slices"

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

// Compile lowers a program to its static schedule: a list of segments,
// each a body of pre-decoded micro-ops run a fixed number of trips, with
// every memory access at a proven panel position and no per-access
// bounds checks.
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
// full proof is not an error to paper over — the caller gets it.
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
	return translate(p, bounds, rep)
}

// translate builds the static schedule. BoundsComplete fixes the control
// flow: the only branches are the latches of rep.Loops, which do not
// nest, hold no RET and run exactly Trips times, and every other path
// falls through to the first RET. So translate decodes the program up
// to that RET into one micro-op list, dropping what only steers
// addresses and control (the analyzer has resolved it into
// rep.Accesses): scalar ops, WHILELT, PTRUE, labels, branches, nops and
// prefetch hints. A loop of two or more trips becomes a span of that
// list. A 4-lane program that tileProgram lowers whole to register
// tiles (affine.go) runs as those tiles alone, and a layout holds it to
// the exact extents they reach. Any other program is cut at the spans
// into segments of loose micro-ops, each segment's FMLA runs fused, and
// a layout holds it to the declared extents.
func translate(p *asm.Program, bounds analysis.Bounds, rep *analysis.Report) (*Program, error) {
	lanes := bounds.Lanes
	cp := &Program{Name: p.Name, Lanes: lanes, Bounds: bounds}
	ops := make([]uop, 0, len(p.Instrs))
	var loops []span
	li, lo := 0, -1 // the next loop of rep.Loops; the start of the open one in ops
	ret := false
	for i := 0; i < len(p.Instrs) && !ret; i++ {
		in := &p.Instrs[i]
		if li < len(rep.Loops) && rep.Loops[li].Head == i {
			lo = len(ops)
		}
		switch in.Op {
		case asm.OpBne:
			if li == len(rep.Loops) || rep.Loops[li].Latch != i || lo < 0 {
				return nil, fmt.Errorf("%w: %s: instr %d: branch is not a counted loop latch", ErrUnproven, p.Name, i)
			}
			l := rep.Loops[li]
			if l.Trips < 1 {
				return nil, fmt.Errorf("%w: %s: loop at instr %d has no exact trip count", ErrUnproven, p.Name, l.Head)
			}
			if l.Trips > 1 && lo < len(ops) {
				loops = append(loops, span{lo: lo, hi: len(ops), trips: l.Trips})
			}
			cp.iters += int(l.Trips - 1)
			li, lo = li+1, -1
		case asm.OpRet:
			if lo >= 0 {
				return nil, fmt.Errorf("%w: %s: instr %d: ret inside a loop", ErrUnproven, p.Name, i)
			}
			ret = true
		case asm.OpB:
			return nil, fmt.Errorf("%w: %s: instr %d: unconditional branch", ErrUnproven, p.Name, i)
		case asm.OpNop, asm.OpPrfm, asm.OpLabel, asm.OpMov, asm.OpMovI, asm.OpLsl, asm.OpAdd,
			asm.OpAddI, asm.OpSubI, asm.OpSubs, asm.OpWhilelt, asm.OpPTrue:
		default:
			u, err := decode(p, i, lanes, rep.Accesses[i])
			if err != nil {
				return nil, err
			}
			ops = append(ops, u)
		}
	}
	if !ret {
		return nil, fmt.Errorf("compile: %s: falls off the end without ret", p.Name)
	}

	if lanes == 4 {
		if regions, ok := tileProgram(ops, loops); ok {
			cp.regions = regions
			cp.ext = exactExtents(regions)
			return cp, nil
		}
	}
	// The declared extents: Bounds.AExtent, BExtent and CExtent.
	cp.ext = [3]extent{
		{rows: int64(bounds.MR - 1), cols: int64(bounds.KC + bounds.AOverVectors*lanes)},
		{rows: int64(bounds.KC + bounds.BOverRows - 1), cols: int64(bounds.NR)},
		{rows: int64(bounds.MR - 1), cols: int64(bounds.NR)},
	}
	var body []uop
	flush := func(trips int64) {
		if len(body) > 0 {
			var c code
			c.body, c.fm = fuseFmla(body)
			cp.segs = append(cp.segs, segment{code: c, trips: trips})
		}
		body = nil
	}
	for i := 0; i < len(ops); {
		if len(loops) > 0 && loops[0].lo == i {
			l := loops[0]
			flush(1)
			body = ops[l.lo:l.hi]
			flush(l.trips)
			i, loops = l.hi, loops[1:]
			continue
		}
		body = append(body, ops[i])
		i++
	}
	flush(1)
	return cp, nil
}

// tileProgram lowers a 4-lane program to a tile program: its proven
// affine regions in order, with the C traffic folded into them. It
// reports false, and the program lowers to loose micro-ops, unless
// there is a region, every micro-op is a region's or folded into one,
// and every chunk sets up from its C tile or as zeros.
func tileProgram(ops []uop, loops []span) ([]*region, bool) {
	kept := affineRegions(ops, loops)
	drop := foldC(ops, loops, kept)
	regions := make([]*region, len(kept))
	lo := 0
	for k, kr := range kept {
		if slices.Contains(drop[lo:kr.start], false) || !kr.r.settle() {
			return nil, false
		}
		regions[k], lo = kr.r, kr.end
	}
	return regions, len(regions) > 0 && !slices.Contains(drop[lo:], false)
}

// exactExtents returns a tile program's extents by bank: the furthest
// row and column end its chunks reach, over the scalars and
// multiplicands of their first and last steps, the C loads that set up
// their accumulators and their folded C stores.
func exactExtents(regions []*region) (ext [3]extent) {
	for _, r := range regions {
		for i := range r.chunks {
			ch := &r.chunks[i]
			last := ch.n - 1
			for row := int64(0); row < ch.rows; row++ {
				p := ch.a.add(ch.off[row])
				ext[ch.abank].cover(p, 4)
				ext[ch.abank].cover(p.at(last, ch.sa), 4)
			}
			for c := int64(0); c < ch.cols; c++ {
				p := ch.b.add(pos{col: 16 * c})
				ext[ch.bbank].cover(p, 16)
				ext[ch.bbank].cover(p.at(last, ch.sb), 16)
			}
			for _, ac := range ch.acc {
				if ac.init == verLoad {
					ext[ac.ibank].cover(ac.iat, 16)
				}
				if r.store {
					ext[bankC].cover(ac.sat, 16)
				}
			}
		}
	}
	return ext
}

// span is a counted loop: micro-ops [lo, hi) run trips times.
type span struct {
	lo, hi int
	trips  int64
}

// keptRegion is a proven affine region over micro-ops [start, end).
type keptRegion struct {
	start, end int
	r          *region
}

// affineRegions cuts a 4-lane program's micro-ops into store-free
// regions and returns those buildRegion proves, in program order. A
// region holds a counted loop only whole; a loop whose body holds a
// store cuts regions at its ends and keeps its body out of them.
func affineRegions(ops []uop, loops []span) []keptRegion {
	cut := make([]bool, len(ops))
	for i, u := range ops {
		cut[i] = u.kind == uStoreN
	}
	inner := loops[:0:0]
	for _, l := range loops {
		if !slices.Contains(cut[l.lo:l.hi], true) {
			inner = append(inner, l)
			continue
		}
		for i := l.lo; i < l.hi; i++ {
			cut[i] = true
		}
	}

	var out []keptRegion
	var spans []span
	sc := new(buffers)
	for s := 0; s < len(ops); {
		if cut[s] {
			s++
			continue
		}
		e := s + 1
		for e < len(ops) && !cut[e] {
			e++
		}
		spans = spans[:0]
		for _, l := range inner {
			if l.lo >= s && l.hi <= e {
				spans = append(spans, span{lo: l.lo - s, hi: l.hi - s, trips: l.trips})
			}
		}
		if r := buildRegion(sc, ops[s:e], spans); r != nil {
			out = append(out, keptRegion{start: s, end: e, r: r})
		}
		s = e
	}
	return out
}

// decode builds the micro-op of instruction idx, a vector memory or
// arithmetic op. The executor addresses the register files through raw
// pointers, so every register number is proven in range here, at
// translate time — a NoReg or misclassified operand must never reach a
// flat offset. A memory op takes its panel position from the analyzer's
// Access; one whose active lanes are unproven is refused.
func decode(p *asm.Program, idx, lanes int, at analysis.Access) (uop, error) {
	in := &p.Instrs[idx]
	u := uop{lanes: int32(lanes)}
	vector := func(r asm.Reg) error {
		if !r.IsVector() {
			return fmt.Errorf("compile: %s: instr %d (%s): non-vector operand %s", p.Name, idx, in.Op, r)
		}
		return nil
	}
	if err := vector(in.Dst); err != nil {
		return u, err
	}
	u.d = int32(in.Dst.Index() * lanes)
	switch in.Op {
	case asm.OpFmla:
		if err := vector(in.Src1); err != nil {
			return u, err
		}
		if err := vector(in.Src2); err != nil {
			return u, err
		}
		if int(in.Lane) >= lanes {
			return u, fmt.Errorf("compile: %s: instr %d: FMLA lane %d ≥ σ_lane %d", p.Name, idx, in.Lane, lanes)
		}
		u.a = int32(in.Src1.Index() * lanes)
		u.b = int32(in.Src2.Index()*lanes + int(in.Lane))
		u.kind = uFmlaN
		return u, nil
	case asm.OpVZero:
		u.kind = uVZeroN
		return u, nil
	}
	switch in.Op {
	case asm.OpLdrQ, asm.OpLdrQPost, asm.OpLd1W:
		u.kind = uLoadN
	case asm.OpStrQ, asm.OpStrQPost, asm.OpSt1W:
		u.kind = uStoreN
	default:
		return u, fmt.Errorf("compile: %s: instr %d: unsupported op %s", p.Name, idx, in.Op)
	}
	if at.Bank < analysis.BankA || at.Bank > analysis.BankC {
		return u, fmt.Errorf("%w: %s: instr %d (%s): memory access not panel-classified", ErrUnproven, p.Name, idx, in.Op)
	}
	if at.Lanes < 1 || int(at.Lanes) > lanes {
		return u, fmt.Errorf("%w: %s: instr %d (%s): active lanes not proven", ErrUnproven, p.Name, idx, in.Op)
	}
	u.bank, u.lanes = uint8(at.Bank), int32(at.Lanes)
	u.row, u.col, u.drow, u.dcol = at.Row, at.Col, at.DRow, at.DCol
	return u, nil
}
