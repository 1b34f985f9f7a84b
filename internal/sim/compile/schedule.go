package compile

import "autogemm/internal/asm"

// Block scheduling: keep accumulators out of memory.
//
// The micro-op executor reads and writes every FMLA's accumulator
// through the Env vector file, so a k-loop pays a 16-byte load and store
// per FMLA. The kernels themselves keep the m_r×n_r accumulator tile in
// registers for the whole k-loop; schedule recovers that at translate
// time for each region of a basic block that passes a local dataflow
// check. A region is a maximal store-free run of micro-ops; the stores
// that follow it run afterwards, in order, against the architectural
// file. A region is scheduled when it holds only 4-lane vector ops and
// scalar ops, has at least one FMLA, and:
//
//   - no register written by an FMLA (an accumulator) is read as an
//     FMLA source in the region;
//   - no accumulator is loaded or zeroed after its first FMLA there.
//
// A scheduled region runs in three phases:
//
//  1. scalar ops, loads and zeroings in their original order, with every
//     load or zeroing of a non-accumulator renamed into a fresh temp slot
//     appended to Env's vector file (uChain4's operands then name the
//     exact version each FMLA read);
//  2. the FMLAs accumulator-major (uChain4): accumulators whose FMLAs
//     share the same full-vector operand sequence run in pairs, held in
//     registers for the whole chain (runChains: the SSE loop on amd64,
//     execChains elsewhere);
//  3. renamed registers are copied back to the architectural file
//     (uMov4), so the stores and later blocks see the program's state.
//
// Bit-identity with sim.Machine holds because the reordering only moves
// FMLAs across FMLAs on other accumulators: each accumulator element
// still receives the same multiply-adds, with the same operand values,
// in the same order. Accumulators are never FMLA sources (first rule),
// and every load or zeroing of one precedes its chain (second rule), so
// no FMLA observes another accumulator's partial sum.

// maxTemps bounds the rename slots of one scheduled region; a region
// needing more keeps the fused-run path.
const maxTemps = 128

// tempBase is the float index in Env.v of temp slot 0, just past the
// architectural vector file.
const tempBase = asm.NumVectorRegs * MaxLanes

// chain is one scheduled accumulator (d2 < 0) or pair: byte offsets into
// the vector file of the accumulators and the [lo,hi) range of its
// multiply-adds in the step table.
type chain struct {
	d1, d2 int32
	lo, hi int32
}

// step is one multiply-add of a chain: the shared full-vector
// multiplicand and each accumulator's by-element scalar (byte offsets).
type step struct {
	a, b1, b2 int32
}

// code is one basic block's executable form: its micro-ops and the side
// tables their run micro-ops index.
type code struct {
	body   []uop
	fm     []fmla  // uFmlaRun4 / uFmlaRunN entries
	chains []chain // uChain4 entries
	steps  []step
}

func isStore(kind uint8) bool {
	switch kind {
	case uStrQ4, uStrQPost4, uStrQN, uStrQPostN, uSt1W:
		return true
	}
	return false
}

// schedule lowers one basic block's micro-ops: scheduled regions are
// rewritten, everything else keeps the fused-run path. fmlas counts the
// block's FMLAs and scheduled those that landed in a scheduled region.
func schedule(body []uop) (c *code, fmlas, scheduled int) {
	fmlas = countFmla(body)
	c = &code{steps: make([]step, 0, fmlas)}
	out := make([]uop, 0, len(body)+asm.NumVectorRegs)
	for i := 0; i < len(body); {
		j := i
		for j < len(body) && !isStore(body[j].kind) {
			j++
		}
		k := j
		for k < len(body) && isStore(body[k].kind) {
			k++
		}
		region := body[i:j]
		n := countFmla(region)
		if n > 0 && c.scheduleRegion(&out, region, n) {
			scheduled += n
		} else {
			out = append(out, region...)
		}
		out = append(out, body[j:k]...)
		i = k
	}
	if scheduled < fmlas {
		c.body, c.fm = fuseFmla(out)
	} else {
		c.body = out
	}
	return c, fmlas, scheduled
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

// scheduleRegion appends the scheduled form of one store-free region
// holding n FMLAs to out and reports true, or leaves out untouched and
// reports false when the region fails the dataflow check. Register
// indices are u.d/4 etc.: only 4-lane kinds get past the first loop.
func (c *code) scheduleRegion(out *[]uop, region []uop, n int) bool {
	var acc, started [asm.NumVectorRegs]bool
	for _, u := range region {
		switch u.kind {
		case uFmla4:
			acc[u.d/4] = true
		case uMov, uMovI, uLsl, uAdd, uAddI, uSubI, uSubs, uCmpI, uLdrQ4, uLdrQPost4, uVZero4:
		default:
			return false
		}
	}
	for _, u := range region {
		switch u.kind {
		case uFmla4:
			if acc[u.a/4] || acc[u.b/4] {
				return false
			}
			started[u.d/4] = true
		case uLdrQ4, uLdrQPost4, uVZero4:
			if started[u.d/4] {
				return false
			}
		}
	}

	// Phase 1, renaming as it goes. cur holds the float index of each
	// register's current version; fms records each FMLA as (accumulator
	// register, multiplicand byte offset, scalar byte offset).
	var cur [asm.NumVectorRegs]int32
	for r := range cur {
		cur[r] = int32(r * 4)
	}
	fms := make([]fmla, 0, n)
	temps := int32(0)
	start := len(*out)
	for _, u := range region {
		switch u.kind {
		case uFmla4:
			fms = append(fms, fmla{d: u.d / 4, a: cur[u.a/4] * 4, b: (cur[u.b/4] + u.b%4) * 4})
			continue
		case uLdrQ4, uLdrQPost4, uVZero4:
			if r := u.d / 4; !acc[r] {
				if temps == maxTemps {
					*out = (*out)[:start]
					return false
				}
				cur[r] = tempBase + temps*4
				temps++
				u.d = cur[r]
			}
		}
		*out = append(*out, u)
	}

	// Phase 2: accumulators in first-FMLA order, each paired with the
	// next one whose multiplicand sequence matches. seq[r] is r's FMLAs
	// in program order, bucketed out of fms by a counting sort.
	var count [asm.NumVectorRegs]int
	var order []int32
	for _, f := range fms {
		if count[f.d] == 0 {
			order = append(order, f.d)
		}
		count[f.d]++
	}
	var seq [asm.NumVectorRegs][]fmla
	sorted := make([]fmla, len(fms))
	at := 0
	for _, r := range order {
		seq[r] = sorted[at : at : at+count[r]]
		at += count[r]
	}
	for _, f := range fms {
		seq[f.d] = append(seq[f.d], f)
	}
	lo := int32(len(c.chains))
	var done [asm.NumVectorRegs]bool
	for oi, p := range order {
		if done[p] {
			continue
		}
		q := int32(-1)
		for _, r := range order[oi+1:] {
			if !done[r] && sameMultiplicands(seq[p], seq[r]) {
				q = r
				break
			}
		}
		ch := chain{d1: p * 16, d2: -1, lo: int32(len(c.steps))}
		for j, f := range seq[p] {
			s := step{a: f.a, b1: f.b}
			if q >= 0 {
				s.b2 = seq[q][j].b
			}
			c.steps = append(c.steps, s)
		}
		if q >= 0 {
			ch.d2 = q * 16
			done[q] = true
		}
		ch.hi = int32(len(c.steps))
		c.chains = append(c.chains, ch)
	}
	*out = append(*out, uop{kind: uChain4, a: lo, b: int32(len(c.chains))})

	// Phase 3: write renamed registers back.
	for r := range cur {
		if cur[r] != int32(r*4) {
			*out = append(*out, uop{kind: uMov4, d: int32(r * 4), a: cur[r]})
		}
	}
	return true
}

// sameMultiplicands reports whether two accumulators' FMLAs read the
// same full-vector operand at every step.
func sameMultiplicands(x, y []fmla) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i].a != y[i].a {
			return false
		}
	}
	return true
}
