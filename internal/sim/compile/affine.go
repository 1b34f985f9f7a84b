package compile

import (
	"slices"

	"autogemm/internal/asm"
)

// Affine regions: run each accumulator's whole k-loop as one strided
// loop over the operand panels.
//
// The kernels keep the m_r×n_r accumulator tile in registers for the
// whole k-loop while A and B stream past at constant strides. translate
// recovers that form for every region of a 4-lane program that passes
// the proof below. A region is a maximal store-free run of instructions;
// it may span counted loops whose body holds no store, so a tile's
// prologue, whole k-loop and epilogue FMLAs form one region. A proven
// region lowers to a single micro-op (uAffine4) whose executable form is
// a *region.
//
// The proof is a symbolic walk over the region (buildRegion). Scalar
// registers hold affine forms over their values at region entry (lin):
// every scalar op the kernels use is affine mod 2^64. Each vector
// register holds its producer: a load at a known address, a zeroing, an
// accumulator, or the live-in value. A region is proven when:
//
//   - it holds only 4-lane vector ops and scalar ops, and an FMLA;
//   - no accumulator (an FMLA destination) is read as an FMLA source;
//   - no accumulator is loaded or zeroed after its first FMLA;
//   - every FMLA operand traces to the load that produced its version;
//   - for each accumulator, the multiplicand addresses, and the
//     by-element scalar addresses (load address + 4·lane), each form one
//     arithmetic progression over its whole FMLA sequence.
//
// Loops cost O(body), not O(trips). The body is walked twice, from the
// head state S₀ and from S₁. Every scalar op is affine, so the body is a
// map S ↦ M·S + c, and S₂ − S₁ = M·(S₁ − S₀). Requiring S₂ − S₁ = S₁ − S₀
// makes the delta a fixed point of M, so S_t = S₀ + t·Δ for every t and
// each load address in the body is base + t·step. An FMLA operand's
// producer is an earlier load in the same trip; or the body's last
// writer of the register on the previous trip, which at t = 0 must be
// the pre-loop load at base − step; or, for a register the body never
// writes, the pre-loop load itself (step 0). An accumulator with m FMLAs
// per trip at addresses base_i + t·step_i is one progression of stride s
// when base_i = base_0 + i·s and every step_i = m·s. The trip count is
// the analyzer's exact one (Report.Loops).
//
// Each proven region runs as one micro-op (execRegion): it evaluates its
// forms from the x registers at entry, sets up each accumulator (its C
// load, a zero or the live-in value), runs the accumulators in groups of
// up to four that share a multiplicand progression through runAffine,
// and then leaves the interpreter's exact state: every vector register
// whose last version is a load reloaded from that load's final address,
// the x registers and flags at exit, and loop fuel charged for every
// taken branch of the collapsed loops.
//
// Bit-identity with sim.Machine holds because each accumulator still
// receives the same multiply-adds, with the same operand values, in the
// same order. The values are read from the addresses the replaced loads
// read: those addresses are proven in bounds by the analyzer plus
// Precheck and 4-byte aligned by the analyzer, and the region has no
// stores, so memory cannot change under it. Accumulators are never
// sources and are set up before their first multiply-add, so no FMLA
// observes another accumulator's partial sum.

// maxTerms bounds the terms of one affine form; a region whose values
// need more keeps the fused-run path. A kernel's values need two: a
// panel base plus a multiple of a stride.
const maxTerms = 2

// maxForms bounds the distinct forms one region evaluates at entry
// (Env.vals); a form index is a uint8.
const maxForms = 256

// lin is an affine form over the scalar registers at region entry:
// c + Σ k[i]·x[r[i]], with n terms sorted by register and non-zero
// coefficients, unused slots zero. Arithmetic wraps mod 2^64, exactly as
// the x registers do. n < 0 marks a form needing more than maxTerms
// terms; it equals nothing.
type lin struct {
	c int64
	n int8
	r [maxTerms]uint8
	k [maxTerms]int64
}

var badLin = lin{n: -1}

func linReg(r int) lin {
	if r == asm.XZR.Index() {
		return lin{}
	}
	return lin{n: 1, r: [maxTerms]uint8{uint8(r)}, k: [maxTerms]int64{1}}
}

// addScaled returns a + m·b.
func (a lin) addScaled(b lin, m int64) lin {
	if a.n < 0 || b.n < 0 {
		return badLin
	}
	out := lin{c: a.c + m*b.c}
	if b.n == 0 {
		a.c = out.c
		return a
	}
	if a.r == b.r { // the same registers, as most address differences have
		for i := 0; i < int(b.n); i++ {
			if k := a.k[i] + m*b.k[i]; k != 0 {
				out.r[out.n], out.k[out.n] = b.r[i], k
				out.n++
			}
		}
		return out
	}
	i, j := 0, 0
	for i < int(a.n) || j < int(b.n) {
		var r uint8
		var k int64
		switch {
		case j == int(b.n) || (i < int(a.n) && a.r[i] < b.r[j]):
			r, k = a.r[i], a.k[i]
			i++
		case i == int(a.n) || b.r[j] < a.r[i]:
			r, k = b.r[j], m*b.k[j]
			j++
		default:
			r, k = a.r[i], a.k[i]+m*b.k[j]
			i++
			j++
		}
		if k == 0 {
			continue
		}
		if out.n == maxTerms {
			return badLin
		}
		out.r[out.n], out.k[out.n] = r, k
		out.n++
	}
	return out
}

func (a lin) add(b lin) lin         { return a.addScaled(b, 1) }
func (a lin) sub(b lin) lin         { return a.addScaled(b, -1) }
func (a lin) scale(m int64) lin     { return lin{}.addScaled(a, m) }
func (a lin) eq(b lin) bool         { return a.n >= 0 && a == b }
func (a lin) plus(c int64) lin      { a.c += c; return a }
func (a lin) at(t int64, d lin) lin { return a.addScaled(d, t) }

// Producer kinds of a vector register's current version.
const (
	verLive = uint8(iota) // the value at region entry
	verZero
	verLoad
	verAcc // an FMLA destination
)

// ver is a vector register's producer; for verLoad, the bank and byte
// address of the load.
type ver struct {
	kind uint8
	bank uint8
	addr lin
}

// prog is an arithmetic progression of byte addresses in one bank:
// start + j·stride for j < n. stride is zero until n ≥ 2.
type prog struct {
	bank          uint8
	start, stride lin
	n             int64
}

// extend appends the run start' + j·stride' (j < count) and reports
// whether p is still one progression.
func (p *prog) extend(bank uint8, start, stride lin, count int64) bool {
	if count == 1 {
		stride = lin{}
	}
	if start.n < 0 || stride.n < 0 {
		return false
	}
	if p.n == 0 {
		*p = prog{bank: bank, start: start, stride: stride, n: count}
		return true
	}
	if bank != p.bank {
		return false
	}
	if p.n == 1 {
		p.stride = start.sub(p.start)
	} else if !start.eq(p.start.at(p.n, p.stride)) {
		return false
	}
	if count > 1 && !stride.eq(p.stride) {
		return false
	}
	p.n += count
	return p.stride.n >= 0
}

// span is a counted loop of a region: micro-ops [lo, hi) run trips
// times.
type span struct {
	lo, hi int
	trips  int64
}

// buffers are the walk's slices, which one translate reuses across its
// regions.
type buffers struct {
	ops   []int32
	loads []operand
	keys  []int
	memo  []folded
}

// folded is one memoized fold: the progression an operand key sequence
// forms (loop).
type folded struct {
	keys         []int
	scalar, ok   bool
	bank         uint8
	base, stride lin
	m            int64
}

// walk is the state of buildRegion's symbolic walk.
type walk struct {
	sc   *buffers
	x    [asm.NumScalarRegs]lin
	z    lin // the last flag-setting result; z = (z == 0)
	setZ bool
	v    [asm.NumVectorRegs]ver

	acc   [asm.NumVectorRegs]bool // FMLA destinations of the region
	slot  [asm.NumVectorRegs]int8 // 1 + the index in accs once fed
	accs  []accState              // accumulators by first FMLA
	fuel  int
	fmlas int
}

// accState is one accumulator's walk: its version at its first FMLA and
// its multiplicand and scalar address progressions.
type accState struct {
	d          int32
	init       ver
	mult, scal prog
}

// region is the executable form of a proven affine region (execRegion).
// Every address, stride and exit value is a ref into the region's forms,
// which execRegion evaluates from the x registers at entry.
type region struct {
	forms  []form
	groups []group // the strided loops
	final  []vset  // vector registers whose last version is a load or a zeroing
	xs     []xset  // x registers the region changes
	z      ref     // the exit flag is z == 0, when setZ
	setZ   bool
	fuel   int // taken branches of the collapsed loops
	fmlas  int
}

// form is the linear part of an affine form, k0·x[r0] + k1·x[r1]; an
// unused term is k = 0 on XZR. Forms differing only in their constant
// share one form: a kernel's addresses are a few row bases plus
// offsets, each a base register plus a multiple of a stride register.
type form struct {
	r0, r1 uint8
	k0, k1 int64
}

// ref is the value vals[f] + off.
type ref struct {
	f   uint8
	off int64
}

// vset writes vector register d (a byte offset into the vector file):
// zero, or the 16 bytes at address at of bank.
type vset struct {
	d    int32
	zero bool
	bank uint8
	at   ref
}

type xset struct {
	r  uint8
	at ref
}

// group is one strided loop: k accumulators (1, 2 or 4) sharing the
// multiplicand progression a + j·sa of bank abank for n steps.
type group struct {
	n     int64
	k     int
	abank uint8
	a, sa ref
	acc   [4]accum
}

// accum is one accumulator of a group: vector register d (a byte offset
// into the vector file), set up from its live-in value, a zero, or the
// 16 bytes at init of bank ibank (init is verLive, verZero or verLoad),
// with the by-element scalar progression b + j·sb of bank bbank.
type accum struct {
	d     int32
	init  uint8
	ibank uint8
	bbank uint8
	iat   ref
	b, sb ref
}

// scalar applies one scalar micro-op, reporting the address of a load
// (the pre-increment base for a post-indexed one) or the result of a
// flag-setting op in rec. It reports false for anything that is not a
// scalar op or a 4-lane load.
func (w *walk) scalar(u *uop, rec *lin) bool {
	switch u.kind {
	case uMov:
		w.x[u.d] = w.x[u.a]
	case uMovI:
		w.x[u.d] = lin{c: u.imm}
	case uLsl:
		var m int64
		if u.imm >= 0 && u.imm < 64 {
			m = 1 << uint64(u.imm)
		}
		w.x[u.d] = w.x[u.a].scale(m)
	case uAdd:
		w.x[u.d] = w.x[u.a].add(w.x[u.b])
	case uAddI:
		w.x[u.d] = w.x[u.a].plus(u.imm)
	case uSubI:
		w.x[u.d] = w.x[u.a].plus(-u.imm)
	case uSubs:
		*rec = w.x[u.a].plus(-u.imm)
		w.x[u.d] = *rec
	case uCmpI:
		*rec = w.x[u.a].plus(-u.imm)
	case uLdrQ4:
		*rec = w.x[u.a].plus(u.imm)
	case uLdrQPost4:
		*rec = w.x[u.a]
		w.x[u.a] = rec.plus(u.imm)
	case uVZero4, uFmla4:
	default:
		return false
	}
	return true
}

// fed returns accumulator d's state, recording its first FMLA and its
// version there on the first call.
func (w *walk) fed(d int32) *accState {
	if w.slot[d] == 0 {
		w.accs = append(w.accs, accState{d: d, init: w.v[d]})
		w.slot[d] = int8(len(w.accs))
	}
	return &w.accs[w.slot[d]-1]
}

// buildRegion proves one store-free region and returns its executable
// form, or nil when the region keeps the fused-run path. body is the
// region's micro-ops with loop latches removed; loops are its counted
// loops in order, disjoint and inside body. sc lends the walk its
// buffers.
func buildRegion(sc *buffers, body []uop, loops []span) *region {
	w := &walk{sc: sc}
	for r := range w.x {
		w.x[r] = linReg(r)
	}
	nacc := 0
	for _, u := range body {
		switch u.kind {
		case uFmla4:
			if !w.acc[u.d/4] {
				nacc++
			}
			w.acc[u.d/4] = true
			w.fmlas++
		case uMov, uMovI, uLsl, uAdd, uAddI, uSubI, uSubs, uCmpI, uLdrQ4, uLdrQPost4, uVZero4:
		default:
			return nil
		}
	}
	if w.fmlas == 0 {
		return nil
	}
	w.accs = make([]accState, 0, nacc)
	for _, u := range body {
		if u.kind == uFmla4 && (w.acc[u.a/4] || w.acc[u.b/4]) {
			return nil
		}
	}
	li := 0
	for i := 0; i < len(body); {
		if li < len(loops) && loops[li].lo == i && loops[li].trips > 1 {
			l := loops[li]
			if !w.loop(body[l.lo:l.hi], l.trips) {
				return nil
			}
			li++
			i = l.hi
			continue
		}
		if li < len(loops) && loops[li].lo == i {
			li++ // a one-trip loop is straight-line code
		}
		if !w.straight(&body[i]) {
			return nil
		}
		i++
	}
	return w.lower()
}

// write records a load or zeroing of vector register r, refusing one
// that lands on an accumulator after its first FMLA.
func (w *walk) write(r int32, v ver) bool {
	if w.slot[r] != 0 {
		return false
	}
	w.v[r] = v
	return true
}

// straight applies one micro-op outside any multi-trip loop.
func (w *walk) straight(u *uop) bool {
	var rec lin
	if !w.scalar(u, &rec) {
		return false
	}
	switch u.kind {
	case uSubs, uCmpI:
		w.z, w.setZ = rec, true
	case uLdrQ4, uLdrQPost4:
		return w.write(u.d/4, ver{kind: verLoad, bank: u.bank, addr: rec})
	case uVZero4:
		return w.write(u.d/4, ver{kind: verZero})
	case uFmla4:
		d, a, b := u.d/4, u.a/4, u.b/4
		ac := w.fed(d)
		ma, sb := w.v[a], w.v[b]
		if ma.kind != verLoad || sb.kind != verLoad {
			return false
		}
		if !ac.mult.extend(ma.bank, ma.addr, lin{}, 1) ||
			!ac.scal.extend(sb.bank, sb.addr.plus(int64(u.b%4)*4), lin{}, 1) {
			return false
		}
		w.v[d] = ver{kind: verAcc}
	}
	return true
}

// operand is an FMLA operand inside a loop body: the address it reads
// on trip t is base + t·step.
type operand struct {
	bank       uint8
	base, step lin
}

// fold merges the m operands one accumulator reads per trip, in body
// order, into one progression: base_i = base_0 + i·s and every
// step_i = m·s, so that element t·m + i is trip t's operand i. It runs
// incrementally, one operand at a time.
type fold struct {
	m          int64
	bank       uint8
	base, prev lin
	s, step    lin
	bad        bool
}

func (f *fold) add(o operand) {
	switch {
	case f.m == 0:
		f.bank, f.base, f.prev, f.step = o.bank, o.base, o.base, o.step
	case o.bank != f.bank || !o.step.eq(f.step):
		f.bad = true
	case f.m == 1:
		f.s = o.base.sub(f.base)
	case !o.base.sub(f.prev).eq(f.s):
		f.bad = true
	}
	f.prev = o.base
	f.m++
}

// stride returns the progression's stride, or false when the operands
// are not one progression.
func (f *fold) stride() (lin, bool) {
	if f.m == 1 {
		return f.step, !f.bad
	}
	return f.s, !f.bad && f.step.eq(f.s.scale(f.m))
}

// loop proves a counted loop of trips ≥ 2 and applies its closed form.
func (w *walk) loop(body []uop, trips int64) bool {
	// writer[r] is the body's last write of vector register r: noWrite,
	// the ordinal of a load, or nonLoad. A register the region has fed
	// as an accumulator, before or in this body, is neither loaded nor
	// zeroed in it: trip 2's set-up would follow trip 1's FMLA.
	const noWrite, nonLoad = -1, -2
	var writer, nfed [asm.NumVectorRegs]int
	var set [asm.NumVectorRegs]bool
	for r := range writer {
		writer[r] = noWrite
	}
	nloads, nfmla := 0, 0
	for _, u := range body {
		switch u.kind {
		case uFmla4:
			writer[u.d/4] = nonLoad
			nfed[u.d/4]++
			nfmla++
		case uVZero4:
			writer[u.d/4] = nonLoad
			set[u.d/4] = true
		case uLdrQ4, uLdrQPost4:
			writer[u.d/4] = nloads
			set[u.d/4] = true
			nloads++
		}
	}
	for r := range set {
		if set[r] && (nfed[r] > 0 || w.slot[r] != 0) {
			return false
		}
	}

	// Walk trips 0 and 1 from S₀: each load's operand is its trip-0
	// address and the difference to trip 1, z the last flag-setter's
	// results, s the scalar states S₀, S₁ and S₂.
	loads := grow(&w.sc.loads, nloads)
	var z [2]lin
	flags := false
	var s [3][asm.NumScalarRegs]lin
	s[0] = w.x
	ops := w.sc.ops[:0]
	for i := range body {
		if body[i].kind != uFmla4 && body[i].kind != uVZero4 {
			ops = append(ops, int32(i))
		}
	}
	w.sc.ops = ops
	for trip := 0; trip < 2; trip++ {
		n := 0
		for _, i := range ops {
			u := &body[i]
			var rec lin
			if !w.scalar(u, &rec) {
				return false
			}
			switch u.kind {
			case uLdrQ4, uLdrQPost4:
				if trip == 0 {
					loads[n] = operand{bank: u.bank, base: rec}
				} else {
					loads[n].step = rec.sub(loads[n].base)
				}
				n++
			case uSubs, uCmpI:
				z[trip], flags = rec, true
			}
		}
		s[trip+1] = w.x
	}
	var delta [asm.NumScalarRegs]lin
	for r := range delta {
		if s[1][r] == s[0][r] && s[2][r] == s[1][r] {
			continue // unchanged: delta 0
		}
		delta[r] = s[1][r].sub(s[0][r])
		if !s[2][r].sub(s[1][r]).eq(delta[r]) {
			return false
		}
	}

	// An FMLA operand is an earlier load of this trip; or, before the
	// body's first write of the register, its last writer one trip back,
	// which on trip 0 must be the pre-loop load; or, for a register the
	// body never writes, the pre-loop load itself.
	var carried [asm.NumVectorRegs]operand
	var carriedOK [asm.NumVectorRegs]bool
	for r, q := range writer {
		if q < 0 {
			continue
		}
		o := loads[q]
		o.base = o.base.sub(o.step)
		pre := w.v[r]
		carried[r], carriedOK[r] = o, pre.kind == verLoad && pre.bank == o.bank && pre.addr.eq(o.base)
	}
	var cur [asm.NumVectorRegs]int
	for r := range cur {
		cur[r] = noWrite
	}
	// Each accumulator's operands are recorded as keys: a load ordinal of
	// this trip, nloads + r for a carried register r, nloads + 32 + r for
	// a loop-invariant one; a scalar's key is 4·key + lane. Accumulators
	// reading the same key sequence share one fold: a tile's rows share
	// their multiplicands and its columns their scalars.
	operandOf := func(key int) (operand, bool) {
		switch {
		case key < nloads:
			return loads[key], true
		case key < nloads+asm.NumVectorRegs:
			r := key - nloads
			return carried[r], carriedOK[r]
		}
		pre := w.v[key-nloads-asm.NumVectorRegs]
		return operand{bank: pre.bank, base: pre.addr}, pre.kind == verLoad
	}
	keyOf := func(r int32) int {
		switch q := cur[r]; {
		case q >= 0:
			return q
		case q == nonLoad:
			return -1
		case writer[r] != noWrite:
			return nloads + int(r)
		}
		return nloads + asm.NumVectorRegs + int(r)
	}
	var keys [asm.NumVectorRegs][2][]int
	buf := grow(&w.sc.keys, 2*nfmla)
	for r, m := range nfed {
		keys[r][0], keys[r][1], buf = buf[:0:m], buf[m:m:2*m], buf[2*m:]
	}
	order := make([]int32, 0, asm.NumVectorRegs)
	n := 0
	for i := range body {
		u := &body[i]
		switch u.kind {
		case uLdrQ4, uLdrQPost4:
			cur[u.d/4] = n
			n++
		case uVZero4:
			cur[u.d/4] = nonLoad
		case uFmla4:
			d := u.d / 4
			ka, kb := keyOf(u.a/4), keyOf(u.b/4)
			if ka < 0 || kb < 0 {
				return false
			}
			if len(keys[d][0]) == 0 {
				order = append(order, d)
			}
			keys[d][0] = append(keys[d][0], ka)
			keys[d][1] = append(keys[d][1], 4*kb+int(u.b%4))
			cur[d] = nonLoad
		}
	}
	w.sc.memo = w.sc.memo[:0]
	foldOf := func(ks []int, scalar bool) *folded {
		memo := w.sc.memo
		for i := range memo {
			if memo[i].scalar == scalar && slices.Equal(memo[i].keys, ks) {
				return &memo[i]
			}
		}
		var f fold
		for _, k := range ks {
			lane := 0
			if scalar {
				k, lane = k/4, k%4
			}
			o, ok := operandOf(k)
			f.bad = f.bad || !ok
			o.base = o.base.plus(int64(lane) * 4)
			f.add(o)
		}
		stride, ok := f.stride()
		w.sc.memo = append(memo, folded{keys: ks, scalar: scalar, ok: ok, bank: f.bank, base: f.base, stride: stride, m: f.m})
		return &w.sc.memo[len(memo)]
	}
	for _, d := range order {
		ac := w.fed(d)
		for j, pr := range [2]*prog{&ac.mult, &ac.scal} {
			f := foldOf(keys[d][j], j == 1)
			if !f.ok || !pr.extend(f.bank, f.base, f.stride, trips*f.m) {
				return false
			}
		}
	}

	// The exit state: S₀ + trips·Δ, and each register's last version.
	for r := range w.x {
		if delta[r] != (lin{}) {
			w.x[r] = s[0][r].at(trips, delta[r])
		}
	}
	for r, q := range writer {
		switch {
		case q >= 0:
			o := loads[q]
			w.v[r] = ver{kind: verLoad, bank: o.bank, addr: o.base.at(trips-1, o.step)}
		case q == nonLoad && nfed[r] > 0:
			w.v[r] = ver{kind: verAcc}
		case q == nonLoad:
			w.v[r] = ver{kind: verZero}
		}
	}
	if flags {
		w.z, w.setZ = z[0].at(trips-1, z[1].sub(z[0])), true
	}
	w.fuel += int(trips - 1)
	return true
}

// lower turns a proven walk into the region's executable form.
func (w *walk) lower() *region {
	r := &region{fuel: w.fuel, fmlas: w.fmlas,
		forms: make([]form, 0, 16), final: make([]vset, 0, asm.NumVectorRegs),
		xs: make([]xset, 0, asm.NumScalarRegs)}
	ok := true
	at := func(l lin) ref {
		f := form{r0: 31, r1: 31}
		switch {
		case l.n < 0:
			ok = false
		case l.n == 2:
			f.r1, f.k1 = l.r[1], l.k[1]
			fallthrough
		case l.n == 1:
			f.r0, f.k0 = l.r[0], l.k[0]
		}
		fi := slices.Index(r.forms, f)
		if fi < 0 {
			if len(r.forms) == maxForms {
				ok = false
				return ref{}
			}
			fi = len(r.forms)
			r.forms = append(r.forms, f)
		}
		return ref{f: uint8(fi), off: l.c}
	}

	// Groups: accumulators in first-FMLA order, up to four per shared
	// multiplicand progression; a group of three runs as a pair and a
	// single.
	groups := make([]group, 0, len(w.accs))
	for i := range w.accs {
		ac := &w.accs[i]
		d, m, s := ac.d, &ac.mult, &ac.scal
		a, sa := at(m.start), at(m.stride)
		gi := -1
		for j := range groups {
			g := &groups[j]
			if g.k < 4 && g.n == m.n && g.abank == m.bank && g.a == a && g.sa == sa {
				gi = j
				break
			}
		}
		if gi < 0 {
			groups = append(groups, group{n: m.n, abank: m.bank, a: a, sa: sa})
			gi = len(groups) - 1
		}
		g := &groups[gi]
		in := ac.init
		g.acc[g.k] = accum{d: d * 16, init: in.kind, ibank: in.bank, bbank: s.bank,
			b: at(s.start), sb: at(s.stride)}
		if in.kind == verLoad {
			g.acc[g.k].iat = at(in.addr)
		}
		g.k++
	}
	for i := range groups {
		if g := &groups[i]; g.k == 3 {
			single := *g
			single.k, single.acc = 1, [4]accum{g.acc[2]}
			g.k = 2
			groups = append(groups, single)
		}
	}
	r.groups = groups

	for v, ver := range w.v {
		switch ver.kind {
		case verZero:
			r.final = append(r.final, vset{d: int32(v) * 16, zero: true})
		case verLoad:
			r.final = append(r.final, vset{d: int32(v) * 16, bank: ver.bank, at: at(ver.addr)})
		}
	}
	for x, l := range w.x {
		if l != linReg(x) {
			r.xs = append(r.xs, xset{r: uint8(x), at: at(l)})
		}
	}
	if w.setZ {
		r.z, r.setZ = at(w.z), true
	}
	if !ok {
		return nil
	}
	return r
}

// grow returns (*buf)[:n], reallocating the buffer when it is short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}
