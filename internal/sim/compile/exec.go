package compile

import "unsafe"

// Micro-ops: the pre-decoded straight-line form basic-block closures
// execute. Operand fields are flat indices into the Env register files
// (vector and predicate indices are pre-multiplied by σ_lane), memory
// kinds carry their proven operand bank, and the 4-lane NEON cases are
// specialized so the hot path is straight stores with no inner loop.
//
// The executor addresses the register files and operand banks through
// raw pointers (unsafe.Add) rather than checked slice indexing. That is
// not an optimization taken on faith — it is the point of the package:
//   - register-file offsets are validated once at translate time
//     (validOperands) against the architectural register classes;
//   - bank offsets are covered by the analyzer's affine bounds and
//     alignment proof (Compile refuses anything unproven) combined with
//     Run's Precheck of the concrete panel extents.
//
// The interpreter (sim.Machine) remains the checked reference; the
// differential suite and fuzz target hold the two bit-identical.
const (
	uMov = uint8(iota)
	uMovI
	uLsl
	uAdd
	uAddI
	uSubI
	uSubs
	uCmpI // SUBS with XZR destination: flags only
	uLdrQ4
	uLdrQPost4
	uLdrQN
	uLdrQPostN
	uStrQ4
	uStrQPost4
	uStrQN
	uStrQPostN
	uFmla4
	uFmlaN
	uVZero4
	uVZeroN
	uWhilelt
	uPTrue
	uLd1W
	uSt1W
	uFmlaRun4 // [a,b) of the block's fmla table, 4-lane specialization
	uFmlaRunN
	uAffine4 // the block's affine region a (affine.go)
)

type uop struct {
	kind  uint8
	bank  uint8
	d     int32 // destination byte offset (register files) or index
	a     int32 // first source offset/index
	b     int32 // second source offset/index
	lanes int32
	imm   int64
}

// fmla is one entry of a fused FMLA run: byte offsets into the vector
// file of the accumulator (d), full-vector multiplicand (a) and
// by-element scalar (b).
type fmla struct {
	d, a, b int32
}

// code is one basic block's executable form: its micro-ops, the FMLA
// table its run micro-ops index, the affine regions its uAffine4
// micro-ops run, and the taken branches those regions' collapsed loops
// charge to loop fuel.
type code struct {
	body []uop
	fm   []fmla
	aff  []*region
	fuel int
}

// fuseFmla rewrites runs of ≥2 consecutive FMLA micro-ops into a single
// run micro-op over a side table. The generated kernels issue their
// MR·NR/σ FMLAs per k-step back to back, so this removes the dominant
// share of dispatch switches from the steady-state loop.
func fuseFmla(body []uop) ([]uop, []fmla) {
	out := make([]uop, 0, len(body))
	var fm []fmla
	for i := 0; i < len(body); i++ {
		u := body[i]
		if u.kind != uFmla4 && u.kind != uFmlaN {
			out = append(out, u)
			continue
		}
		j := i
		for j < len(body) && body[j].kind == u.kind {
			j++
		}
		if j-i < 2 {
			out = append(out, u)
			continue
		}
		start := int32(len(fm))
		for _, v := range body[i:j] {
			fm = append(fm, fmla{d: v.d * 4, a: v.a * 4, b: v.b * 4})
		}
		run := uop{a: start, b: int32(len(fm)), lanes: u.lanes}
		if u.kind == uFmla4 {
			run.kind = uFmlaRun4
		} else {
			run.kind = uFmlaRunN
		}
		out = append(out, run)
		i = j - 1
	}
	return out, fm
}

func f32(p unsafe.Pointer, off int64) *float32 {
	return (*float32)(unsafe.Add(p, off))
}

func vec4(p unsafe.Pointer, off int64) *[4]float32 {
	return (*[4]float32)(unsafe.Add(p, off))
}

// execUops interprets one basic block's micro-ops. No per-access bounds
// checks — see the package contract at the top of this file.
func execUops(e *Env, c *code) {
	vp := e.vp
	fm := c.fm
	for i := range c.body {
		u := &c.body[i]
		switch u.kind {
		case uAffine4:
			execRegion(e, c.aff[u.a])
		case uFmlaRun4:
			// Consecutive entries usually share the full-vector
			// multiplicand (one B vector against MR accumulator rows),
			// so it is reloaded only when it changes. Scalar locals, not
			// a [4]float32: Go keeps arrays longer than one on the stack.
			lastA := int32(-1)
			var a0, a1, a2, a3 float32
			for j := u.a; j < u.b; j++ {
				f := &fm[j]
				if f.a != lastA {
					av := vec4(vp, int64(f.a))
					a0, a1, a2, a3 = av[0], av[1], av[2], av[3]
					lastA = f.a
				}
				s := *f32(vp, int64(f.b))
				d := vec4(vp, int64(f.d))
				d[0] += a0 * s
				d[1] += a1 * s
				d[2] += a2 * s
				d[3] += a3 * s
			}
		case uLdrQ4:
			ad := e.x[u.a] + u.imm
			*vec4(vp, int64(u.d)*4) = *vec4(e.bank[u.bank], ad)
		case uLdrQPost4:
			ad := e.x[u.a]
			e.x[u.a] = ad + u.imm
			*vec4(vp, int64(u.d)*4) = *vec4(e.bank[u.bank], ad)
		case uStrQ4:
			ad := e.x[u.a] + u.imm
			*vec4(e.bank[u.bank], ad) = *vec4(vp, int64(u.d)*4)
		case uStrQPost4:
			ad := e.x[u.a]
			e.x[u.a] = ad + u.imm
			*vec4(e.bank[u.bank], ad) = *vec4(vp, int64(u.d)*4)
		case uFmla4:
			s := *f32(vp, int64(u.b)*4)
			d := vec4(vp, int64(u.d)*4)
			a := vec4(vp, int64(u.a)*4)
			d[0] += a[0] * s
			d[1] += a[1] * s
			d[2] += a[2] * s
			d[3] += a[3] * s
		case uVZero4:
			*vec4(vp, int64(u.d)*4) = [4]float32{}
		case uMov:
			e.x[u.d] = e.x[u.a]
		case uMovI:
			e.x[u.d] = u.imm
		case uLsl:
			e.x[u.d] = e.x[u.a] << uint64(u.imm)
		case uAdd:
			e.x[u.d] = e.x[u.a] + e.x[u.b]
		case uAddI:
			e.x[u.d] = e.x[u.a] + u.imm
		case uSubI:
			e.x[u.d] = e.x[u.a] - u.imm
		case uSubs:
			v := e.x[u.a] - u.imm
			e.x[u.d] = v
			e.z = v == 0
		case uCmpI:
			e.z = e.x[u.a]-u.imm == 0
		case uFmlaRunN:
			ln := int64(u.lanes)
			for j := u.a; j < u.b; j++ {
				f := &fm[j]
				s := *f32(vp, int64(f.b))
				for l := int64(0); l < ln; l++ {
					*f32(vp, int64(f.d)+l*4) += *f32(vp, int64(f.a)+l*4) * s
				}
			}
		case uFmlaN:
			s := *f32(vp, int64(u.b)*4)
			d, a, ln := int64(u.d)*4, int64(u.a)*4, int64(u.lanes)
			for l := int64(0); l < ln; l++ {
				*f32(vp, d+l*4) += *f32(vp, a+l*4) * s
			}
		case uLdrQN:
			ad := e.x[u.a] + u.imm
			ln := int(u.lanes)
			copy(e.v[u.d:int(u.d)+ln], unsafe.Slice(f32(e.bank[u.bank], ad), ln))
		case uLdrQPostN:
			ad := e.x[u.a]
			e.x[u.a] = ad + u.imm
			ln := int(u.lanes)
			copy(e.v[u.d:int(u.d)+ln], unsafe.Slice(f32(e.bank[u.bank], ad), ln))
		case uStrQN:
			ad := e.x[u.a] + u.imm
			ln := int(u.lanes)
			copy(unsafe.Slice(f32(e.bank[u.bank], ad), ln), e.v[u.d:int(u.d)+ln])
		case uStrQPostN:
			ad := e.x[u.a]
			e.x[u.a] = ad + u.imm
			ln := int(u.lanes)
			copy(unsafe.Slice(f32(e.bank[u.bank], ad), ln), e.v[u.d:int(u.d)+ln])
		case uVZeroN:
			d, ln := int(u.d), int(u.lanes)
			for l := 0; l < ln; l++ {
				e.v[d+l] = 0
			}
		case uWhilelt:
			idx, limit := e.x[u.a], e.x[u.b]
			d, ln := int(u.d), int(u.lanes)
			for l := 0; l < ln; l++ {
				e.p[d+l] = idx+int64(l) < limit
			}
		case uPTrue:
			d, ln := int(u.d), int(u.lanes)
			for l := 0; l < ln; l++ {
				e.p[d+l] = true
			}
		case uLd1W:
			ad := e.x[u.a] + u.imm
			d, p0, ln := int(u.d), int(u.b), int(u.lanes)
			for l := 0; l < ln; l++ {
				if e.p[p0+l] {
					e.v[d+l] = *f32(e.bank[u.bank], ad+int64(l)*4)
				} else {
					e.v[d+l] = 0 // SVE zeroing load
				}
			}
		case uSt1W:
			ad := e.x[u.a] + u.imm
			d, p0, ln := int(u.d), int(u.b), int(u.lanes)
			for l := 0; l < ln; l++ {
				if e.p[p0+l] {
					*f32(e.bank[u.bank], ad+int64(l)*4) = e.v[d+l]
				}
			}
		}
	}
}

// execRegion runs one affine region (affine.go): it evaluates the
// region's forms from the x registers at entry, sets up the
// accumulators, runs the strided loops, and leaves the interpreter's
// exit state in the register files.
func execRegion(e *Env, r *region) {
	vals := &e.vals
	x := &e.x
	forms := r.forms
	for i := range forms {
		f := &forms[i]
		vals[uint8(i)] = f.k0*x[f.r0&31] + f.k1*x[f.r1&31]
	}
	vp := e.vp
	g := &e.grp
	groups := r.groups
	for i := range groups {
		rg := &groups[i]
		g.a = unsafe.Add(e.bank[rg.abank], vals[rg.a.f]+rg.a.off)
		g.sa, g.n, g.k = vals[rg.sa.f]+rg.sa.off, rg.n, int64(rg.k)
		for j := 0; j < rg.k; j++ {
			ac := &rg.acc[j]
			d := unsafe.Add(vp, ac.d)
			g.d[j], g.s[j] = d, d
			switch ac.init {
			case verZero:
				g.s[j] = unsafe.Pointer(&zeroVec)
			case verLoad:
				g.s[j] = unsafe.Add(e.bank[ac.ibank], vals[ac.iat.f]+ac.iat.off)
			}
			g.b[j] = unsafe.Add(e.bank[ac.bbank], vals[ac.b.f]+ac.b.off)
			g.sb[j] = vals[ac.sb.f] + ac.sb.off
		}
		runAffine(g)
	}
	final := r.final
	for i := range final {
		s := &final[i]
		if s.zero {
			*vec4(vp, int64(s.d)) = [4]float32{}
		} else {
			*vec4(vp, int64(s.d)) = *vec4(e.bank[s.bank], vals[s.at.f]+s.at.off)
		}
	}
	for _, s := range r.xs {
		x[s.r&31] = vals[s.at.f] + s.at.off
	}
	if r.setZ {
		e.z = vals[r.z.f]+r.z.off == 0
	}
}

// affineGroup is one strided loop with its operands resolved for a run:
// k accumulators (1, 2 or 4), accumulator i starting from the 4 floats
// at s[i], adding a_j · b[i]_j for j < n and ending at d[i] in the
// vector file. Step j's multiplicand is the 4 floats at a + j·sa and its
// by-element scalar the float at b[i] + j·sb[i]. The layout is fixed:
// affine_amd64.s reads it by offset.
type affineGroup struct {
	a  unsafe.Pointer
	sa int64
	n  int64
	k  int64
	d  [4]unsafe.Pointer
	b  [4]unsafe.Pointer
	sb [4]int64
	s  [4]unsafe.Pointer
}

// zeroVec is the set-up value of an accumulator zeroed before its first
// FMLA.
var zeroVec [4]float32

// runAffine runs one strided loop. It is the portable execAffine unless
// the GOARCH has a packed loop: affine_amd64.go installs execAffineSSE
// at init, and nothing else reassigns it.
var runAffine = execAffine

// execAffine is the reference strided loop and the executor on every
// GOARCH without a packed one. Each accumulator runs on its own, held in
// scalar locals from its first multiply-add to its last; accumulators
// never read each other, so the order between them is free.
func execAffine(g *affineGroup) {
	for i := int64(0); i < g.k; i++ {
		in := (*[4]float32)(g.s[i])
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		for j := int64(0); j < g.n; j++ {
			a := vec4(g.a, j*g.sa)
			s := *f32(g.b[i], j*g.sb[i])
			x0 += a[0] * s
			x1 += a[1] * s
			x2 += a[2] * s
			x3 += a[3] * s
		}
		d := (*[4]float32)(g.d[i])
		d[0], d[1], d[2], d[3] = x0, x1, x2, x3
	}
}
