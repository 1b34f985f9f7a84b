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
//   - bank offsets are covered by the analyzer's affine bounds proof
//     (Compile refuses anything unproven) combined with Run's Precheck
//     of the concrete panel extents, and the mod-4 alignment proof.
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
	uChain4 // [a,b) of the block's chain table (schedule.go)
	uMov4   // vector copy d ← a: a scheduled region's write-back
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
		case uChain4:
			runChains(vp, c.chains[u.a:u.b], c.steps)
		case uMov4:
			*vec4(vp, int64(u.d)*4) = *vec4(vp, int64(u.a)*4)
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

// runChains executes uChain4 micro-ops. It is the portable execChains
// unless the GOARCH has a packed loop: chains_amd64.go installs
// execChainsSSE at init, and nothing reassigns it afterwards.
var runChains = execChains

// execChains runs a scheduled region's accumulator chains. Each chain's
// one or two accumulators live in scalar locals from its first
// multiply-add to its last and are loaded once per chain. It is the
// reference the packed loops are tested against (chains_amd64_test.go)
// and the executor on every GOARCH without one.
//
// The pair loop writes its accumulators through after every step. The
// stores are never read back inside the loop; they give each step's adds
// an in-block use. Without one, Go's scheduler sinks loop-carried adds to
// the end of the loop body, so all eight products and eight accumulators
// are live at once, which is more than the fifteen allocatable float
// registers on amd64, and the loop spills to the stack on every step.
func execChains(vp unsafe.Pointer, chains []chain, steps []step) {
	for ci := range chains {
		ch := &chains[ci]
		st := steps[ch.lo:ch.hi]
		d := vec4(vp, int64(ch.d1))
		x0, x1, x2, x3 := d[0], d[1], d[2], d[3]
		if ch.d2 < 0 {
			for j := range st {
				s := &st[j]
				a := vec4(vp, int64(s.a))
				b := *f32(vp, int64(s.b1))
				x0 += a[0] * b
				x1 += a[1] * b
				x2 += a[2] * b
				x3 += a[3] * b
			}
		} else {
			d2 := vec4(vp, int64(ch.d2))
			y0, y1, y2, y3 := d2[0], d2[1], d2[2], d2[3]
			for j := range st {
				s := &st[j]
				a := vec4(vp, int64(s.a))
				a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
				b1 := *f32(vp, int64(s.b1))
				b2 := *f32(vp, int64(s.b2))
				x0 += a0 * b1
				x1 += a1 * b1
				x2 += a2 * b1
				x3 += a3 * b1
				y0 += a0 * b2
				y1 += a1 * b2
				y2 += a2 * b2
				y3 += a3 * b2
				d[0], d[1], d[2], d[3] = x0, x1, x2, x3
				d2[0], d2[1], d2[2], d2[3] = y0, y1, y2, y3
			}
			continue
		}
		d[0], d[1], d[2], d[3] = x0, x1, x2, x3
	}
}
