package compile

import (
	"unsafe"

	"autogemm/internal/asm"
)

// Micro-ops: the pre-decoded form segments execute. Operand fields are
// flat indices into the vector file (pre-multiplied by σ_lane), memory
// kinds carry their proven operand bank and panel position, and the
// 4-lane NEON cases are specialized so the hot path is straight stores
// with no inner loop.
//
// The executor addresses the vector file and operand panels through raw
// pointers (unsafe.Add) rather than checked slice indexing. That is not
// an optimization taken on faith — it is the point of the package:
//   - register-file offsets are validated once at translate time
//     (decode) against the architectural register classes;
//   - panel offsets are covered by the analyzer's affine bounds and
//     alignment proof (Compile refuses anything unproven) combined with
//     Run's Precheck of the concrete panel extents.
//
// The interpreter (sim.Machine) remains the checked reference; the
// differential suite and fuzz target hold the two bit-identical.
const (
	uLoad4 = uint8(iota)
	uLoadN
	uStore4
	uStoreN
	uFmla4
	uFmlaN
	uVZero4
	uVZeroN
	uFmlaRun4 // [a,b) of the segment's fmla table, 4-lane specialization
	uFmlaRunN
	uAffine4 // the segment's affine region a (affine.go)
)

// uop is one micro-op. A memory op moves lanes floats between vector
// element d and, on trip t of its segment, the bytes at
// (row + t·drow)·ld + col + t·dcol past the base of panel bank: the
// analyzer's Access for the instruction. A load zeroes the lanes past
// lanes (SVE's zeroing predicated load); a store leaves them alone.
type uop struct {
	kind                 uint8
	bank                 uint8
	d                    int32 // destination or data element offset, or a table index
	a                    int32 // first source offset or table index
	b                    int32 // second source offset or table index
	lanes                int32
	row, col, drow, dcol int32
}

// at returns the byte offset a memory op addresses on trip t, past its
// panel's base.
func (u *uop) at(e *Env, t int64) int64 {
	return (int64(u.row)+t*int64(u.drow))*e.ld[u.bank] + int64(u.col) + t*int64(u.dcol)
}

// pos returns a memory op's trip-0 position, and step its per-trip step.
func (u *uop) pos() pos  { return pos{int64(u.row), int64(u.col)} }
func (u *uop) step() pos { return pos{int64(u.drow), int64(u.dcol)} }

// fmla is one entry of a fused FMLA run: byte offsets into the vector
// file of the accumulator (d), full-vector multiplicand (a) and
// by-element scalar (b).
type fmla struct {
	d, a, b int32
}

// code is one segment's executable form: its micro-ops, the FMLA table
// its run micro-ops index, and the affine regions its uAffine4 micro-ops
// run.
type code struct {
	body []uop
	fm   []fmla
	aff  []*region
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

// execUops runs trip t of one segment's micro-ops. No per-access bounds
// checks — see the package contract at the top of this file.
func execUops(e *Env, c *code, t int64) {
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
		case uLoad4:
			*vec4(vp, int64(u.d)*4) = *vec4(e.base[u.bank], u.at(e, t))
		case uStore4:
			*vec4(e.base[u.bank], u.at(e, t)) = *vec4(vp, int64(u.d)*4)
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
		case uLoadN:
			d, n := int(u.d), int(u.lanes)
			copy(e.v[d:d+n], unsafe.Slice(f32(e.base[u.bank], u.at(e, t)), n))
			if n < e.lanes {
				clear(e.v[d+n : d+e.lanes])
			}
		case uStoreN:
			d, n := int(u.d), int(u.lanes)
			copy(unsafe.Slice(f32(e.base[u.bank], u.at(e, t)), n), e.v[d:d+n])
		case uVZeroN:
			d := int(u.d)
			clear(e.v[d : d+int(u.lanes)])
		}
	}
}

// execRegion runs one affine region (affine.go): the final reloads and
// zeroings that leave the interpreter's exit vector file, then each
// chunk, at the offsets the Run's layout resolved, through runTile,
// after staging the accumulators of a chunk that does not set them up
// itself.
func execRegion(e *Env, r *region) {
	vp := e.vp
	// The final reloads and zeroings go first: they read what the
	// region's own loads read, ahead of every store the region owns as
	// in program order, and write registers no chunk holds.
	final := r.final
	at := e.lay.final[r.f0:]
	for i := range final {
		s := &final[i]
		if s.zero {
			*vec4(vp, int64(s.d)) = [4]float32{}
		} else {
			*vec4(vp, int64(s.d)) = *vec4(e.base[s.bank], at[i])
		}
	}
	tiles := e.lay.tiles[r.t0:]
	chunks := r.chunks
	for i := range chunks {
		ch := &chunks[i]
		if ch.init == tileStaged {
			for _, ac := range ch.acc {
				switch ac.init {
				case verLive:
					e.acc[ac.slot] = *vec4(vp, int64(ac.d))
				case verZero:
					e.acc[ac.slot] = [4]float32{}
				default:
					e.acc[ac.slot] = *(*[4]float32)(e.at(ac.ibank, ac.iat))
				}
			}
		}
		runTile(e, &tiles[i])
	}
}

// at returns the address of panel position p of bank.
func (e *Env) at(bank uint8, p pos) unsafe.Pointer {
	return unsafe.Add(e.base[bank], p.bytes(e.ld[bank]))
}

// The register budget of a tile chunk: at most maxTileRows rows, and
// at most maxTileCols(rows) multiplicand vectors.
const maxTileRows = 6

// maxTileCols is the widest chunk of rows rows. A row holds its
// accumulators two vectors to a YMM register, so rows × ⌈cols/2⌉
// registers, plus the multiplicand's, a broadcast and a product, must
// fit in 16: five vectors fit only up to four rows (the fifth is read
// from memory).
func maxTileCols(rows int64) int64 {
	if rows <= 4 {
		return 5
	}
	return 4
}

// slot is where the accumulator of row i, column c of a chunk with
// cols columns sits among the tile's registers: its YMM register is row
// i's register c/2, and each register holds two adjacent slots (the
// lower half is the even column). An odd last column fills only the
// lower half.
func slot(i, c, cols int64) int64 {
	return 2*(i*((cols+1)/2)+c/2) + c%2
}

// tileSpill is the vector-file byte offset a tile writes an unused slot
// to: the first register past a 4-lane program's 32, space Env.v holds
// for wider programs and a 4-lane one never reads.
const tileSpill = asm.NumVectorRegs * 16

// tile is one register-tile chunk resolved at one (lda, ldb, ldc): the
// whole kernel of rows × cols accumulators over n steps, with byte
// offsets past the Run's panel bases (Env.base). Step j of row i reads
// the by-element scalar at a + off[i] + j·sa of bank abank, and step j
// of column c the 4-float multiplicand at b + 16c + j·sb of bank bbank.
// The accumulators are set up as init says: from Env.acc by slot, as
// zeros, or from C, where the accumulator of row i, column c is the 16
// bytes at c[i] + 16c; when store is set they go back there at the end.
// Every slot is then written to the vector file at byte offset v[slot].
// The layout is read through go_asm.h by tile_amd64.s.
type tile struct {
	a, sa        int64
	b, sb        int64
	abank, bbank int64
	n            int64
	rows, cols   int64
	init, store  int64
	off          [maxTileRows]int64
	c            [maxTileRows]int64
	v            [2 * 12]int64
}

// resolve returns the chunk's tile at leading dimensions ld, in bytes.
func (ch *chunk) resolve(ld [3]int64, store bool) tile {
	t := tile{
		a: ch.a.bytes(ld[ch.abank]), sa: ch.sa.bytes(ld[ch.abank]),
		b: ch.b.bytes(ld[ch.bbank]), sb: ch.sb.bytes(ld[ch.bbank]),
		abank: int64(ch.abank), bbank: int64(ch.bbank),
		n: ch.n, rows: ch.rows, cols: ch.cols, init: int64(ch.init),
	}
	if store {
		t.store = 1
	}
	for i := int64(0); i < ch.rows; i++ {
		t.off[i] = ch.off[i].bytes(ld[ch.abank])
		t.c[i] = ch.c[i].bytes(ld[bankC])
	}
	for s := range t.v {
		t.v[s] = tileSpill
	}
	for _, ac := range ch.acc {
		t.v[ac.slot] = int64(ac.d)
	}
	return t
}

// runTile runs one tile chunk. It is the portable execTile unless the
// host has a register-tile loop: tile_amd64.go installs tileAVX at init
// when the CPU and OS support AVX, and nothing else reassigns it.
var runTile = execTile

// execTile is the reference tile loop and the executor wherever there
// is no native one. Each accumulator runs on its own, held in scalar
// locals from its first multiply-add to its last; accumulators never
// read each other, so the order between them is free.
func execTile(e *Env, t *tile) {
	var acc [2 * 12][4]float32
	pc := e.base[bankC]
	switch t.init {
	case tileStaged:
		acc = e.acc
	case tileC:
		for i := int64(0); i < t.rows; i++ {
			for c := int64(0); c < t.cols; c++ {
				acc[slot(i, c, t.cols)] = *vec4(pc, t.c[i]+16*c)
			}
		}
	}
	n, sa, sb := t.n, t.sa, t.sb
	pa := unsafe.Add(e.base[t.abank], t.a)
	pb := unsafe.Add(e.base[t.bbank], t.b)
	for i := int64(0); i < t.rows; i++ {
		a := unsafe.Add(pa, t.off[i])
		for c := int64(0); c < t.cols; c++ {
			b := unsafe.Add(pb, 16*c)
			x := &acc[slot(i, c, t.cols)]
			x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
			for j := int64(0); j < n; j++ {
				v := vec4(b, j*sb)
				s := *f32(a, j*sa)
				x0 += v[0] * s
				x1 += v[1] * s
				x2 += v[2] * s
				x3 += v[3] * s
			}
			x[0], x[1], x[2], x[3] = x0, x1, x2, x3
		}
	}
	if t.store != 0 {
		for i := int64(0); i < t.rows; i++ {
			for c := int64(0); c < t.cols; c++ {
				*vec4(pc, t.c[i]+16*c) = acc[slot(i, c, t.cols)]
			}
		}
	}
	for s := range acc {
		*vec4(e.vp, t.v[s]) = acc[s]
	}
}
