package compile

import (
	"cmp"
	"slices"

	"autogemm/internal/asm"
	"autogemm/internal/asm/analysis"
)

// Affine regions: run each kernel tile's whole k-loop as one
// register-tile loop over the operand panels.
//
// The kernels keep the m_r×n_r accumulator tile in registers for the
// whole k-loop while A and B stream past at constant strides. translate
// recovers that form from a 4-lane program's store-free regions. A
// region is a maximal store-free run of micro-ops; it may span counted
// loops whose body holds no store, so a tile's prologue, whole k-loop
// and epilogue FMLAs form one region.
//
// The analyzer has already proven the address half: every load's panel
// position on trip t of its loop is pos + t·step (Report.Accesses), and
// every loop's trip count is exact. What the walk below proves is the
// vector half (buildRegion). Each vector register holds its producer: a
// load at a known position, a zeroing, an accumulator, or the live-in
// value. A region is proven when:
//
//   - it holds only 4-lane loads, zeroings and FMLAs, and an FMLA;
//   - no accumulator (an FMLA destination) is read as an FMLA source;
//   - no accumulator is loaded or zeroed after its first FMLA;
//   - every FMLA operand traces to the load that produced its version;
//   - for each accumulator, the multiplicand positions, and the
//     by-element scalar positions (load position + 4·lane bytes), each
//     form one arithmetic progression over its whole FMLA sequence.
//
// Positions are (row, col) pairs: row leading dimensions plus col bytes
// past the panel base, so a progression proven on pairs holds for every
// leading dimension. Loops cost O(body), not O(trips). An FMLA operand's
// producer in a loop body is an earlier load in the same trip; or the
// body's last writer of the register on the previous trip, which at
// t = 0 must be the pre-loop load at pos − step; or, for a register the
// body never writes, the pre-loop load itself (step 0). An accumulator
// with m FMLAs per trip at positions base_i + t·step_i is one
// progression of stride s when base_i = base_0 + i·s and every
// step_i = m·s.
//
// A proven region lowers to its register tile (lower). The rows are the
// distinct scalar progressions (A rows), the columns the distinct
// multiplicand progressions (B vectors) sorted by column. The grid is
// complete and contiguous when every row shares one bank and stride,
// every column shares one bank and stride and starts 16 bytes after the
// one before, and exactly one accumulator sits at each (row, column). A
// generated kernel's region is always such a grid, its whole
// m_r × n_r/σ accumulator tile. Any other region lowers to one 1×1 tile
// per accumulator, so a tile is the only lowered shape. The grid is then
// cut into chunks that fit the register budget (maxTileRows,
// maxTileCols), split as evenly as possible.
//
// A region also takes in the C traffic around it (foldC), so that a
// chunk runs as the paper's whole micro-kernel: prologue, k-loop and
// epilogue. Before it, the C loads and zeroings of its live-in
// accumulators that nothing reads in between (a fused band sets up tile
// j+1's accumulators while it stores tile j's); after it, up to the
// next region, the C stores of its accumulators. A folded load or
// zeroing becomes its accumulator's set-up, and folded stores make each
// chunk store its accumulators to C. Folding moves a set-up later and a
// store earlier, past the loose C loads, C stores and zeroings it
// crosses. That is sound when the two touch different registers and
// different bytes, and bytes are decided on positions alone because
// a Layout refuses ldc < NR when MR > 1: C accesses stay inside
// columns [0, NR) (the analyzer's bounds pass), so accesses on different
// rows never share a byte, and accesses on one row overlap only when
// their columns are less than 16 bytes apart. A region folds its stores
// all or none, and only when each chunk's stores form a C grid (row
// offsets, columns 16 bytes apart), no two overlap, no chunk reads an
// operand from C, and no later chunk's set-up reads C where an earlier
// chunk stored, since a chunk stores before the next one runs.
//
// Lowering is all or nothing (tileProgram). When every micro-op is a
// proven region's or folded into one, and every chunk sets up its
// accumulators from its C tile or as zeros, the program is a tile
// program: its regions' chunks in order, each run once through runTile,
// which sets the chunk up, runs the whole k-loop and stores to C. Like
// the paper's micro-kernel it leaves nothing else behind: it never reads
// or writes the vector file. Any other 4-lane program lowers whole to
// loose micro-ops, as every wider program does, and leaves the
// interpreter's exit vector file. Every generated 4-lane kernel is a
// tile program (TestLoweringCensus).
//
// Bit-identity with sim.Machine holds because each accumulator still
// receives the same multiply-adds, with the same operand values, in the
// same order. The values are read from the positions the replaced loads
// read: those are proven in bounds by the analyzer plus the layout's
// reach check and 4-byte aligned by the analyzer, and the region's only
// stores are its chunks' folded C stores, which no operand read and no
// later chunk's set-up overlaps, so memory cannot change under a read. Accumulators
// are never sources and are set up before their first multiply-add, so
// no FMLA observes another accumulator's partial sum.

// pos is a panel position: row leading dimensions plus col bytes past a
// panel's base, or, as a stride, the difference of two.
type pos struct{ row, col int64 }

func (p pos) add(q pos) pos         { return pos{p.row + q.row, p.col + q.col} }
func (p pos) sub(q pos) pos         { return pos{p.row - q.row, p.col - q.col} }
func (p pos) scale(m int64) pos     { return pos{p.row * m, p.col * m} }
func (p pos) at(t int64, d pos) pos { return p.add(d.scale(t)) }

// bytes resolves p against a leading dimension of ld bytes.
func (p pos) bytes(ld int64) int64 { return p.row*ld + p.col }

// Producer kinds of a vector register's current version.
const (
	verLive = uint8(iota) // the value at region entry
	verZero
	verLoad
	verAcc // an FMLA destination
)

// ver is a vector register's producer; for verLoad, the bank and
// position of the load.
type ver struct {
	kind uint8
	bank uint8
	addr pos
}

// prog is an arithmetic progression of positions in one bank:
// start + j·stride for j < n. stride is zero until n ≥ 2.
type prog struct {
	bank          uint8
	start, stride pos
	n             int64
}

// extend appends the run start' + j·stride' (j < count) and reports
// whether p is still one progression.
func (p *prog) extend(bank uint8, start, stride pos, count int64) bool {
	if count == 1 {
		stride = pos{}
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
	} else if start != p.start.at(p.n, p.stride) {
		return false
	}
	if count > 1 && stride != p.stride {
		return false
	}
	p.n += count
	return true
}

// buffers are the walk's slices, which one translate reuses across its
// regions.
type buffers struct {
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
	base, stride pos
	m            int64
}

// walk is the state of buildRegion's symbolic walk.
type walk struct {
	sc *buffers
	v  [asm.NumVectorRegs]ver

	acc  [asm.NumVectorRegs]bool // FMLA destinations of the region
	slot [asm.NumVectorRegs]int8 // 1 + the index in accs once fed
	accs []accState              // accumulators by first FMLA
}

// accState is one accumulator's walk: its version at its first FMLA and
// its multiplicand and scalar position progressions.
type accState struct {
	d          int32
	init       ver
	mult, scal prog
}

// region is the lowered form of a proven affine region: its chunks,
// which a tile program runs in order.
type region struct {
	chunks []chunk // the register-tile loops
	// grid is the accumulators' rows × columns before chunking; 1×1 when
	// they form no complete contiguous grid.
	grid [2]int
	// store is set when the region folded the C stores of its
	// accumulators: each chunk stores its tile to C at c.
	store bool
}

// chunk is one register-tile loop: rows × cols accumulators for n
// steps. Row i's step-j scalar is at a + off[i] + j·sa of bank abank;
// column c's step-j multiplicand is the 16 bytes at b + 16c + j·sb of
// bank bbank. The accumulator of row i, column c is C's 16 bytes at
// c[i] + 16c when the chunk loads (init tileC) or stores its C tile.
type chunk struct {
	n            int64
	rows, cols   int64
	abank, bbank uint8
	a, sa        pos
	off          [maxTileRows]pos
	b, sb        pos
	init         uint8 // tileZero or tileC, once settled
	c            [maxTileRows]pos
	acc          []accum // row-major: acc[i·cols + c] is row i, column c
}

// accum is one accumulator of a chunk: vector register d (a byte offset
// into the vector file), set up from its live-in value, a zero, or the
// 16 bytes at iat of bank ibank (init is verLive, verZero or verLoad);
// sat is where its folded C store puts it.
type accum struct {
	d     int32
	init  uint8
	ibank uint8
	iat   pos
	sat   pos
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

// buildRegion proves one store-free region and returns its lowered
// form, or nil when it holds no FMLA or is not proven. body is the
// region's micro-ops; loops are its counted loops of two or more trips
// in order, disjoint and inside body. sc lends the walk its buffers.
func buildRegion(sc *buffers, body []uop, loops []span) *region {
	w := &walk{sc: sc}
	nacc := 0
	for _, u := range body {
		if u.lanes != 4 {
			return nil
		}
		switch u.kind {
		case uFmlaN:
			if !w.acc[u.d/4] {
				nacc++
			}
			w.acc[u.d/4] = true
		case uLoadN, uVZeroN:
		default:
			return nil
		}
	}
	if nacc == 0 {
		return nil
	}
	w.accs = make([]accState, 0, nacc)
	for _, u := range body {
		if u.kind == uFmlaN && (w.acc[u.a/4] || w.acc[u.b/4]) {
			return nil
		}
	}
	li := 0
	for i := 0; i < len(body); {
		if li < len(loops) && loops[li].lo == i {
			l := loops[li]
			if !w.loop(body[l.lo:l.hi], l.trips) {
				return nil
			}
			li++
			i = l.hi
			continue
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
	switch u.kind {
	case uLoadN:
		return w.write(u.d/4, ver{kind: verLoad, bank: u.bank, addr: u.pos()})
	case uVZeroN:
		return w.write(u.d/4, ver{kind: verZero})
	}
	d, a, b := u.d/4, u.a/4, u.b/4
	ac := w.fed(d)
	ma, sb := w.v[a], w.v[b]
	if ma.kind != verLoad || sb.kind != verLoad {
		return false
	}
	if !ac.mult.extend(ma.bank, ma.addr, pos{}, 1) ||
		!ac.scal.extend(sb.bank, sb.addr.add(pos{col: int64(u.b%4) * 4}), pos{}, 1) {
		return false
	}
	w.v[d] = ver{kind: verAcc}
	return true
}

// operand is an FMLA operand inside a loop body: the position it reads
// on trip t is base + t·step.
type operand struct {
	bank       uint8
	base, step pos
}

// fold merges the m operands one accumulator reads per trip, in body
// order, into one progression: base_i = base_0 + i·s and every
// step_i = m·s, so that element t·m + i is trip t's operand i. It runs
// incrementally, one operand at a time.
type fold struct {
	m          int64
	bank       uint8
	base, prev pos
	s, step    pos
	bad        bool
}

func (f *fold) add(o operand) {
	switch {
	case f.m == 0:
		f.bank, f.base, f.prev, f.step = o.bank, o.base, o.base, o.step
	case o.bank != f.bank || o.step != f.step:
		f.bad = true
	case f.m == 1:
		f.s = o.base.sub(f.base)
	case o.base.sub(f.prev) != f.s:
		f.bad = true
	}
	f.prev = o.base
	f.m++
}

// stride returns the progression's stride, or false when the operands
// are not one progression.
func (f *fold) stride() (pos, bool) {
	if f.m == 1 {
		return f.step, !f.bad
	}
	return f.s, !f.bad && f.step == f.s.scale(f.m)
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
	loads := w.sc.loads[:0]
	nfmla := 0
	for i := range body {
		u := &body[i]
		switch u.kind {
		case uFmlaN:
			writer[u.d/4] = nonLoad
			nfed[u.d/4]++
			nfmla++
		case uVZeroN:
			writer[u.d/4] = nonLoad
			set[u.d/4] = true
		case uLoadN:
			writer[u.d/4] = len(loads)
			set[u.d/4] = true
			loads = append(loads, operand{bank: u.bank, base: u.pos(), step: u.step()})
		}
	}
	w.sc.loads = loads
	nloads := len(loads)
	for r := range set {
		if set[r] && (nfed[r] > 0 || w.slot[r] != 0) {
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
		carried[r], carriedOK[r] = o, pre.kind == verLoad && pre.bank == o.bank && pre.addr == o.base
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
		case uLoadN:
			cur[u.d/4] = n
			n++
		case uVZeroN:
			cur[u.d/4] = nonLoad
		case uFmlaN:
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
			o.base = o.base.add(pos{col: int64(lane) * 4})
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

	// The exit state: each register's last version.
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
	return true
}

// lower turns a proven walk into the region's lowered form.
func (w *walk) lower() *region {
	r := &region{}
	if rows, cols, at := w.grid(); at != nil {
		r.grid = [2]int{len(rows), len(cols)}
		r.chunks = w.cut(nil, rows, cols, at)
	} else {
		r.grid = [2]int{1, 1}
		for i := range w.accs {
			ac := &w.accs[i]
			r.chunks = w.cut(r.chunks, []prog{ac.scal}, []prog{ac.mult}, []int{i})
		}
	}
	return r
}

// grid arranges the accumulators as a register tile: rows are the
// distinct scalar progressions in first-FMLA order, columns the
// distinct multiplicand progressions sorted by column, and
// at[i·len(cols) + c] is the index in accs of the accumulator at row i,
// column c. at is nil unless the grid is complete and contiguous.
func (w *walk) grid() (rows, cols []prog, at []int) {
	for i := range w.accs {
		ac := &w.accs[i]
		if !slices.Contains(rows, ac.scal) {
			rows = append(rows, ac.scal)
		}
		if !slices.Contains(cols, ac.mult) {
			cols = append(cols, ac.mult)
		}
	}
	slices.SortFunc(cols, func(p, q prog) int { return cmp.Compare(p.start.col, q.start.col) })
	if len(rows)*len(cols) != len(w.accs) {
		return nil, nil, nil
	}
	r0, c0 := rows[0], cols[0]
	for _, r := range rows {
		if r.bank != r0.bank || r.stride != r0.stride || r.n != c0.n {
			return nil, nil, nil
		}
	}
	for c, m := range cols {
		if m.bank != c0.bank || m.stride != c0.stride || m.n != c0.n ||
			m.start != c0.start.add(pos{col: 16 * int64(c)}) {
			return nil, nil, nil
		}
	}
	at = make([]int, len(w.accs))
	for i := range at {
		at[i] = -1
	}
	for i := range w.accs {
		ac := &w.accs[i]
		k := slices.Index(rows, ac.scal)*len(cols) + slices.Index(cols, ac.mult)
		if at[k] >= 0 {
			return nil, nil, nil
		}
		at[k] = i
	}
	return rows, cols, at
}

// cut splits a complete contiguous grid into chunks that fit the
// register budget, as evenly as possible, and appends them to chunks.
// at is as grid returns it.
func (w *walk) cut(chunks []chunk, rows, cols []prog, at []int) []chunk {
	nr, nc := int64(len(rows)), int64(len(cols))
	pr := (nr + maxTileRows - 1) / maxTileRows
	wc := maxTileCols(nr)
	pc := (nc + wc - 1) / wc
	for ci := int64(0); ci < pc; ci++ {
		c0, c1 := ci*nc/pc, (ci+1)*nc/pc
		for ri := int64(0); ri < pr; ri++ {
			r0, r1 := ri*nr/pr, (ri+1)*nr/pr
			a, b := &rows[r0], &cols[c0]
			ch := chunk{n: b.n, rows: r1 - r0, cols: c1 - c0,
				abank: a.bank, a: a.start, sa: a.stride,
				bbank: b.bank, b: b.start, sb: b.stride,
				acc: make([]accum, 0, (r1-r0)*(c1-c0))}
			for i := r0; i < r1; i++ {
				ch.off[i-r0] = rows[i].start.sub(a.start)
				for c := c0; c < c1; c++ {
					ac := &w.accs[at[i*nc+c]]
					in := ac.init
					ch.acc = append(ch.acc, accum{d: ac.d * 16, init: in.kind, ibank: in.bank, iat: in.addr})
				}
			}
			chunks = append(chunks, ch)
		}
	}
	return chunks
}

// How a chunk sets up its accumulators (chunk.init, tile.init).
const (
	tileZero = iota
	tileC    // from its C tile
)

// bankC is the C panel's bank.
const bankC = uint8(analysis.BankC)

// foldC folds each proven region's C traffic into it and returns the
// micro-ops folded away. regions are in program order. The
// micro-ops it may fold or cross are loose: 4-lane C loads and stores
// and zeroings, outside every multi-trip loop. The gap between two
// regions first gives the earlier region its stores, scanning on from
// its end, then the later one its set-up, scanning back from its start;
// each scan stops at the first micro-op that is not loose.
func foldC(ops []uop, loops []span, regions []keptRegion) []bool {
	loose := make([]bool, len(ops))
	for i := range ops {
		u := &ops[i]
		loose[i] = u.lanes == 4 && ((u.kind == uLoadN || u.kind == uStoreN) && u.bank == bankC || u.kind == uVZeroN)
	}
	for _, l := range loops {
		clear(loose[l.lo:l.hi])
	}
	drop := make([]bool, len(ops))
	lo := 0
	for k := 0; k <= len(regions); k++ {
		hi := len(ops)
		if k < len(regions) {
			hi = regions[k].start
		}
		if k > 0 {
			foldStores(ops[lo:hi], loose[lo:hi], drop[lo:hi], regions[k-1].r)
		}
		if k < len(regions) {
			foldLoads(ops[lo:hi], loose[lo:hi], drop[lo:hi], regions[k].r)
			lo = regions[k].end
		}
	}
	return drop
}

// foldStores folds into r the stores of its accumulators among gap, the
// micro-ops after it: all of them or none. A store folds ahead of every
// micro-op before it that stays, so it must commute with each.
func foldStores(gap []uop, loose, drop []bool, r *region) {
	var fold []int
	var seen [asm.NumVectorRegs]bool
	for i := 0; i < len(gap) && loose[i]; i++ {
		u := &gap[i]
		ac := r.accOf(u.d * 4)
		if u.kind != uStoreN || ac == nil || seen[u.d/4] || !commutesWith(u, gap[:i], drop[:i]) {
			continue
		}
		seen[u.d/4] = true
		ac.sat = u.pos()
		drop[i] = true
		fold = append(fold, i)
	}
	if !r.storable(len(fold)) {
		for _, i := range fold {
			drop[i] = false
		}
		return
	}
	r.store = true
}

// foldLoads folds into r the loads and zeroings of its live-in
// accumulators among gap, the micro-ops before it. Each folds behind
// every micro-op after it that stays, so it must commute with each;
// that includes the stores folded into the region before, which now
// run ahead of it.
func foldLoads(gap []uop, loose, drop []bool, r *region) {
	folded := make([]bool, len(gap))
	for i := len(gap) - 1; i >= 0 && loose[i]; i-- {
		u := &gap[i]
		ac := r.accOf(u.d * 4)
		if u.kind == uStoreN || ac == nil || ac.init != verLive || !commutesWith(u, gap[i+1:], folded[i+1:]) {
			continue
		}
		if u.kind == uVZeroN {
			ac.init = verZero
		} else {
			ac.init, ac.ibank, ac.iat = verLoad, u.bank, u.pos()
		}
		drop[i], folded[i] = true, true
	}
}

// commutesWith reports whether loose micro-op u commutes with every
// micro-op of ops not marked skip.
func commutesWith(u *uop, ops []uop, skip []bool) bool {
	for j := range ops {
		if !skip[j] && !commute(u, &ops[j]) {
			return false
		}
	}
	return true
}

// commute reports whether two loose micro-ops can swap: a load or
// zeroing writes its register, so it conflicts with any other use of
// it, and a store conflicts with any C access to bytes it writes.
func commute(x, y *uop) bool {
	if x.d == y.d && (x.kind != uStoreN || y.kind != uStoreN) {
		return false
	}
	if x.kind == uVZeroN || y.kind == uVZeroN || x.kind == uLoadN && y.kind == uLoadN {
		return true
	}
	return !overlap(x.pos(), y.pos())
}

// overlap reports whether the 16-byte C accesses at p and q share a
// byte, given the layout's rule that C rows are disjoint.
func overlap(p, q pos) bool {
	return p.row == q.row && p.col-q.col < 16 && q.col-p.col < 16
}

// accOf returns the region's accumulator held in vector register d (a
// byte offset into the vector file), or nil.
func (r *region) accOf(d int32) *accum {
	for i := range r.chunks {
		for j := range r.chunks[i].acc {
			if ac := &r.chunks[i].acc[j]; ac.d == d {
				return ac
			}
		}
	}
	return nil
}

// storable reports whether the region can own its C stores, given n
// folded stores recorded in the accumulators' sat: the conditions
// the comment at the top of this file lists.
func (r *region) storable(n int) bool {
	var stores []pos
	for i := range r.chunks {
		ch := &r.chunks[i]
		if ch.abank == bankC || ch.bbank == bankC {
			return false
		}
		if _, ok := ch.cRows(func(ac *accum) (pos, bool) { return ac.sat, true }); !ok {
			return false
		}
		// This chunk's set-up reads C after every earlier chunk stored.
		for _, ac := range ch.acc {
			if ac.init == verLoad && ac.ibank == bankC && overlapsAny(ac.iat, stores) {
				return false
			}
		}
		for _, ac := range ch.acc {
			if overlapsAny(ac.sat, stores) {
				return false
			}
			stores = append(stores, ac.sat)
		}
	}
	return n == len(stores)
}

// overlapsAny reports whether the C access at p overlaps any at qs.
func overlapsAny(p pos, qs []pos) bool {
	for _, q := range qs {
		if overlap(p, q) {
			return true
		}
	}
	return false
}

// settle decides how each chunk sets up its accumulators, once the
// region's C traffic is folded in, and where its C tile is. It reports
// whether every chunk sets up from its C tile or as zeros, as a tile
// program's must.
func (r *region) settle() bool {
	for i := range r.chunks {
		ch := &r.chunks[i]
		fromC, okC := ch.cRows(func(ac *accum) (pos, bool) {
			return ac.iat, ac.init == verLoad && ac.ibank == bankC && (!r.store || ac.iat == ac.sat)
		})
		zero := true
		for _, ac := range ch.acc {
			zero = zero && ac.init == verZero
		}
		switch {
		case zero:
			ch.init = tileZero
		case okC:
			ch.init, ch.c = tileC, fromC
		default:
			return false
		}
		if r.store {
			ch.c, _ = ch.cRows(func(ac *accum) (pos, bool) { return ac.sat, true })
		}
	}
	return true
}

// cRows returns the chunk's C row positions when at, which may refuse
// an accumulator, places the accumulator of row i, column c at row i's
// position plus 16c bytes.
func (ch *chunk) cRows(at func(*accum) (pos, bool)) (rows [maxTileRows]pos, ok bool) {
	for j := range ch.acc {
		p, ok := at(&ch.acc[j])
		if !ok {
			return rows, false
		}
		i, c := int64(j)/ch.cols, int64(j)%ch.cols
		if c == 0 {
			rows[i] = p
		} else if p != rows[i].add(pos{col: 16 * c}) {
			return rows, false
		}
	}
	return rows, true
}

// grow returns (*buf)[:n], reallocating the buffer when it is short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}
