// Package compile lowers validated asm programs into a static schedule,
// register tiles or pre-decoded micro-ops, replacing sim.Machine.Run's
// per-instruction switch on the GEMM hot path.
//
// The contract with the analyzer (internal/asm/analysis) is what makes
// the lowering more than a dispatch trick. Compile only succeeds when
// the symbolic bounds pass proved every load and store of the program
// stays inside the affine panel model and 4-byte aligned, and every loop
// runs an exact trip count (Report.BoundsComplete). The pass also
// records where each access lands (Report.Accesses): its operand panel,
// active lanes, trip-0 row and column, and per-trip step. So the
// compiled form holds no scalar registers, flags or predicates and no
// branches: every access sits at a panel position fixed at translate
// time, and every loop runs a fixed number of trips. A Layout resolves
// the kernel calls of one block at fixed leading dimensions and holds
// the block's reach into each operand; its Run checks that reach once
// per block (Fits) and executes every call with no per-access checkAddr
// at all.
//
// Each program lowers one way (affine.go). A 4-lane program whose every
// micro-op folds into register tiles set up from C or zeros is a tile
// program: it runs as those tiles alone, the paper's micro-kernel with
// C as its whole result, and is held to the exact extents the tiles
// reach, so operands need no slack past what the kernel really reads.
// Any other program runs as loose micro-ops, exactly as the interpreter
// steps it, and is held to the declared extents: the panel shape plus
// the over-read slack the asm kernel's pipelined loads need. Programs
// the analyzer cannot prove are refused — Compile fails with
// ErrUnproven, it never guesses.
package compile

import (
	"errors"
	"fmt"
	"unsafe"

	"autogemm/internal/asm"
	"autogemm/internal/asm/analysis"
)

// MaxLanes bounds σ_lane; 16 covers the 512-bit SVE configuration.
const MaxLanes = 16

// ErrUnproven is wrapped by Compile when the analyzer could not prove the
// program safe for check elision. The caller gets the error; there is no
// slower path to take instead.
var ErrUnproven = errors.New("compile: bounds not proven")

// ErrBounds is wrapped by Layout.Run when a block's reach does not fit
// the operand slices, or its layout is refused. Run refuses such a
// block before any of its calls touches an operand.
var ErrBounds = errors.New("compile: operands fail panel precheck")

// Env is the mutable execution state: the vector register file and the
// three operand panels. It is reusable across Run calls — compiled
// programs are self-initializing (the analyzer's use-before-def pass
// guarantees every register is written before it is read), so no reset
// is needed — and a worker typically keeps one Env per goroutine.
// A Run's contract is C: a tile program never touches the vector file,
// so v may still hold another program's values afterwards, and a loose
// program leaves the interpreter's exit vector file in v.
//
// The vector file is a fixed array (stride = the program's σ_lane)
// rather than per-register slices so micro-ops index flat storage with
// pre-computed offsets.
type Env struct {
	v     [asm.NumVectorRegs * MaxLanes]float32
	lanes int

	// vp points at v (register indices are validated at translate time).
	// base and ld are each operand panel's base (its slice at the panel
	// offset) and leading dimension, in bytes, for the current Run; the
	// accesses through them are covered by the analyzer's bounds proof
	// plus the layout's reach check, and base keeps the slices live for the GC. The
	// register-tile loops read base through go_asm.h.
	vp   unsafe.Pointer
	base [3]unsafe.Pointer
	ld   [3]int64
}

// NewEnv builds an environment for σ_lane-wide programs.
func NewEnv(lanes int) *Env {
	if lanes < 1 || lanes > MaxLanes {
		panic(fmt.Sprintf("compile: lanes %d out of range 1..%d", lanes, MaxLanes))
	}
	e := &Env{lanes: lanes}
	e.vp = unsafe.Pointer(&e.v[0])
	return e
}

// Lanes returns the vector width the environment was built for.
func (e *Env) Lanes() int { return e.lanes }

// Program is a compiled kernel: its static schedule, either a tile
// program's regions or a loose program's segments, run in order.
type Program struct {
	Name   string
	Lanes  int
	Bounds analysis.Bounds

	// regions are a tile program's affine regions in program order, and
	// segs a loose program's segments; the other is empty.
	regions []*region
	segs    []segment

	// iters is the program's taken loop branches, Σ(trips − 1) over its
	// loops: what a Run charges each call against maxLoopIters.
	iters int
	// ext is the program's reach into each operand panel, by bank, that
	// a Layout folds into its block's reach: a tile program's exact
	// extents (exactExtents), a loose program's declared ones.
	ext [3]extent
}

// extent is how far a program reaches past one panel's base: its
// furthest row, and over every row the furthest column end, in float32
// elements. At leading dimension ld every access ends within
// rows·ld + cols elements of the base.
type extent struct{ rows, cols int64 }

func (x extent) at(ld int64) int64 { return x.rows*ld + x.cols }

// cover extends x over an access of n bytes at position p.
func (x *extent) cover(p pos, n int64) {
	x.rows = max(x.rows, p.row)
	x.cols = max(x.cols, (p.col+n+3)/4)
}

// segment is a body of micro-ops run trips times; memory ops address
// trip t of their access.
type segment struct {
	code
	trips int64
}

// Layout is the kernel calls of one block resolved at one (lda, ldb,
// ldc): each call's program and its offsets past the Run's panel bases,
// with a tile program's chunks resolved to byte offsets in run order,
// so a Run only adds the bases. It holds the block's reach into each
// operand, so a Run checks the block once, not each call. It is
// immutable: a block shape's layout is built once and shared between
// goroutines.
type Layout struct {
	ld    [3]int64 // lda, ldb, ldc in float32 elements
	lanes int
	calls []call

	// reach is the block's reach into each operand, A, B and C, in
	// elements past the Run's base offset: the maximum over its calls of
	// the call's offset plus its program's extent at that leading
	// dimension. iters is the largest loop count of any call, and err
	// the refusal that depends on the layout alone.
	reach [3]int64
	iters int
	err   error
}

// call is one kernel call of a layout: its program, its offsets past
// the Run's panel bases in bytes, and a tile program's tiles, shared by
// the layout's calls of one program.
type call struct {
	cp    *Program
	off   [3]int64
	tiles []tile
}

// NewLayout resolves a block's calls at leading dimensions lda, ldb and
// ldc, in float32 elements: call i runs progs[i] with its A, B and C
// panels at offs[i] elements past the Run's base offsets. It computes
// the block's reach into each operand from the programs' extents
// (Program.ext) and records a refusal every Run returns: a negative
// offset or leading dimension, C rows that overlap
// (analysis.Bounds.CRowsDisjoint: the affine regions reorder C loads
// and stores on that rule, foldC in affine.go) or programs of mixed
// lane widths.
func NewLayout(lda, ldb, ldc int64, progs []*Program, offs [][3]int64) *Layout {
	l := &Layout{ld: [3]int64{lda, ldb, ldc}, calls: make([]call, len(progs))}
	ld := [3]int64{lda * 4, ldb * 4, ldc * 4}
	tiles := map[*Program][]tile{}
	for i, cp := range progs {
		off := offs[i]
		ts, ok := tiles[cp]
		if !ok {
			ts = cp.tiles(ld)
			tiles[cp] = ts
		}
		l.calls[i] = call{cp: cp, off: [3]int64{off[0] * 4, off[1] * 4, off[2] * 4}, tiles: ts}
		for k := range l.reach {
			l.reach[k] = max(l.reach[k], off[k]+cp.ext[k].at(l.ld[k]))
		}
		l.iters = max(l.iters, cp.iters)
		b := &cp.Bounds
		switch {
		case l.err != nil:
		case cp.Lanes != progs[0].Lanes:
			l.err = fmt.Errorf("compile: %s: layout mixes %d-lane and %d-lane programs", cp.Name, progs[0].Lanes, cp.Lanes)
		case min(off[0], off[1], off[2], lda, ldb, ldc) < 0:
			l.err = fmt.Errorf("%w: %s: negative offset or leading dimension", ErrBounds, cp.Name)
		case !b.CRowsDisjoint(ldc):
			l.err = fmt.Errorf("%w: %s: C rows overlap: ldc %d < NR %d with %d rows", ErrBounds, cp.Name, ldc, b.NR, b.MR)
		}
	}
	if len(progs) > 0 {
		l.lanes = progs[0].Lanes
	}
	return l
}

// Layout is the one-call layout of cp at lda, ldb and ldc: NewLayout
// of cp alone, at the Run's base offsets.
func (cp *Program) Layout(lda, ldb, ldc int64) *Layout {
	return NewLayout(lda, ldb, ldc, []*Program{cp}, [][3]int64{{}})
}

// tiles resolves a tile program's chunks in run order at leading
// dimensions ld, in bytes.
func (cp *Program) tiles(ld [3]int64) []tile {
	var ts []tile
	for _, r := range cp.regions {
		for i := range r.chunks {
			ts = append(ts, r.chunks[i].resolve(ld, r.store))
		}
	}
	return ts
}

// Fits reports whether a Run of l over operands of lenA, lenB and lenC
// elements at base offsets aOff, bOff and cOff passes its check: the
// layout is not refused, no base offset is negative, and each base
// offset plus the block's reach fits its operand. It is the one check
// Run makes before any call.
//
// The reach replaces the interpreter's per-access checkAddr. The
// analyzer proved every access of a program has the form
// off + row·ld + col (in elements here) with 0 ≤ row and 0 ≤ col
// bounded by the program's extents, so the extreme corner of each
// panel suffices. A loose program's are the declared extents
//
//	A:  (MR-1)·lda + KC + AOverVectors·σ
//	B:  (KC+BOverRows-1)·ldb + NR
//	C:  (MR-1)·ldc + NR
//
// A tile program is held to its exact extents instead: its only
// accesses are its chunks' progressions, so the over-read slack the asm
// kernel's pipelined loads need is never read, and A is
// (MR-1)·lda + KC, B (KC-1)·ldb + NR for a generated kernel.
func (l *Layout) Fits(lenA, lenB, lenC int, aOff, bOff, cOff int64) bool {
	return l.err == nil && min(aOff, bOff, cOff) >= 0 &&
		aOff+l.reach[0] <= int64(lenA) && bOff+l.reach[1] <= int64(lenB) && cOff+l.reach[2] <= int64(lenC)
}

// refusal returns the error a Run that fails Fits returns.
func (l *Layout) refusal(n [3]int, off [3]int64) error {
	if l.err != nil {
		return l.err
	}
	for k, o := range off {
		if o < 0 {
			return fmt.Errorf("%w: negative %c offset %d", ErrBounds, "ABC"[k], o)
		}
		if o+l.reach[k] > int64(n[k]) {
			return fmt.Errorf("%w: %d-call block: %c reach [%d + %d at ld %d] exceeds %d elements",
				ErrBounds, len(l.calls), "ABC"[k], o, l.reach[k], l.ld[k], n[k])
		}
	}
	return nil
}

// Run executes the layout's calls in order over the three operand
// slices, their panels at base offsets aOff, bOff and cOff in float32
// elements: each call's tile chunks in order, or its loose segments. It
// checks the whole block once first (Fits) and refuses it with ErrBounds
// before any call runs. maxLoopIters bounds taken loop branches per
// call — a backstop against translator bugs, checked once against the
// largest static count before any work. Every call runs under one
// recover. Run allocates nothing.
//
// The operand slices must not be reallocated for the duration of the
// call; when they alias a sim.Arena, the arena must be frozen first
// (see sim.Arena's growth contract). C must not overlap A or B: a tile
// chunk stores its C tile before the next chunk reads its operands.
func (l *Layout) Run(e *Env, a, b, c []float32, aOff, bOff, cOff int64, maxLoopIters int) (err error) {
	if !l.Fits(len(a), len(b), len(c), aOff, bOff, cOff) {
		return l.refusal([3]int{len(a), len(b), len(c)}, [3]int64{aOff, bOff, cOff})
	}
	if e.lanes != l.lanes {
		return fmt.Errorf("compile: env is %d-lane, layout is %d-lane", e.lanes, l.lanes)
	}
	if l.iters > maxLoopIters {
		return fmt.Errorf("compile: exceeded %d loop iterations: a call takes %d", maxLoopIters, l.iters)
	}
	base := [3]unsafe.Pointer{
		unsafe.Add(unsafe.Pointer(unsafe.SliceData(a)), aOff*4),
		unsafe.Add(unsafe.Pointer(unsafe.SliceData(b)), bOff*4),
		unsafe.Add(unsafe.Pointer(unsafe.SliceData(c)), cOff*4),
	}
	e.ld = [3]int64{l.ld[0] * 4, l.ld[1] * 4, l.ld[2] * 4}
	i := 0
	defer func() {
		e.base = [3]unsafe.Pointer{}
		if r := recover(); r != nil {
			err = fmt.Errorf("compile: %s (call %d): runtime fault (elision proof violated?): %v", l.calls[i].cp.Name, i, r)
		}
	}()
	for ; i < len(l.calls); i++ {
		cl := &l.calls[i]
		for k := range base {
			e.base[k] = unsafe.Add(base[k], cl.off[k])
		}
		for j := range cl.tiles {
			runTile(e, &cl.tiles[j])
		}
		for j := range cl.cp.segs {
			s := &cl.cp.segs[j]
			for t := int64(0); t < s.trips; t++ {
				execUops(e, &s.code, t)
			}
		}
	}
	return nil
}
