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
// time, and every loop runs a fixed number of trips. Run validates the
// panel extents once per invocation (Precheck) and executes with no
// per-access checkAddr at all.
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

// ErrBounds is wrapped by Precheck/Run when the concrete panel extents do
// not fit the operand slices. Run refuses such a call before it touches
// any operand.
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
	// plus Precheck, and base keeps the slices live for the GC. The
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
	// loops: what Run charges against maxLoopIters.
	iters int
	// ext is the program's reach into each operand panel, by bank, that
	// Precheck checks: a tile program's exact extents (exactExtents),
	// a loose program's declared ones.
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

// Layout is a program's offsets resolved at one (lda, ldb, ldc): a tile
// program's every chunk, in run order, as byte offsets past the panel
// bases, so a Run only adds the bases. It is immutable, so a caller
// that runs a program at fixed leading dimensions resolves it once and
// shares it between goroutines.
type Layout struct {
	cp    *Program
	ld    [3]int64 // lda, ldb, ldc in float32 elements
	tiles []tile
}

// Layout resolves the program's offsets at leading dimensions lda, ldb
// and ldc, in float32 elements, for Run.
func (cp *Program) Layout(lda, ldb, ldc int64) *Layout {
	l := &Layout{cp: cp, ld: [3]int64{lda, ldb, ldc}}
	ld := [3]int64{lda * 4, ldb * 4, ldc * 4}
	for _, r := range cp.regions {
		for i := range r.chunks {
			l.tiles = append(l.tiles, r.chunks[i].resolve(ld, r.store))
		}
	}
	return l
}

// segment is a body of micro-ops run trips times; memory ops address
// trip t of their access.
type segment struct {
	code
	trips int64
}

// Precheck validates the once-per-invocation panel extents that replace
// the interpreter's per-access checkAddr, as a Run under the program's
// Layout checks them. The analyzer proved every access has the form
// off + row·ld + col  (in elements here) with 0 ≤ row and 0 ≤ col
// bounded by the panel shape plus declared slack, so the extreme corner
// of each panel suffices. The declared extents are
//
//	A:  off_A + (MR-1)·lda + KC + AOverVectors·σ  ≤ len(A)
//	B:  off_B + (KC+BOverRows-1)·ldb + NR         ≤ len(B)
//	C:  off_C + (MR-1)·ldc + NR                   ≤ len(C)
//
// A tile program is held to its exact extents instead: its only
// accesses are its chunks' progressions, so the over-read slack the asm
// kernel's pipelined loads need is never read, and A is
// (MR-1)·lda + KC, B (KC-1)·ldb + NR for a generated kernel.
// All offsets and leading dimensions must be non-negative. Offsets and
// strides are in float32 elements. C's rows must also be disjoint,
// ldc ≥ NR when MR > 1: the affine regions reorder C loads and stores
// on that rule (foldC, affine.go).
func (cp *Program) Precheck(lenA, lenB, lenC int, aOff, bOff, cOff, lda, ldb, ldc int64) error {
	b := &cp.Bounds
	ext := [3]int64{cp.ext[0].at(lda), cp.ext[1].at(ldb), cp.ext[2].at(ldc)}
	switch {
	case aOff < 0 || bOff < 0 || cOff < 0 || lda < 0 || ldb < 0 || ldc < 0:
		return fmt.Errorf("%w: %s: negative offset or leading dimension", ErrBounds, cp.Name)
	case aOff+ext[0] > int64(lenA):
		return fmt.Errorf("%w: %s: A panel [%d + %d at lda %d] exceeds %d elements",
			ErrBounds, cp.Name, aOff, ext[0], lda, lenA)
	case bOff+ext[1] > int64(lenB):
		return fmt.Errorf("%w: %s: B panel [%d + %d at ldb %d] exceeds %d elements",
			ErrBounds, cp.Name, bOff, ext[1], ldb, lenB)
	case cOff+ext[2] > int64(lenC):
		return fmt.Errorf("%w: %s: C panel [%d + %d at ldc %d] exceeds %d elements",
			ErrBounds, cp.Name, cOff, ext[2], ldc, lenC)
	case !b.CRowsDisjoint(ldc):
		return fmt.Errorf("%w: %s: C rows overlap: ldc %d < NR %d with %d rows",
			ErrBounds, cp.Name, ldc, b.NR, b.MR)
	}
	return nil
}

// Run executes the compiled program over the three operand slices at
// the leading dimensions of l, one of the program's layouts: a tile
// program's chunks in order, or a loose program's segments. Offsets are
// in float32 elements. It first prechecks the operands (Precheck).
// maxLoopIters bounds taken loop branches — a backstop against
// translator bugs, checked once against the program's static count
// before any work. Run allocates nothing.
//
// The operand slices must not be reallocated for the duration of the
// call; when they alias a sim.Arena, the arena must be frozen first
// (see sim.Arena's growth contract). C must not overlap A or B: a tile
// chunk stores its C tile before the next chunk reads its operands.
func (cp *Program) Run(e *Env, l *Layout, a, b, c []float32, aOff, bOff, cOff int64, maxLoopIters int) (err error) {
	if e.lanes != cp.Lanes {
		return fmt.Errorf("compile: %s: env is %d-lane, program is %d-lane", cp.Name, e.lanes, cp.Lanes)
	}
	if l.cp != cp {
		return fmt.Errorf("compile: %s: layout belongs to %s", cp.Name, l.cp.Name)
	}
	lda, ldb, ldc := l.ld[0], l.ld[1], l.ld[2]
	if err := cp.Precheck(len(a), len(b), len(c), aOff, bOff, cOff, lda, ldb, ldc); err != nil {
		return err
	}
	if cp.iters > maxLoopIters {
		return fmt.Errorf("compile: %s: exceeded %d loop iterations", cp.Name, maxLoopIters)
	}
	e.base[0] = unsafe.Add(unsafe.Pointer(unsafe.SliceData(a)), aOff*4)
	e.base[1] = unsafe.Add(unsafe.Pointer(unsafe.SliceData(b)), bOff*4)
	e.base[2] = unsafe.Add(unsafe.Pointer(unsafe.SliceData(c)), cOff*4)
	e.ld = [3]int64{lda * 4, ldb * 4, ldc * 4}
	defer func() {
		e.base = [3]unsafe.Pointer{}
		if r := recover(); r != nil {
			err = fmt.Errorf("compile: %s: runtime fault (elision proof violated?): %v", cp.Name, r)
		}
	}()
	for i := range l.tiles {
		runTile(e, &l.tiles[i])
	}
	for i := range cp.segs {
		s := &cp.segs[i]
		for t := int64(0); t < s.trips; t++ {
			execUops(e, &s.code, t)
		}
	}
	return nil
}
