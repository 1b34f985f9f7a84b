// Package compile lowers validated asm programs into a static schedule
// of pre-decoded micro-ops, replacing sim.Machine.Run's per-instruction
// switch on the GEMM hot path.
//
// The contract with the analyzer (internal/asm/analysis) is what makes
// the lowering more than a dispatch trick. Compile only succeeds when
// the symbolic bounds pass proved every load and store of the program
// stays inside the affine panel model and 4-byte aligned, and every loop
// runs an exact trip count (Report.BoundsComplete). The pass also
// records where each access lands (Report.Accesses): its operand panel,
// active lanes, trip-0 row and column, and per-trip step. So the
// compiled form holds no scalar registers, flags or predicates and no
// branches: it is a list of segments, each a body run a fixed number of
// trips, whose memory ops carry their panel positions. Run validates the
// panel extents once per invocation (Precheck) and executes with no
// per-access checkAddr at all. Programs the analyzer cannot prove stay on
// the checked interpreter — Compile fails with ErrUnproven, it never
// guesses.
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
// program safe for check elision. Callers fall back to the interpreter.
var ErrUnproven = errors.New("compile: bounds not proven")

// ErrBounds is wrapped by Precheck/Run when the concrete panel extents do
// not fit the operand slices. Callers fall back to the interpreter (which
// will either succeed on a laxer layout or report the real fault).
var ErrBounds = errors.New("compile: operands fail panel precheck")

// Env is the mutable execution state: the vector register file and the
// three operand panels. It is reusable across Run calls — compiled
// programs are self-initializing (the analyzer's use-before-def pass
// guarantees every register is written before it is read), so no reset
// is needed — and a worker typically keeps one Env per goroutine.
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
	// plus Precheck, and base keeps the slices live for the GC.
	vp   unsafe.Pointer
	base [3]unsafe.Pointer
	ld   [3]int64

	// lay is the program's chunk offsets at this Run's leading
	// dimensions, and acc the accumulators execRegion stages for a chunk
	// that does not set them up itself (tileStaged), by tile slot. The
	// register-tile loops read acc and base through go_asm.h.
	lay *Layout
	acc [2 * 12][4]float32
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

// Program is a compiled kernel: its static schedule, a list of segments
// run in order.
type Program struct {
	Name   string
	Lanes  int
	Bounds analysis.Bounds
	segs   []segment

	// iters is the program's taken loop branches, Σ(trips − 1) over its
	// loops: what Run charges against maxLoopIters.
	iters int
	// Static FMLA counts: all of them, and those in affine regions.
	fmlas, affineFmlas int

	// regions are the affine regions in program order.
	regions []*region
}

// Layout is a program's offsets resolved at one (lda, ldb, ldc): every
// chunk's tile and every final reload's position, as byte offsets past
// the panel bases, so a Run only adds the bases. It is immutable, so a
// caller that runs a program at fixed leading dimensions resolves it
// once and shares it between goroutines.
type Layout struct {
	cp    *Program
	ld    [3]int64 // lda, ldb, ldc in float32 elements
	tiles []tile   // by region.t0 + chunk index
	final []int64  // by region.f0 + index in region.final
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
		for _, s := range r.final {
			l.final = append(l.final, s.at.bytes(ld[s.bank]))
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
// the interpreter's per-access checkAddr. The analyzer proved every
// access has the form  off + row·ld + col  (in elements here) with
// 0 ≤ row and 0 ≤ col bounded by the panel shape plus declared slack, so
// the extreme corner of each panel suffices:
//
//	A:  off_A + (MR-1)·lda + KC + AOverVectors·σ  ≤ len(A)
//	B:  off_B + (KC+BOverRows-1)·ldb + NR         ≤ len(B)
//	C:  off_C + (MR-1)·ldc + NR                   ≤ len(C)
//
// with all offsets and leading dimensions non-negative. Offsets and
// strides are in float32 elements. C's rows must also be disjoint,
// ldc ≥ NR when MR > 1: the affine regions reorder C loads and stores
// on that rule (foldC, affine.go).
func (cp *Program) Precheck(lenA, lenB, lenC int, aOff, bOff, cOff, lda, ldb, ldc int64) error {
	b := &cp.Bounds
	switch cp.misfit(lenA, lenB, lenC, aOff, bOff, cOff, lda, ldb, ldc) {
	case fitNegative:
		return fmt.Errorf("%w: %s: negative offset or leading dimension", ErrBounds, cp.Name)
	case fitA:
		return fmt.Errorf("%w: %s: A panel [%d + %d rows × lda %d] exceeds %d elements",
			ErrBounds, cp.Name, aOff, b.MR, lda, lenA)
	case fitB:
		return fmt.Errorf("%w: %s: B panel [%d + %d rows × ldb %d] exceeds %d elements",
			ErrBounds, cp.Name, bOff, b.KC+b.BOverRows, ldb, lenB)
	case fitC:
		return fmt.Errorf("%w: %s: C panel [%d + %d rows × ldc %d] exceeds %d elements",
			ErrBounds, cp.Name, cOff, b.MR, ldc, lenC)
	case fitCRows:
		return fmt.Errorf("%w: %s: C rows overlap: ldc %d < NR %d with %d rows",
			ErrBounds, cp.Name, ldc, b.NR, b.MR)
	}
	return nil
}

// Fits reports whether Precheck accepts the call, without building an
// error: the test for callers that only choose a path by it.
func (cp *Program) Fits(lenA, lenB, lenC int, aOff, bOff, cOff, lda, ldb, ldc int64) bool {
	return cp.misfit(lenA, lenB, lenC, aOff, bOff, cOff, lda, ldb, ldc) == fitOK
}

// The precheck rules, in the order misfit tests them.
const (
	fitOK = iota
	fitNegative
	fitA
	fitB
	fitC
	fitCRows
)

// misfit returns the first precheck rule the call breaks, or fitOK.
func (cp *Program) misfit(lenA, lenB, lenC int, aOff, bOff, cOff, lda, ldb, ldc int64) int {
	b := &cp.Bounds
	switch {
	case aOff < 0 || bOff < 0 || cOff < 0 || lda < 0 || ldb < 0 || ldc < 0:
		return fitNegative
	case aOff+b.AExtent(lda) > int64(lenA):
		return fitA
	case bOff+b.BExtent(ldb) > int64(lenB):
		return fitB
	case cOff+b.CExtent(ldc) > int64(lenC):
		return fitC
	case !b.CRowsDisjoint(ldc):
		return fitCRows
	}
	return fitOK
}

// Run executes the compiled program over the three operand slices at
// the leading dimensions of l, one of the program's layouts. Offsets are
// in float32 elements. maxLoopIters bounds taken loop branches — a
// backstop against translator bugs, checked once against the program's
// static count before any work. Run allocates nothing.
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
	e.lay = l
	defer func() {
		e.base = [3]unsafe.Pointer{}
		e.lay = nil
		if r := recover(); r != nil {
			err = fmt.Errorf("compile: %s: runtime fault (elision proof violated?): %v", cp.Name, r)
		}
	}()
	for i := range cp.segs {
		s := &cp.segs[i]
		for t := int64(0); t < s.trips; t++ {
			execUops(e, &s.code, t)
		}
	}
	return nil
}
