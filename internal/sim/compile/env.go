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

	// tile is the register-tile chunk an affine region is running
	// (execRegion).
	tile tile
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
// strides are in float32 elements.
func (cp *Program) Precheck(lenA, lenB, lenC int, aOff, bOff, cOff, lda, ldb, ldc int64) error {
	if aOff < 0 || bOff < 0 || cOff < 0 || lda < 0 || ldb < 0 || ldc < 0 {
		return fmt.Errorf("%w: %s: negative offset or leading dimension", ErrBounds, cp.Name)
	}
	b := &cp.Bounds
	if aOff+b.AExtent(lda) > int64(lenA) {
		return fmt.Errorf("%w: %s: A panel [%d + %d rows × lda %d] exceeds %d elements",
			ErrBounds, cp.Name, aOff, b.MR, lda, lenA)
	}
	if bOff+b.BExtent(ldb) > int64(lenB) {
		return fmt.Errorf("%w: %s: B panel [%d + %d rows × ldb %d] exceeds %d elements",
			ErrBounds, cp.Name, bOff, b.KC+b.BOverRows, ldb, lenB)
	}
	if cOff+b.CExtent(ldc) > int64(lenC) {
		return fmt.Errorf("%w: %s: C panel [%d + %d rows × ldc %d] exceeds %d elements",
			ErrBounds, cp.Name, cOff, b.MR, ldc, lenC)
	}
	return nil
}

// Run executes the compiled program over the three operand slices.
// Offsets and leading dimensions are in float32 elements. maxLoopIters
// bounds taken loop branches — a backstop against translator bugs,
// checked once against the program's static count before any work.
//
// The operand slices must not be reallocated for the duration of the
// call; when they alias a sim.Arena, the arena must be frozen first
// (see sim.Arena's growth contract).
func (cp *Program) Run(e *Env, a, b, c []float32, aOff, bOff, cOff, lda, ldb, ldc int64, maxLoopIters int) (err error) {
	if e.lanes != cp.Lanes {
		return fmt.Errorf("compile: %s: env is %d-lane, program is %d-lane", cp.Name, e.lanes, cp.Lanes)
	}
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
		e.tile.a, e.tile.b = nil, nil
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
