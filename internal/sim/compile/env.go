// Package compile lowers validated asm programs into directly executable
// Go closure-threaded code, replacing sim.Machine.Run's per-instruction
// switch on the GEMM hot path.
//
// The contract with the analyzer (internal/asm/analysis) is what makes
// the lowering more than a dispatch trick: Compile only succeeds when the
// symbolic bounds pass proved every load and store of the program stays
// inside the affine panel model and 4-byte aligned
// (Report.BoundsComplete), and classified each access to exactly one
// operand panel (Report.AccessBanks). Under that proof the compiled form validates the panel extents once per invocation
// (Precheck) and executes with no per-access checkAddr at all. Programs
// the analyzer cannot prove stay on the checked interpreter — Compile
// fails with ErrUnproven, it never guesses.
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

// Dispatch halt codes returned by ops instead of a next pc.
const (
	haltRet  = -1
	haltFuel = -2
)

// op executes one basic block against the environment and returns the
// next block index, or a negative halt code.
type op func(e *Env) int

// Env is the mutable execution state: the register files and the three
// operand banks. It is reusable across Run calls — compiled programs are
// self-initializing (the analyzer's use-before-def pass guarantees every
// register is written before it is read), so no reset is needed — and a
// worker typically keeps one Env per goroutine.
//
// The register files are fixed arrays (stride = the program's σ_lane)
// rather than per-register slices so closures index flat storage with
// captured constant offsets.
type Env struct {
	x     [asm.NumScalarRegs]int64
	v     [asm.NumVectorRegs * MaxLanes]float32
	p     [asm.NumPredRegs * MaxLanes]bool
	z     bool
	fuel  int
	lanes int
	banks [3][]float32 // A, B, C operand panels for the current Run

	// Raw base pointers used by the micro-op executor. vp points at v
	// (register indices are validated at translate time); bank holds the
	// operand panel bases for the current Run, covered by the analyzer's
	// bounds proof plus Precheck. banks keeps the slices live for the GC
	// while the executor addresses through bank.
	vp   unsafe.Pointer
	pp   unsafe.Pointer
	bank [3]unsafe.Pointer

	// Working state of the affine regions (execRegion): the region's forms
	// evaluated at entry, and the strided loop being run.
	vals [maxForms]int64
	grp  affineGroup
}

// NewEnv builds an environment for σ_lane-wide programs.
func NewEnv(lanes int) *Env {
	if lanes < 1 || lanes > MaxLanes {
		panic(fmt.Sprintf("compile: lanes %d out of range 1..%d", lanes, MaxLanes))
	}
	e := &Env{lanes: lanes}
	e.vp = unsafe.Pointer(&e.v[0])
	e.pp = unsafe.Pointer(&e.p[0])
	return e
}

// Lanes returns the vector width the environment was built for.
func (e *Env) Lanes() int { return e.lanes }

// Program is a compiled kernel: one closure per basic block with
// pre-resolved successor blocks (labels, nops and prefetches are
// compacted away).
type Program struct {
	Name   string
	Lanes  int
	Bounds analysis.Bounds
	ops    []op

	// Static FMLA counts: all of them, and those in affine regions.
	fmlas, affineFmlas int
	dbg                []*code
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
// Offsets and leading dimensions are in float32 elements; the kernel's
// own LSL-2 arithmetic sees byte addresses exactly as the interpreter
// does. maxLoopIters bounds taken loop branches — a backstop against
// translator bugs, charged only on taken branches, not per instruction.
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
	e.banks[0], e.banks[1], e.banks[2] = a, b, c
	e.bank[0] = unsafe.Pointer(unsafe.SliceData(a))
	e.bank[1] = unsafe.Pointer(unsafe.SliceData(b))
	e.bank[2] = unsafe.Pointer(unsafe.SliceData(c))
	e.x[0], e.x[1], e.x[2] = aOff*4, bOff*4, cOff*4
	e.x[3], e.x[4], e.x[5] = lda, ldb, ldc
	e.fuel = maxLoopIters
	defer func() {
		e.banks = [3][]float32{}
		e.bank = [3]unsafe.Pointer{}
		e.grp = affineGroup{}
		if r := recover(); r != nil {
			err = fmt.Errorf("compile: %s: runtime fault (elision proof violated?): %v", cp.Name, r)
		}
	}()
	pc := 0
	ops := cp.ops
	for pc >= 0 {
		pc = ops[pc](e)
	}
	if pc == haltFuel {
		return fmt.Errorf("compile: %s: exceeded %d loop iterations", cp.Name, maxLoopIters)
	}
	return nil
}
