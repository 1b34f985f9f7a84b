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
// per-access checkAddr at all. The extents are the declared ones (the
// panel shape plus the over-read slack the asm kernel's pipelined loads
// need), except for a tile-only program run under its Layout: that Run
// executes only its chunks' progressions, so it is held to the exact
// extents translate records from them, and operands need no slack past
// what the kernel really reads. Programs the analyzer cannot prove are
// refused — Compile fails with ErrUnproven, it never guesses.
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
// A Run's contract is C: under its Layout a tile-only program never
// touches the vector file, so v may still hold another program's values
// afterwards. Other programs' layouts, and the test-only exit layout,
// leave the interpreter's exact exit vector file in v.
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
	// tileOnly is set when every micro-op is a region's and no chunk
	// stages a live-in accumulator from the vector file: the program
	// never reads Env.v, so no Run needs the registers a region leaves.
	tileOnly bool
	// exact is a tile-only program's reach into each operand panel,
	// by bank: what its chunks read and write (exactExtents), with none
	// of the declared over-read slack.
	exact [3]extent
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

// Layout is a program's offsets resolved at one (lda, ldb, ldc): every
// chunk's tile and, under an exit layout, every final reload's
// position, as byte offsets past the panel bases, so a Run only adds
// the bases. It is immutable, so a caller that runs a program at fixed
// leading dimensions resolves it once and shares it between goroutines.
type Layout struct {
	cp    *Program
	ld    [3]int64 // lda, ldb, ldc in float32 elements
	tiles []tile   // by region.t0 + chunk index
	final []int64  // by region.f0 + index in region.final; exit only
	// exit is set when a Run leaves the interpreter's exit vector file:
	// the regions' final reloads and zeroings run, and every tile writes
	// its accumulators back.
	exit bool
}

// Layout resolves the program's offsets at leading dimensions lda, ldb
// and ldc, in float32 elements, for Run. A Run under it writes C; a
// tile-only program's layout writes nothing else.
func (cp *Program) Layout(lda, ldb, ldc int64) *Layout {
	return cp.layout(lda, ldb, ldc, !cp.tileOnly)
}

// layout resolves the offsets, with the exit vector file written when
// exit is set.
func (cp *Program) layout(lda, ldb, ldc int64, exit bool) *Layout {
	l := &Layout{cp: cp, ld: [3]int64{lda, ldb, ldc}, exit: exit}
	ld := [3]int64{lda * 4, ldb * 4, ldc * 4}
	for _, r := range cp.regions {
		for i := range r.chunks {
			l.tiles = append(l.tiles, r.chunks[i].resolve(ld, r.store, exit))
		}
		if exit {
			for _, s := range r.final {
				l.final = append(l.final, s.at.bytes(ld[s.bank]))
			}
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
// A tile-only program is held to its exact extents instead: under its
// Layout its only accesses are its chunks' progressions, so the
// over-read slack the asm kernel's pipelined loads need is never read,
// and A is (MR-1)·lda + KC, B (KC-1)·ldb + NR for a generated kernel.
// All offsets and leading dimensions must be non-negative. Offsets and
// strides are in float32 elements. C's rows must also be disjoint,
// ldc ≥ NR when MR > 1: the affine regions reorder C loads and stores
// on that rule (foldC, affine.go).
func (cp *Program) Precheck(lenA, lenB, lenC int, aOff, bOff, cOff, lda, ldb, ldc int64) error {
	return cp.precheck(cp.tileOnly, lenA, lenB, lenC, aOff, bOff, cOff, lda, ldb, ldc)
}

// precheck is Precheck against the exact extents when exact is set,
// else against the declared ones.
func (cp *Program) precheck(exact bool, lenA, lenB, lenC int, aOff, bOff, cOff, lda, ldb, ldc int64) error {
	b := &cp.Bounds
	var ext [3]int64
	if exact {
		ext = [3]int64{cp.exact[0].at(lda), cp.exact[1].at(ldb), cp.exact[2].at(ldc)}
	} else {
		ext = [3]int64{b.AExtent(lda), b.BExtent(ldb), b.CExtent(ldc)}
	}
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
// the leading dimensions of l, one of the program's layouts. Offsets are
// in float32 elements. It first prechecks the operands (Precheck): a
// tile-only program's Layout against its exact extents, any other
// layout, and every exit layout, against the declared ones, since an
// exit layout's final reloads read the over-read slack. maxLoopIters
// bounds taken loop branches — a backstop against translator bugs,
// checked once against the program's static count before any work. Run
// allocates nothing.
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
	if err := cp.precheck(cp.tileOnly && !l.exit, len(a), len(b), len(c), aOff, bOff, cOff, lda, ldb, ldc); err != nil {
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
