// Package analysis is a semantic dataflow analyzer for generated
// micro-kernels. Package asm's Validate checks structural
// well-formedness (operand classes, branch targets, RET); this package
// checks the contracts that make the generator's aggressive scheduling
// safe and that structural validation cannot see:
//
//   - no instruction overwrites a live ("dirty") accumulator between a
//     k-step FMLA and the store of that accumulator to C, and every
//     dirty accumulator is stored before RET;
//   - no vector, scalar or predicate register is read before it is
//     written (modulo the AAPCS64 argument registers x0–x5 and xzr),
//     including the NZCV flags consumed by B.NE;
//   - rotating register allocation (§III-C1 of the paper) actually
//     rotates: under a RotationHint, the A or B working sets alternate
//     across unrolled k-steps and never alias an accumulator;
//   - register pressure stays within the vector budget, and value
//     definitions (FMLA results, register zeroing) are never dead;
//   - with a Bounds description of the operand panels, every load and
//     store provably stays within the kernel's documented over-read
//     contract (at most one vector past an A row, at most two rows past
//     the B panel, exact bounds on C).
//
// The analyzer builds a control-flow graph from labels and branches and
// runs classic forward/backward dataflow over it; the bounds check adds
// a symbolic affine interpretation of the scalar register file with
// exact trip counts for counted SUBS/B.NE loops. mkernel runs Analyze as
// a gate on every kernel it emits, and its differential tests sweep the
// whole generation space.
package analysis

import (
	"fmt"
	"strings"

	"autogemm/internal/asm"
)

// Kind classifies a finding.
type Kind int

// Finding kinds. Each negative-test defect class maps to exactly one.
const (
	// KindUseBeforeDef: a register (or the flags) is read on some path
	// before any instruction defines it.
	KindUseBeforeDef Kind = iota
	// KindAccClobber: a full overwrite (load, zeroing) of an accumulator
	// that holds an unstored partial sum.
	KindAccClobber
	// KindRoleOverlap: an FMLA reads a register as a multiplicand while it
	// holds an unstored partial sum, so the working set aliases a live
	// accumulator.
	KindRoleOverlap
	// KindDeadDef: an FMLA result or register zeroing that no path ever
	// reads — computation thrown away.
	KindDeadDef
	// KindPressure: more vector registers simultaneously live than the
	// configured budget.
	KindPressure
	// KindPipeline: inside a steady-state loop body, a load feeds an FMLA
	// in the same unrolled k-step, leaving no latency slack.
	KindPipeline
	// KindRotation: a RotationHint promised rotating register allocation
	// but the working sets do not alternate as claimed.
	KindRotation
	// KindOverRead: a memory access provably exceeds the declared panel
	// bounds plus the documented over-read slack.
	KindOverRead
	// KindBadAddress: an address is not of the recognized affine form
	// base + k·stride + constant over a single operand panel.
	KindBadAddress
	// KindAccUnstored: an accumulator still holds an unstored partial
	// sum on some path that reaches RET — a result never written to C.
	KindAccUnstored
)

var kindNames = map[Kind]string{
	KindUseBeforeDef: "use-before-def",
	KindAccClobber:   "accumulator-clobber",
	KindRoleOverlap:  "role-overlap",
	KindDeadDef:      "dead-def",
	KindPressure:     "register-pressure",
	KindPipeline:     "pipeline-hazard",
	KindRotation:     "rotation-broken",
	KindOverRead:     "over-read",
	KindBadAddress:   "bad-address",
	KindAccUnstored:  "accumulator-unstored",
}

// String returns the stable name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Finding is one contract violation, anchored at an instruction.
type Finding struct {
	Kind   Kind
	Index  int     // instruction index in the program (-1: whole program)
	Reg    asm.Reg // offending register (asm.NoReg if not register-specific)
	Detail string
}

// String renders the finding for reports.
func (f Finding) String() string {
	at := "program"
	if f.Index >= 0 {
		at = fmt.Sprintf("instr %d", f.Index)
	}
	if f.Reg != asm.NoReg {
		return fmt.Sprintf("%s: %s: %s: %s", at, f.Kind, f.Reg, f.Detail)
	}
	return fmt.Sprintf("%s: %s: %s", at, f.Kind, f.Detail)
}

// RotationHint tells the analyzer what rotation scheme the generator
// claims to have applied, so the claim can be verified against the code.
type RotationHint struct {
	// ARows is the number of A rows double-buffered across unrolled
	// blocks (Eqn 9); 0 means no A-side rotation.
	ARows int
	// BDouble reports B-side double buffering (Eqn 10): adjacent k-steps
	// must read disjoint B register sets.
	BDouble bool
}

// Bounds describes the operand panels of a GEMM kernel under the
// standard argument convention (x0=&A, x1=&B, x2=&C, x3=lda, x4=ldb,
// x5=ldc, strides in elements) so the symbolic bounds check can verify
// the over-read contract. All figures are in float32 elements.
type Bounds struct {
	MR    int // rows of A and C
	NR    int // columns of B and C (band kernels: the full band width)
	KC    int // columns of A, rows of B
	Lanes int // σ_lane: elements per vector register

	// AOverVectors is the permitted over-read past the end of an A row,
	// in whole vectors (the paper's kernels need 1; predicated SVE 0).
	AOverVectors int
	// BOverRows is the permitted over-read past the last B panel row
	// (2 for the pipelined kernels, 0 for predicated SVE).
	BOverRows int
}

// The three *Extent methods are the proven bounds facts of a kernel in
// composable form: the exclusive element extent each operand panel
// access can reach from its base offset, under the symbolic proof that
// every access has the affine form  off + row·ld + col  with row and
// col inside the panel shape plus the declared over-read slack. They
// are the single arithmetic shared by the compiled executor's runtime
// reach check (internal/sim/compile's block layouts) and the static
// plan auditor (internal/plan/audit), which composes them with tile
// placements to prove loaded plans safe before anything executes.

// AExtent returns the exclusive extent, in elements past the A panel
// base, of the furthest A access: MR rows at stride lda, each row KC
// elements plus AOverVectors whole vectors of slack.
func (b Bounds) AExtent(lda int64) int64 {
	return int64(b.MR-1)*lda + int64(b.KC) + int64(b.AOverVectors)*int64(b.Lanes)
}

// BExtent returns the exclusive extent past the B panel base:
// KC + BOverRows rows at stride ldb, NR elements wide.
func (b Bounds) BExtent(ldb int64) int64 {
	return int64(b.KC+b.BOverRows-1)*ldb + int64(b.NR)
}

// CExtent returns the exclusive extent past the C panel base: MR rows
// at stride ldc, NR elements wide — C has no over-read slack.
func (b Bounds) CExtent(ldc int64) int64 {
	return int64(b.MR-1)*ldc + int64(b.NR)
}

// CRowsDisjoint reports whether C rows at stride ldc cannot overlap:
// ldc ≥ NR, or a single row. The compiled executor reorders C loads
// and stores on this rule, so its block layouts and the plan auditor
// both require it.
func (b Bounds) CRowsDisjoint(ldc int64) bool {
	return b.MR <= 1 || ldc >= int64(b.NR)
}

// Options configures Analyze.
type Options struct {
	// ArgRegs are the scalar registers holding arguments, defined at
	// entry. Empty means the AAPCS64 default x0..x5.
	ArgRegs []asm.Reg
	// VectorBudget caps simultaneously-live vector registers; 0 means
	// the architectural 32.
	VectorBudget int
	// Rotation, when non-nil, makes the analyzer verify the claimed
	// rotation scheme on every counted loop body.
	Rotation *RotationHint
	// Bounds, when non-nil, enables the symbolic over-read check.
	Bounds *Bounds
}

// Report is the analysis result for one program.
type Report struct {
	Program  *asm.Program
	Findings []Finding

	// MaxLiveVectors is the peak number of simultaneously live vector
	// registers at any program point.
	MaxLiveVectors int
	// Accumulators, ARole and BRole are the inferred register roles:
	// FMLA destinations, FMLA by-element multiplicands (Src2) and FMLA
	// full-vector multiplicands (Src1).
	Accumulators, ARole, BRole []asm.Reg
	// Loops are the counted loops found, in program order.
	Loops []Loop
	// BoundsChecked reports whether the symbolic over-read pass ran
	// (it is skipped for programs with forward or unconditional
	// branches, which the generator never emits).
	BoundsChecked bool

	// BoundsComplete strengthens BoundsChecked into a proof usable for
	// check elision (internal/sim/compile): it is true only when every
	// load and store the program can execute was resolved to the affine
	// panel form, classified to exactly one operand panel, and verified
	// in-bounds and 4-byte aligned for every loop iteration (exact trip
	// counts, no havoc). Alignment assumes what the compiled executor
	// guarantees: the panel base arguments x0..x2 are byte offsets of
	// whole float32 elements.
	// BoundsChecked with findings == 0 but BoundsComplete == false means
	// some access was skipped as unresolvable — fine for a lint gate,
	// not for removing runtime checks.
	BoundsComplete bool

	// Accesses holds each instruction's proven panel position (Access),
	// indexed like Program.Instrs. Only meaningful when BoundsComplete is
	// true; nil when the bounds pass did not run.
	Accesses []Access
}

// Access is where one instruction's memory access lands, as the bounds
// pass proved it: on trip t of its loop (t = 0 outside loops) it covers
// Lanes floats starting at
//
//	base + (Row + t·DRow)·ld + Col + t·DCol   bytes,
//
// with base and ld (in bytes) those of operand panel Bank. Row counts
// leading dimensions; Col, DCol are bytes. Lanes is σ_lane for LDR/STR Q
// and the active-lane prefix a constant WHILELT or PTRUE proves for
// LD1W/ST1W, or -1 when no such proof exists. Row and Col come from the
// trip-0 walk, DRow and DCol from handleLoop's trip-1 replay; the
// last-trip walk checks the extrapolation, so a complete report's
// Accesses are exact for every trip. Instructions without a memory
// access have Bank BankNone.
type Access struct {
	Bank       int8
	Lanes      int16
	Row, Col   int32
	DRow, DCol int32
}

// Loop is one counted SUBS/B.NE loop: the instruction indexes of its
// head label and its latch branch, and its exact trip count. Trips is
// set by the bounds pass when it proved the count (the counter is a
// constant n ≥ 1 at the head and the body's only write to it is the
// `subs ctr, ctr, #1` that sets the latch's flags, so the body runs n
// times); it stays 0 otherwise.
type Loop struct {
	Head, Latch int
	Trips       int64
}

// Operand-panel bank identifiers used in Access.Bank.
const (
	BankNone int8 = -1
	BankA    int8 = 0
	BankB    int8 = 1
	BankC    int8 = 2
)

// OK reports a clean bill of health.
func (r *Report) OK() bool { return len(r.Findings) == 0 }

// Err returns nil when the report is clean, or an error summarizing the
// findings — the form generator gates consume.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "analysis: %s: %d finding(s):", r.Program.Name, len(r.Findings))
	max := len(r.Findings)
	if max > 8 {
		max = 8
	}
	for _, f := range r.Findings[:max] {
		b.WriteString("\n  " + f.String())
	}
	if max < len(r.Findings) {
		fmt.Fprintf(&b, "\n  ... and %d more", len(r.Findings)-max)
	}
	return fmt.Errorf("%s", b.String())
}

// String renders a human-readable report: a one-line summary when
// clean, otherwise every finding.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "analysis %s: ", r.Program.Name)
	if r.OK() {
		fmt.Fprintf(&b, "ok (%d loops, peak %d live vectors, %d accumulators)",
			len(r.Loops), r.MaxLiveVectors, len(r.Accumulators))
		return b.String()
	}
	fmt.Fprintf(&b, "%d finding(s)", len(r.Findings))
	for _, f := range r.Findings {
		b.WriteString("\n  " + f.String())
	}
	return b.String()
}

// addFinding records a deduplicated finding.
func (a *analyzer) addFinding(f Finding) {
	key := findingKey{f.Kind, f.Index, f.Reg}
	if a.seen[key] {
		return
	}
	a.seen[key] = true
	a.report.Findings = append(a.report.Findings, f)
}

type findingKey struct {
	kind Kind
	idx  int
	reg  asm.Reg
}

type analyzer struct {
	p      *asm.Program
	opts   Options
	g      *graph
	uses   []regset // per instruction, flags included
	defs   []regset
	report *Report
	seen   map[findingKey]bool

	acc   regset // FMLA destinations
	aRole regset // FMLA Src2 (by-element multiplicand: the A side)
	bRole regset // FMLA Src1 (full-vector multiplicand: the B side)
}

// Analyze runs every pass over the program and returns the report. The
// program should already satisfy Validate; Analyze returns an error
// (not findings) when it is too malformed to build a CFG for.
func Analyze(p *asm.Program, opts Options) (*Report, error) {
	if len(p.Instrs) == 0 {
		return nil, fmt.Errorf("analysis: %s: empty program", p.Name)
	}
	g, err := buildGraph(p)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", p.Name, err)
	}
	a := &analyzer{
		p: p, opts: opts, g: g,
		report: &Report{Program: p},
		seen:   make(map[findingKey]bool),
	}
	a.uses = make([]regset, len(p.Instrs))
	a.defs = make([]regset, len(p.Instrs))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		a.uses[i] = instrUses(in)
		a.defs[i] = instrDefs(in)
	}
	a.inferRoles()
	a.checkUseBeforeDef()
	a.checkLiveness()
	a.checkClobbers()
	loops := findLoops(p)
	a.report.Loops = make([]Loop, len(loops))
	for i, l := range loops {
		a.report.Loops[i] = Loop{Head: l.head, Latch: l.latch}
	}
	a.checkPipeline(loops)
	if opts.Bounds != nil {
		if err := opts.Bounds.check(); err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", p.Name, err)
		}
		a.checkBounds(loops)
	}
	return a.report, nil
}

func (b *Bounds) check() error {
	if b.MR < 1 || b.NR < 1 || b.KC < 1 || b.Lanes < 1 {
		return fmt.Errorf("bounds must have positive MR/NR/KC/Lanes, got %+v", *b)
	}
	if b.AOverVectors < 0 || b.BOverRows < 0 {
		return fmt.Errorf("bounds slack must be non-negative, got %+v", *b)
	}
	return nil
}

// inferRoles classifies the vector registers by how FMLA uses them.
func (a *analyzer) inferRoles() {
	for i := range a.p.Instrs {
		in := &a.p.Instrs[i]
		if in.Op != asm.OpFmla {
			continue
		}
		a.acc.add(regID(in.Dst))
		a.bRole.add(regID(in.Src1))
		a.aRole.add(regID(in.Src2))
	}
	a.report.Accumulators = regsOf(a.acc)
	a.report.ARole = regsOf(a.aRole)
	a.report.BRole = regsOf(a.bRole)
	// Note: roles are a whole-program summary, not an invariant — a
	// mixed-shape band legitimately reuses one tile's accumulators as the
	// next tile's multiplicands once the stores have drained. The real
	// aliasing rule (never read a *dirty* accumulator as a multiplicand)
	// is flow-sensitive and enforced by checkClobbers.
}

// regsOf expands a vector/predicate/scalar id set into registers.
func regsOf(s regset) []asm.Reg {
	var out []asm.Reg
	for id := 0; id < flagsID; id++ {
		if s.has(id) {
			out = append(out, asm.Reg(id))
		}
	}
	return out
}
