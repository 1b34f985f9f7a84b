package analysis_test

import (
	"strings"
	"testing"

	"autogemm/internal/asm"
	"autogemm/internal/asm/analysis"
	"autogemm/internal/mkernel"
)

// buildKernel hand-writes a miniature but fully realistic micro-kernel
// (m_r = 1, n̂_r = 1, k_c = 8, σ = 4): strides to bytes, C load, A/B
// prologue, a 2-iteration counted loop of 4 unrolled k-steps with B
// loaded one step ahead, and the C store. mutate, when non-nil, is
// called at the named points so each test case can break exactly one
// contract.
func buildKernel(t *testing.T, mutate func(point string, p *asm.Program)) *asm.Program {
	t.Helper()
	hook := func(point string, p *asm.Program) {
		if mutate != nil {
			mutate(point, p)
		}
	}
	p := asm.NewProgram("mini")
	p.Lsl(asm.X(3), asm.X(3), 2)
	p.Lsl(asm.X(4), asm.X(4), 2)
	p.Lsl(asm.X(5), asm.X(5), 2)
	p.Mov(asm.X(6), asm.X(0)) // A row pointer
	p.Mov(asm.X(7), asm.X(2)) // C row pointer
	p.LdrQ(asm.V(0), asm.X(7), 0).Comment("load C")
	p.LdrQPost(asm.V(1), asm.X(6), 16).Comment("load A block 0")
	p.LdrQ(asm.V(2), asm.X(1), 0).Comment("load B row 0")
	p.Add(asm.X(1), asm.X(1), asm.X(4))
	hook("pre-loop", p)
	p.MovI(asm.X(29), 2)
	p.Label("kloop")
	for i := 0; i < 4; i++ {
		p.Fmla(asm.V(0), asm.V(2), asm.V(1), i)
		hook("step", p)
		p.LdrQ(asm.V(2), asm.X(1), 0).Comment("load B one step ahead")
		p.Add(asm.X(1), asm.X(1), asm.X(4))
	}
	p.LdrQPost(asm.V(1), asm.X(6), 16).Comment("load next A block")
	p.Subs(asm.X(29), asm.X(29), 1)
	p.Bne("kloop")
	hook("pre-store", p)
	p.StrQPost(asm.V(0), asm.X(7), 16)
	hook("pre-ret", p)
	p.Ret()
	if err := p.Validate(); err != nil {
		t.Fatalf("mini kernel does not validate: %v", err)
	}
	return p
}

func miniBounds() *analysis.Bounds {
	return &analysis.Bounds{MR: 1, NR: 4, KC: 8, Lanes: 4, AOverVectors: 1, BOverRows: 2}
}

// TestCleanKernel is the positive case: the mini kernel has zero
// findings and the report reflects its structure.
func TestCleanKernel(t *testing.T) {
	p := buildKernel(t, nil)
	rep, err := analysis.Analyze(p, analysis.Options{Bounds: miniBounds()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean kernel has findings:\n%s", rep.String())
	}
	if len(rep.Loops) != 1 {
		t.Errorf("Loops = %d, want 1", len(rep.Loops))
	}
	if !rep.BoundsChecked {
		t.Error("bounds pass did not run")
	}
	if rep.MaxLiveVectors != 3 {
		t.Errorf("MaxLiveVectors = %d, want 3 (C, A, B)", rep.MaxLiveVectors)
	}
	if len(rep.Accumulators) != 1 || rep.Accumulators[0] != asm.V(0) {
		t.Errorf("Accumulators = %v, want [v0]", rep.Accumulators)
	}
	if rep.Err() != nil {
		t.Error("Err() non-nil on clean report")
	}
	if !strings.Contains(rep.String(), "ok") {
		t.Errorf("report string %q", rep.String())
	}
}

// TestNegativeFindings breaks one contract per case and checks the
// analyzer reports exactly the matching kind with a distinct diagnostic.
func TestNegativeFindings(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(point string, p *asm.Program)
		opts   func() analysis.Options
		want   analysis.Kind
	}{
		{
			name: "clobbered accumulator",
			mutate: func(point string, p *asm.Program) {
				if point == "pre-store" {
					p.VZero(asm.V(0)).Comment("injected: zero the dirty accumulator")
				}
			},
			opts: func() analysis.Options { return analysis.Options{Bounds: miniBounds()} },
			want: analysis.KindAccClobber,
		},
		{
			name: "use before def",
			mutate: func(point string, p *asm.Program) {
				if point == "pre-store" {
					p.Fmla(asm.V(0), asm.V(9), asm.V(1), 0).Comment("injected: v9 never written")
				}
			},
			opts: func() analysis.Options { return analysis.Options{Bounds: miniBounds()} },
			want: analysis.KindUseBeforeDef,
		},
		{
			name:   "over pressure",
			mutate: nil,
			opts: func() analysis.Options {
				return analysis.Options{VectorBudget: 2, Bounds: miniBounds()}
			},
			want: analysis.KindPressure,
		},
		{
			name:   "broken rotation",
			mutate: nil,
			opts: func() analysis.Options {
				// The mini kernel reuses one B register every step, so a
				// double-buffering claim is false.
				return analysis.Options{Rotation: &analysis.RotationHint{BDouble: true}}
			},
			want: analysis.KindRotation,
		},
		{
			name: "dead definition",
			mutate: func(point string, p *asm.Program) {
				if point == "pre-ret" {
					p.VZero(asm.V(10))
					p.Fmla(asm.V(10), asm.V(2), asm.V(1), 0).Comment("injected: result unread")
				}
			},
			opts: func() analysis.Options { return analysis.Options{} },
			want: analysis.KindDeadDef,
		},
		{
			name: "same-step load feed",
			mutate: func(point string, p *asm.Program) {
				if point == "step" {
					// Load a second B vector and consume it immediately within
					// the same unrolled k-step.
					p.LdrQ(asm.V(11), asm.X(1), 0)
					last := p.Instrs[len(p.Instrs)-2] // the step's FMLA (the load is last)
					p.Fmla(asm.V(0), asm.V(11), asm.V(1), int(last.Lane))
				}
			},
			opts: func() analysis.Options { return analysis.Options{} },
			want: analysis.KindPipeline,
		},
		{
			name: "multiplicand aliases live accumulator",
			mutate: func(point string, p *asm.Program) {
				if point == "pre-store" {
					p.Fmla(asm.V(2), asm.V(0), asm.V(1), 0).Comment("injected: reads dirty v0")
					p.StrQ(asm.V(2), asm.X(7), 0)
				}
			},
			opts: func() analysis.Options { return analysis.Options{} },
			want: analysis.KindRoleOverlap,
		},
		{
			name: "flags never set",
			mutate: func(point string, p *asm.Program) {
				if point == "pre-loop" {
					// A conditional branch whose flags no SUBS ever defines:
					// jump over a nop-equivalent.
					p.Bne("skip")
					p.MovI(asm.X(8), 0)
					p.Label("skip")
				}
			},
			opts: func() analysis.Options { return analysis.Options{} },
			want: analysis.KindUseBeforeDef,
		},
	}
	diagnostics := map[string]bool{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := buildKernel(t, tc.mutate)
			rep, err := analysis.Analyze(p, tc.opts())
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK() {
				t.Fatalf("defect not detected")
			}
			found := false
			for _, f := range rep.Findings {
				if f.Kind == tc.want {
					found = true
					diagnostics[f.Kind.String()] = true
					if f.String() == "" || !strings.Contains(f.String(), f.Kind.String()) {
						t.Errorf("finding renders poorly: %q", f.String())
					}
				} else {
					t.Errorf("unexpected extra finding: %s", f.String())
				}
			}
			if !found {
				t.Fatalf("no %s finding; got:\n%s", tc.want, rep.String())
			}
			if rep.Err() == nil {
				t.Error("Err() nil despite findings")
			}
		})
	}
	// Each defect class surfaced under its own diagnostic name.
	if len(diagnostics) < 7 {
		t.Errorf("only %d distinct diagnostics across cases: %v", len(diagnostics), diagnostics)
	}
}

// TestBoundsViolations covers the symbolic over-read pass: a loop that
// runs one iteration too many walks A and B out of their panels, and a
// mixed-base address is rejected as unanalyzable.
func TestBoundsViolations(t *testing.T) {
	t.Run("over-read", func(t *testing.T) {
		p := buildKernel(t, nil)
		// Same code, smaller declared panels: k_c = 4 means the second
		// loop iteration reads past both A and B.
		rep, err := analysis.Analyze(p, analysis.Options{
			Bounds: &analysis.Bounds{MR: 1, NR: 4, KC: 4, Lanes: 4, AOverVectors: 1, BOverRows: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.BoundsChecked {
			t.Fatal("bounds pass did not run")
		}
		found := false
		for _, f := range rep.Findings {
			if f.Kind == analysis.KindOverRead {
				found = true
			}
		}
		if !found {
			t.Fatalf("no over-read finding; got:\n%s", rep.String())
		}
	})
	t.Run("bad address", func(t *testing.T) {
		p := buildKernel(t, func(point string, p *asm.Program) {
			if point == "pre-loop" {
				p.Add(asm.X(8), asm.X(6), asm.X(7)).Comment("injected: A ptr + C ptr")
				p.LdrQ(asm.V(12), asm.X(8), 0)
			}
		})
		rep, err := analysis.Analyze(p, analysis.Options{Bounds: miniBounds()})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, f := range rep.Findings {
			if f.Kind == analysis.KindBadAddress {
				found = true
			}
		}
		if !found {
			t.Fatalf("no bad-address finding; got:\n%s", rep.String())
		}
	})
	t.Run("store into B", func(t *testing.T) {
		p := buildKernel(t, func(point string, p *asm.Program) {
			if point == "pre-loop" {
				p.StrQ(asm.V(2), asm.X(1), 0).Comment("injected: write the B panel")
			}
		})
		rep, err := analysis.Analyze(p, analysis.Options{Bounds: miniBounds()})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, f := range rep.Findings {
			if f.Kind == analysis.KindOverRead && strings.Contains(f.Detail, "store into the B panel") {
				found = true
			}
		}
		if !found {
			t.Fatalf("store into B not flagged; got:\n%s", rep.String())
		}
	})
}

// TestBoundsSkippedOnIrregularFlow: forward branches disable the
// symbolic pass rather than producing unsound findings.
func TestBoundsSkippedOnIrregularFlow(t *testing.T) {
	p := asm.NewProgram("fwd")
	p.MovI(asm.X(6), 0)
	p.B("end")
	p.LdrQ(asm.V(0), asm.X(0), 1<<20) // unreachable wild load
	p.Label("end")
	p.Ret()
	rep, err := analysis.Analyze(p, analysis.Options{
		Bounds: &analysis.Bounds{MR: 1, NR: 4, KC: 4, Lanes: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BoundsChecked {
		t.Error("bounds pass claimed to run over a program with forward branches")
	}
}

// TestLoopTrips pins the exported loop table: the canonical counter
// gets its exact trip count, and loops whose count or per-trip movement
// the bounds pass cannot prove cost the program its completeness.
func TestLoopTrips(t *testing.T) {
	rep, err := analysis.Analyze(buildKernel(t, nil), analysis.Options{Bounds: miniBounds()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) != 1 || rep.Loops[0].Trips != 2 || !rep.BoundsComplete {
		t.Fatalf("mini kernel: loops %+v, complete %v; want one loop of 2 trips, complete", rep.Loops, rep.BoundsComplete)
	}
	l := rep.Loops[0]
	if rep.Program.Instrs[l.Head].Op != asm.OpLabel || rep.Program.Instrs[l.Latch].Op != asm.OpBne {
		t.Fatalf("loop %+v does not span label .. b.ne", l)
	}

	cases := []struct {
		name         string
		body         func(p *asm.Program)
		n            int64
		unknownTrips bool
	}{
		// 3, 1, -1, ...: the counter steps over zero and never exits.
		{"decrement-2", func(p *asm.Program) {
			p.LdrQ(asm.V(0), asm.X(1), 0)
			p.Subs(asm.X(29), asm.X(29), 2)
		}, 3, true},
		{"second-counter-write", func(p *asm.Program) {
			p.LdrQ(asm.V(0), asm.X(1), 0)
			p.AddI(asm.X(29), asm.X(29), 1)
			p.Subs(asm.X(29), asm.X(29), 1)
		}, 2, true},
		// x7 trails x6 by one trip: it moves 0 on the first trip and 16
		// on every later one, so the first trip's delta must not be
		// extrapolated to the last.
		{"trailing-copy", func(p *asm.Program) {
			p.LdrQ(asm.V(0), asm.X(7), 0)
			p.Mov(asm.X(7), asm.X(6))
			p.AddI(asm.X(6), asm.X(6), 16)
			p.Subs(asm.X(29), asm.X(29), 1)
		}, 3, false},
		// Byte offsets 0, 2, 4: the first and last trips are 4-byte
		// aligned, the middle one is not.
		{"misaligned-trip", func(p *asm.Program) {
			p.LdrQ(asm.V(0), asm.X(6), 0)
			p.AddI(asm.X(6), asm.X(6), 2)
			p.Subs(asm.X(29), asm.X(29), 1)
		}, 3, false},
	}
	for _, tc := range cases {
		p := asm.NewProgram(tc.name)
		p.Mov(asm.X(6), asm.X(1))
		p.Mov(asm.X(7), asm.X(1))
		p.MovI(asm.X(29), tc.n)
		p.Label("loop")
		tc.body(p)
		p.Bne("loop")
		p.Ret()
		rep, err := analysis.Analyze(p, analysis.Options{
			Bounds: &analysis.Bounds{MR: 1, NR: 16, KC: 8, Lanes: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.BoundsComplete {
			t.Errorf("%s: bounds pass claims completeness", tc.name)
		}
		if tc.unknownTrips && rep.Loops[0].Trips != 0 {
			t.Errorf("%s: trip count %d claimed", tc.name, rep.Loops[0].Trips)
		}
	}
}

// TestAccesses pins the exported panel positions on a rotated 2×8×24
// kernel, whose k-loop runs three trips of eight k-steps: an A load and
// a B load inside the loop, and a C store after it. The bounds pass
// records trip 0's row and byte column and the per-trip step, and
// leaves Accesses nil when it does not run.
func TestAccesses(t *testing.T) {
	cfg := mkernel.Config{Tile: mkernel.Tile{MR: 2, NR: 8}, KC: 24, Lanes: 4, Rotate: true}
	p, err := mkernel.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aopts, err := cfg.AnalysisOptions()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analysis.Analyze(p, aopts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || !rep.BoundsComplete || len(rep.Loops) != 1 || rep.Loops[0].Trips != 3 {
		t.Fatalf("%s: complete %v, loops %+v; want one 3-trip loop, complete:\n%s", p.Name, rep.BoundsComplete, rep.Loops, rep)
	}
	if len(rep.Accesses) != len(p.Instrs) {
		t.Fatalf("%d accesses for %d instructions", len(rep.Accesses), len(p.Instrs))
	}
	// find returns the first instruction in [lo, hi) with op and base.
	find := func(lo, hi int, op asm.Op, base asm.Reg) int {
		for i := lo; i < hi; i++ {
			if in := &p.Instrs[i]; in.Op == op && in.Src1 == base {
				return i
			}
		}
		t.Fatalf("no %s through %s in [%d, %d)", op, base, lo, hi)
		return -1
	}
	l := rep.Loops[0]
	for _, c := range []struct {
		name string
		idx  int
		want analysis.Access
	}{
		// The rotated A preload through x6 (A row 0): the prologue took
		// bytes 0..16, each trip takes two vectors.
		{"A", find(l.Head, l.Latch, asm.OpLdrQPost, asm.X(6)),
			analysis.Access{Bank: analysis.BankA, Lanes: 4, Row: 0, Col: 16, DRow: 0, DCol: 32}},
		// B through x1: the prologue loaded rows 0 and 1, each trip
		// walks eight rows.
		{"B", find(l.Head, l.Latch, asm.OpLdrQ, asm.X(1)),
			analysis.Access{Bank: analysis.BankB, Lanes: 4, Row: 2, Col: 0, DRow: 8, DCol: 0}},
		// The last store, through x9 (C row 1), after the first vector.
		{"C", find(l.Latch, len(p.Instrs), asm.OpStrQPost, asm.X(9)) + 1,
			analysis.Access{Bank: analysis.BankC, Lanes: 4, Row: 1, Col: 16}},
		{"FMLA", l.Head + 1, analysis.Access{Bank: analysis.BankNone}},
	} {
		if got := rep.Accesses[c.idx]; got != c.want {
			t.Errorf("%s (instr %d, %s): access %+v, want %+v", c.name, c.idx, p.Instrs[c.idx].Op, got, c.want)
		}
	}

	skipped := asm.NewProgram("fwd")
	skipped.B("end")
	skipped.Label("end")
	skipped.Ret()
	rep, err = analysis.Analyze(skipped, analysis.Options{Bounds: &analysis.Bounds{MR: 1, NR: 4, KC: 4, Lanes: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BoundsChecked || rep.Accesses != nil {
		t.Errorf("bounds pass skipped: checked %v, accesses %v; want false, nil", rep.BoundsChecked, rep.Accesses)
	}
}

// TestPredicateTrips checks that a predicated access's active lanes
// must be the same on every trip. A WHILELT over x9 = 4·t against 28
// counts 16 lanes until 28 − x9 drops below 16. When it comes first in
// the body, trip t's access reads its count directly; when it comes
// last, trip t reads trip t − 1's count and trip 0 the PTRUE before the
// loop. Either way a loop that stops while the count is still 16 is
// proven, and one whose last trip reads 12 lanes is not. With reset, a
// PTRUE at the end of the body leaves every trip with the predicate it
// started from, so only the access itself shows the count moving.
func TestPredicateTrips(t *testing.T) {
	for _, c := range []struct {
		name         string
		first, reset bool
		trips        int64
		want         bool
	}{
		{"whilelt-first", true, false, 4, true},
		{"whilelt-first", true, false, 5, false},
		{"whilelt-last", false, false, 3, true},
		{"whilelt-last", false, false, 5, false},
		{"whilelt-reset", true, true, 4, true},
		{"whilelt-reset", true, true, 5, false},
	} {
		p := asm.NewProgram(c.name)
		p.PTrue(asm.P(1))
		p.MovI(asm.X(9), 0)
		p.MovI(asm.X(10), 28)
		p.MovI(asm.X(29), c.trips)
		p.Label("loop")
		if c.first {
			p.Whilelt(asm.P(1), asm.X(9), asm.X(10))
		}
		p.Ld1W(asm.V(0), asm.P(1), asm.X(1), 0)
		p.St1W(asm.V(0), asm.P(1), asm.X(2), 0)
		p.AddI(asm.X(9), asm.X(9), 4)
		if !c.first {
			p.Whilelt(asm.P(1), asm.X(9), asm.X(10))
		}
		if c.reset {
			p.PTrue(asm.P(1))
		}
		p.Subs(asm.X(29), asm.X(29), 1)
		p.Bne("loop")
		p.Ret()
		rep, err := analysis.Analyze(p, analysis.Options{Bounds: &analysis.Bounds{MR: 1, NR: 16, KC: 4, Lanes: 16}})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("%s, %d trips: %s", c.name, c.trips, rep)
		}
		if rep.BoundsComplete != c.want {
			t.Errorf("%s, %d trips: complete %v, want %v", c.name, c.trips, rep.BoundsComplete, c.want)
		}
	}
}

// TestAnalyzeErrors covers the hard-error paths: empty programs, invalid
// bounds, and branches the CFG builder cannot resolve.
func TestAnalyzeErrors(t *testing.T) {
	if _, err := analysis.Analyze(asm.NewProgram("empty"), analysis.Options{}); err == nil {
		t.Error("empty program accepted")
	}
	p := asm.NewProgram("bad-branch")
	p.MovI(asm.X(29), 1)
	p.Subs(asm.X(29), asm.X(29), 1)
	p.Bne("nowhere")
	p.Ret()
	if _, err := analysis.Analyze(p, analysis.Options{}); err == nil {
		t.Error("undefined branch target accepted")
	}
	good := buildKernel(t, nil)
	if _, err := analysis.Analyze(good, analysis.Options{
		Bounds: &analysis.Bounds{MR: 0, NR: 4, KC: 4, Lanes: 4},
	}); err == nil {
		t.Error("invalid bounds accepted")
	}
}

// TestKindStrings pins the stable diagnostic names.
func TestKindStrings(t *testing.T) {
	want := map[analysis.Kind]string{
		analysis.KindUseBeforeDef: "use-before-def",
		analysis.KindAccClobber:   "accumulator-clobber",
		analysis.KindRoleOverlap:  "role-overlap",
		analysis.KindDeadDef:      "dead-def",
		analysis.KindPressure:     "register-pressure",
		analysis.KindPipeline:     "pipeline-hazard",
		analysis.KindRotation:     "rotation-broken",
		analysis.KindOverRead:     "over-read",
		analysis.KindBadAddress:   "bad-address",
	}
	seen := map[string]bool{}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind %d = %q, want %q", int(k), k.String(), s)
		}
		if seen[s] {
			t.Errorf("duplicate diagnostic name %q", s)
		}
		seen[s] = true
	}
	if analysis.Kind(99).String() == "" {
		t.Error("unknown kind renders empty")
	}
}
