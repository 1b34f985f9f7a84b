package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// All returns the module's analyzer set in reporting order.
func All() []*Analyzer {
	return []*Analyzer{PlanMut, UnsafePtr, CtxFirst, Goroutine, Walltime}
}

// pathIs reports whether pkgPath is the module package with the given
// suffix (matched on whole path segments, so "internal/plan" does not
// match "internal/plan/audit" or "myinternal/plan").
func pathIs(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}

// PlanMut enforces the plan immutability contract: once a *plan.Plan is
// published, nothing outside the plan package may assign to fields of
// its structs. The static auditor proves coverage and bounds for a plan
// at attach time; those proofs stay valid only if the audited value
// never changes afterwards. Constructing plan values locally (composite
// literals, field writes on a local non-pointer variable before
// publication) is fine — the analyzer flags writes that reach a plan
// struct through a pointer, which is how shared, already-published
// plans are touched.
var PlanMut = &Analyzer{
	Name: "planmut",
	Doc:  "no mutation of plan.Plan (or its nested structs) through a pointer outside internal/plan",
	Skip: func(pkgPath string) bool { return pathIs(pkgPath, "internal/plan") },
	Run:  runPlanMut,
}

func runPlanMut(p *Pass) {
	flag := func(expr ast.Expr) {
		lhs, ok := expr.(*ast.SelectorExpr)
		if !ok {
			return
		}
		sel, ok := p.Info.Selections[lhs]
		if !ok || sel.Kind() != types.FieldVal {
			return
		}
		if base, name := planPointerBase(p.Info, lhs); base != nil {
			p.Reportf(lhs.Sel.Pos(),
				"assignment to plan.%s.%s through a pointer; plans are immutable after construction — build with plan.Builder or copy with WithSource",
				name, lhs.Sel.Name)
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, l := range st.Lhs {
					flag(l)
				}
			case *ast.IncDecStmt:
				flag(st.X)
			case *ast.UnaryExpr:
				// Taking the address of a field of a published plan hands
				// out a mutation capability; flag it the same way.
				if st.Op == token.AND {
					flag(st.X)
				}
			}
			return true
		})
	}
}

// planPointerBase walks the access chain of expr (selectors, index
// expressions, parens, derefs) and reports the first operand whose type
// is a pointer to a struct defined in internal/plan, returning that
// operand and the struct's name. It returns nil when the chain is
// rooted in a plain value (a local copy under construction).
func planPointerBase(info *types.Info, expr ast.Expr) (ast.Expr, string) {
	for {
		var inner ast.Expr
		switch e := expr.(type) {
		case *ast.SelectorExpr:
			inner = e.X
		case *ast.IndexExpr:
			inner = e.X
		case *ast.ParenExpr:
			inner = e.X
		case *ast.StarExpr:
			inner = e.X
		default:
			return nil, ""
		}
		if tv, ok := info.Types[inner]; ok {
			if ptr, ok := tv.Type.Underlying().(*types.Pointer); ok {
				if named, ok := ptr.Elem().(*types.Named); ok && isPlanStruct(named) {
					return inner, named.Obj().Name()
				}
			}
		}
		expr = inner
	}
}

func isPlanStruct(named *types.Named) bool {
	obj := named.Obj()
	if obj.Pkg() == nil || !pathIs(obj.Pkg().Path(), "internal/plan") {
		return false
	}
	_, ok := named.Underlying().(*types.Struct)
	return ok
}

// UnsafePtr confines unsafe to the compiled-executor package. The JIT
// boundary in internal/sim/compile is the one place the module
// legitimately reinterprets memory; an unsafe import anywhere else is a
// new, unreviewed hole in the memory-safety story the plan auditor's
// bounds proofs assume.
var UnsafePtr = &Analyzer{
	Name: "unsafeptr",
	Doc:  "unsafe is imported only by internal/sim/compile",
	Skip: func(pkgPath string) bool { return pathIs(pkgPath, "internal/sim/compile") },
	Run: func(p *Pass) {
		for _, f := range p.Files {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"unsafe"` {
					p.Reportf(imp.Pos(),
						"unsafe imported outside internal/sim/compile; keep raw-memory code behind the JIT boundary")
				}
			}
		}
	},
}

// CtxFirst keeps the context-variant API convention: any exported
// function or method that takes a context.Context takes it as the first
// parameter, matching MultiplyContext / SubmitQoS / WaitContext.
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc:  "exported functions taking a context.Context take it first",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() || fn.Type.Params == nil {
					continue
				}
				pos := 0
				for _, field := range fn.Type.Params.List {
					n := len(field.Names)
					if n == 0 {
						n = 1
					}
					if isContextType(p.Info, field.Type) && pos != 0 {
						p.Reportf(field.Pos(),
							"%s takes a context.Context at parameter %d; context goes first in exported signatures",
							fn.Name.Name, pos+1)
					}
					pos += n
				}
			}
		}
	},
}

func isContextType(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// Walltime keeps the virtual-time-critical task path free of wall-clock
// reads. Simulated schedules (the Timekeeper seam in internal/sched,
// the cycle models in internal/sim, the replay engine in internal/vtime)
// are bit-deterministic only because no cost or ordering decision ever
// consults the host clock — a stray time.Now in those packages would
// silently couple results to machine load. Unlike the confinement
// rules, this one is inclusion-scoped: it runs only inside the critical
// packages and skips the rest of the tree (drivers and benchmarks
// legitimately measure wall time). A deliberate wall-clock call site
// (e.g. CloseWithTimeout's drain deadline, which bounds real waiting
// and never feeds virtual time) is approved by a "vet:allow walltime"
// line in the enclosing function's doc comment.
var Walltime = &Analyzer{
	Name: "walltime",
	Doc:  "no time.Now/time.Since in virtual-time-critical packages (internal/sched, internal/sim, internal/vtime) outside approved call sites",
	Skip: func(pkgPath string) bool {
		for _, crit := range []string{
			"internal/sched", "internal/sim", "internal/sim/compile", "internal/vtime",
		} {
			if pathIs(pkgPath, crit) {
				return false
			}
		}
		return true
	},
	Run: runWalltime,
}

// walltimeAllow is the approval directive for Walltime.
const walltimeAllow = "vet:allow walltime"

func hasWalltimeAllow(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.Contains(c.Text, walltimeAllow) {
			return true
		}
	}
	return false
}

func runWalltime(p *Pass) {
	flagCalls := func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkg, ok := p.Info.Uses[id].(*types.PkgName)
			if !ok || pkg.Imported().Path() != "time" {
				return true
			}
			if name := sel.Sel.Name; name == "Now" || name == "Since" {
				p.Reportf(call.Pos(),
					"time.%s in virtual-time-critical package %s; simulated schedules must not read the wall clock — derive time from charged cycles, or approve the site with a %q doc comment",
					name, p.PkgPath, walltimeAllow)
			}
			return true
		})
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && hasWalltimeAllow(fn.Doc) {
				continue // approved call site
			}
			flagCalls(decl)
		}
	}
}

// Goroutine forbids bare go statements outside the scheduler runtime.
// All concurrency flows through internal/sched so panics are contained,
// cancellation propagates, and worker count is governed in one place; a
// stray goroutine elsewhere escapes all three.
var Goroutine = &Analyzer{
	Name: "goroutine",
	Doc:  "no bare go statements outside internal/sched",
	Skip: func(pkgPath string) bool { return pathIs(pkgPath, "internal/sched") },
	Run: func(p *Pass) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					p.Reportf(g.Pos(),
						"bare go statement outside internal/sched; submit work through the scheduler runtime")
				}
				return true
			})
		}
	},
}
