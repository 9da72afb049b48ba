package analysis

import (
	"go/ast"
	"go/types"
)

// enginePath is the deterministic parallel campaign runner; its Map
// fans trial closures across worker goroutines.
const enginePath = "lightpath/internal/engine"

// engineMap is the fan-out entry point; its second argument is the
// concurrently-executed trial closure.
const engineMap = enginePath + ".Map"

// ParCapture enforces leg 1 of internal/engine's determinism contract
// at the source level: a trial closure handed to engine.Map runs in
// parallel with the other trials of its campaign, so it must never
// write state captured from the enclosing scope. PR 3 fixed exactly
// this bug by hand — an accumulator mutated inside a Map closure,
// racy under the pool and order-dependent even without the race — and
// this analyzer keeps the class from coming back. Flagged inside a
// trial closure:
//
//   - assignment or ++/-- whose target reads through a captured
//     variable (direct writes, element/field stores like m[k]=v or
//     p.f=v, and *p=v through a captured pointer);
//   - append, delete, or clear applied to a captured container when
//     the result rebinds or mutates captured state;
//   - sends on captured channels (arrival order is schedule-dependent);
//   - calls, on a captured variable or something reached from it, of a
//     method that writes through its pointer receiver (the
//     Facts.MutatesReceiver fact, followed through the call graph). This
//     is the Fig5 race: every trial planned on one shared fabric, whose
//     planning method reached a reused executor and rebuilt its maps.
//
// Reads of captured state stay legal — shared read-only inputs are the
// whole point of build-per-trial campaigns — as do writes to the
// closure's own parameters and locals. A closure bound to a local
// variable and passed by name is resolved through the enclosing
// function.
var ParCapture = &Analyzer{
	Name: "parcapture",
	Doc:  "forbid trial closures passed to engine.Map from writing captured state",
	Run:  runParCapture,
}

func runParCapture(pass *Pass) error {
	if pass.Pkg.Path() == enginePath {
		// The engine's own tests exercise deliberately-shared state to
		// prove the merge order; the contract binds its callers.
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pass, call)
				if fn == nil || fn.FullName() != engineMap || len(call.Args) != 2 {
					return true
				}
				if lit := resolveFuncLit(pass, fd, call.Args[1]); lit != nil {
					checkTrialClosure(pass, lit)
				}
				return true
			})
		}
	}
	return nil
}

// resolveFuncLit returns the function literal an argument denotes:
// either the literal itself, or — when the trial is bound to a local
// variable first — the literal its single assignment in the enclosing
// function carries. A variable assigned more than once, or from
// something other than a literal, resolves to nil (the analyzer stays
// quiet rather than guessing).
func resolveFuncLit(pass *Pass, enclosing *ast.FuncDecl, arg ast.Expr) *ast.FuncLit {
	switch a := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		return a
	case *ast.Ident:
		obj := pass.ObjectOf(a)
		if obj == nil {
			return nil
		}
		var lit *ast.FuncLit
		bindings := 0
		record := func(id *ast.Ident, rhs ast.Expr) {
			if pass.ObjectOf(id) != obj {
				return
			}
			bindings++
			lit, _ = ast.Unparen(rhs).(*ast.FuncLit)
		}
		ast.Inspect(enclosing.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							record(id, n.Rhs[i])
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						record(name, n.Values[i])
					}
				}
			}
			return true
		})
		if bindings == 1 {
			return lit
		}
	}
	return nil
}

// checkTrialClosure reports every write to captured state inside one
// trial closure.
func checkTrialClosure(pass *Pass, lit *ast.FuncLit) {
	captured := func(e ast.Expr) *ast.Ident {
		id := rootIdent(e)
		if id == nil || id.Name == "_" {
			return nil
		}
		obj := pass.ObjectOf(id)
		if obj == nil {
			return nil
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return nil
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return nil // the closure's own parameter or local
		}
		return id
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id := captured(lhs); id != nil {
					pass.Reportf(lhs.Pos(), "trial closure passed to engine.Map writes captured %q; trials run concurrently — keep per-trial state local and merge via the returned results", id.Name)
				}
			}
		case *ast.IncDecStmt:
			if id := captured(n.X); id != nil {
				pass.Reportf(n.X.Pos(), "trial closure passed to engine.Map mutates captured %q with %s; trials run concurrently — keep per-trial state local and merge via the returned results", id.Name, n.Tok)
			}
		case *ast.SendStmt:
			if id := captured(n.Chan); id != nil {
				pass.Reportf(n.Pos(), "trial closure passed to engine.Map sends on captured channel %q; arrival order depends on the worker schedule — return results and let the engine merge in index order", id.Name)
			}
		case *ast.CallExpr:
			if name := builtinName(pass.Info, n); name == "delete" || name == "clear" {
				if len(n.Args) > 0 {
					if id := captured(n.Args[0]); id != nil {
						pass.Reportf(n.Pos(), "trial closure passed to engine.Map calls %s on captured %q; trials run concurrently — keep per-trial state local and merge via the returned results", name, id.Name)
					}
				}
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && pass.Facts != nil {
				fn := calleeFunc(pass, n)
				if id := captured(sel.X); id != nil && fn != nil && pass.Facts.MutatesReceiver(fn) {
					pass.Reportf(n.Pos(), "trial closure passed to engine.Map calls %s on captured %q, which writes through its receiver; trials run concurrently — give each trial its own copy", fn.Name(), id.Name)
				}
			}
		}
		return true
	})
}
