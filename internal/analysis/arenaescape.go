package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ArenaEscape guards the trial-scoped arena discipline PR 5
// introduced: buffers drawn from a sync.Pool (or any local marked with
// a //lightpath:arena directive on the line above its declaration) are
// borrowed, not owned — the pool's Put hands the same backing memory
// to the next trial, so any alias that outlives the borrowing function
// is a use-after-reuse bug waiting for a parallel schedule to expose
// it. The analyzer runs a forward alias analysis per function: the
// results of (*sync.Pool).Get and marked declarations seed a taint
// set, assignments/slicings/field reads propagate it, and it reports
// when a tainted alias
//
//   - is returned from the function;
//   - is stored into a package-level variable, or into a field or
//     element reachable from a parameter or receiver (state that
//     outlives the call);
//   - is sent on a channel or captured by a go statement's closure
//     (consumers race the pool's reuse);
//   - is read or written after an explicit Put of its root object in
//     the same block (deferred Puts, the borrow-scoped idiom, are the
//     sanctioned pattern and stay legal).
//
// Storing one arena alias inside another arena-tainted structure
// (slices of the arena parked in the pooled struct's own fields, the
// fixture's scratch.ref = b case) is fine — the whole object graph
// returns to the pool together.
//
// The one live site is the route plan cache: Allocator.Establish
// borrows its plan slice under //lightpath:arena. No sync.Pool is
// left in non-test code; the fixture keeps the pooled shapes.
var ArenaEscape = &Analyzer{
	Name: "arenaescape",
	Doc:  "forbid sync.Pool-obtained or //lightpath:arena-marked buffers from escaping the borrowing function",
	Run:  runArenaEscape,
}

// arenaDirective marks a declaration whose variables are trial-scoped
// scratch even though they do not come from a sync.Pool.
const arenaDirective = "//lightpath:arena"

// poolGetName and poolPutName are the sync.Pool borrow/return entry
// points as types.Func full names.
const (
	poolGetName = "(*sync.Pool).Get"
	poolPutName = "(*sync.Pool).Put"
)

func runArenaEscape(pass *Pass) error {
	for _, file := range pass.Files {
		marks := directiveLines(pass, file, arenaDirective)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkArenaFunc(pass, fd, marks)
		}
	}
	return nil
}

// checkArenaFunc seeds and propagates the arena taint set across one
// function body, then reports escapes.
func checkArenaFunc(pass *Pass, fd *ast.FuncDecl, marks map[int]bool) {
	tainted := map[types.Object]bool{}

	// owned reports whether an expression aliases tainted memory: it
	// reads through a tainted object AND its own type can carry the
	// alias (slice, pointer, map, struct value holding headers — any
	// non-basic type). A scalar loaded out of the arena is a copy, not
	// an alias, and may go anywhere.
	owned := func(e ast.Expr) types.Object {
		id := rootIdent(e)
		if id == nil {
			return nil
		}
		obj := pass.ObjectOf(id)
		if obj == nil || !tainted[obj] {
			return nil
		}
		if t := pass.TypeOf(e); t != nil {
			if _, basic := t.Underlying().(*types.Basic); basic {
				return nil
			}
		}
		return obj
	}

	// arenaSource reports whether the RHS of a binding derives from the
	// taint set or freshly borrows from a pool.
	arenaSource := func(rhs ast.Expr) bool {
		rhs = ast.Unparen(rhs)
		if owned(rhs) != nil {
			return true
		}
		if call, ok := rhs.(*ast.CallExpr); ok {
			if fn := calleeFunc(pass, call); fn != nil && fn.FullName() == poolGetName {
				return true
			}
			// append(tainted, ...) may return the same backing array.
			if builtinName(pass.Info, call) == "append" && len(call.Args) > 0 && owned(call.Args[0]) != nil {
				return true
			}
		}
		if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
			return arenaSourceExpr(pass, tainted, ta.X)
		}
		return false
	}

	// bind taints a local alias. Package-level variables are never
	// bound: parking an arena alias in a global is an escape (reported
	// by the second sweep), not propagation — tainting it would mask
	// its own report.
	bind := func(id *ast.Ident) {
		if id.Name == "_" {
			return
		}
		obj := pass.ObjectOf(id)
		if obj == nil || obj.Parent() == pass.Pkg.Scope() {
			return
		}
		tainted[obj] = true
	}

	// Seed + propagate in two sweeps: source order handles the common
	// straight-line case, and the second sweep catches aliases bound
	// before their source was recognized (e.g. a marked declaration
	// after a use in a closure literal).
	propagate := func() {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				marked := marks[pass.Fset.Position(n.Pos()).Line-1]
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					if marked || arenaSource(n.Rhs[i]) {
						bind(id)
					}
				}
			case *ast.DeclStmt:
				gd, ok := n.Decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					return true
				}
				marked := marks[pass.Fset.Position(n.Pos()).Line-1]
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if marked || (i < len(vs.Values) && arenaSource(vs.Values[i])) {
							bind(name)
						}
					}
				}
			}
			return true
		})
	}
	propagate()
	propagate()
	if len(tainted) == 0 {
		return
	}

	// retired maps a Put object to the position of the Put statement;
	// any later mention of the object in the same function is a
	// use-after-return-to-pool.
	retired := map[types.Object]token.Pos{}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if obj := owned(res); obj != nil {
					pass.Reportf(res.Pos(), "arena-backed %q is returned; the pool reuses its memory after Put — copy into caller-owned storage instead", obj.Name())
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				obj := owned(n.Rhs[i])
				if obj == nil {
					// append(dst, tainted...) smuggles the alias into dst's
					// backing array; treat it like a direct store of the
					// tainted argument.
					if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok && builtinName(pass.Info, call) == "append" {
						for _, a := range call.Args[min(1, len(call.Args)):] {
							if o := owned(a); o != nil {
								obj = o
								break
							}
						}
					}
				}
				if obj == nil {
					continue
				}
				if escapesVia(pass, fd, tainted, lhs) {
					pass.Reportf(n.Rhs[i].Pos(), "arena-backed %q is stored in state that outlives the borrow; the pool reuses its memory after Put — copy it instead", obj.Name())
				}
			}
		case *ast.SendStmt:
			if obj := owned(n.Value); obj != nil {
				pass.Reportf(n.Value.Pos(), "arena-backed %q is sent on a channel; the receiver races the pool's reuse — copy into an owned buffer before sending", obj.Name())
			}
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				reportGoCaptures(pass, lit, tainted)
			}
			for _, arg := range n.Call.Args {
				if obj := owned(arg); obj != nil {
					pass.Reportf(arg.Pos(), "arena-backed %q is passed to a goroutine; it races the pool's reuse — copy into an owned buffer first", obj.Name())
				}
			}
		case *ast.ExprStmt:
			call, ok := n.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.FullName() != poolPutName || len(call.Args) != 1 {
				return true
			}
			if id := rootIdent(call.Args[0]); id != nil {
				if obj := pass.ObjectOf(id); obj != nil && tainted[obj] {
					retired[obj] = n.End()
				}
			}
		case *ast.Ident:
			obj := pass.ObjectOf(n)
			if obj == nil {
				return true
			}
			if put, ok := retired[obj]; ok && n.Pos() > put {
				pass.Reportf(n.Pos(), "%q is used after its Put returned it to the pool; another trial may already own the memory", obj.Name())
				delete(retired, obj) // one report per retirement is enough
			}
		}
		return true
	})
}

// arenaSourceExpr is the recursion helper for type assertions over
// tainted expressions (pool.Get().(*T) — the canonical borrow shape).
func arenaSourceExpr(pass *Pass, tainted map[types.Object]bool, e ast.Expr) bool {
	e = ast.Unparen(e)
	if id := rootIdent(e); id != nil {
		if obj := pass.ObjectOf(id); obj != nil && tainted[obj] {
			return true
		}
	}
	if call, ok := e.(*ast.CallExpr); ok {
		if fn := calleeFunc(pass, call); fn != nil && fn.FullName() == poolGetName {
			return true
		}
	}
	return false
}

// escapesVia reports whether storing into lhs parks the value in state
// that outlives the function: a package-level variable, or a
// field/element reachable from a parameter, receiver, or package-level
// variable that is not itself arena-tainted. Stores into tainted
// structures (the arena owning its own slices) and into untainted
// locals (plain aliasing, handled by propagation) are fine.
func escapesVia(pass *Pass, fd *ast.FuncDecl, tainted map[types.Object]bool, lhs ast.Expr) bool {
	id := rootIdent(lhs)
	if id == nil || id.Name == "_" {
		return false
	}
	obj := pass.ObjectOf(id)
	if obj == nil || tainted[obj] {
		return false
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	if v.Parent() == pass.Pkg.Scope() {
		return true // package-level variable
	}
	if _, isDirect := ast.Unparen(lhs).(*ast.Ident); isDirect {
		return false // rebinding a local: propagation's job, not an escape
	}
	// A composite store (x.f = v, x[i] = v, *x = v): escapes when the
	// root is a parameter or receiver — memory the caller can hold
	// after we Put the arena back.
	return isParamOrRecv(pass, fd, obj)
}

// isParamOrRecv reports whether obj is one of fd's parameters or its
// receiver.
func isParamOrRecv(pass *Pass, fd *ast.FuncDecl, obj types.Object) bool {
	fields := []*ast.FieldList{fd.Type.Params}
	if fd.Recv != nil {
		fields = append(fields, fd.Recv)
	}
	for _, fl := range fields {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if pass.ObjectOf(name) == obj {
					return true
				}
			}
		}
	}
	return false
}

// reportGoCaptures flags tainted variables captured by a goroutine
// launched inside the borrowing function.
func reportGoCaptures(pass *Pass, lit *ast.FuncLit, tainted map[types.Object]bool) {
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.ObjectOf(id)
		if obj == nil || !tainted[obj] || seen[obj] {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true // shadowed inside the closure
		}
		seen[obj] = true
		pass.Reportf(id.Pos(), "arena-backed %q is captured by a goroutine; it races the pool's reuse — copy into an owned buffer first", obj.Name())
		return true
	})
}
