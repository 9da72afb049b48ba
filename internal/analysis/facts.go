package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
)

// This file is the shared-facts layer of the multi-pass framework. A
// single-package analyzer sees one type-checked package at a time; the
// interprocedural analyzers (unittaint, parcapture, and any future
// whole-program check) additionally need facts that only fall out of
// looking at every loaded package together: which *types.Func has a
// body and where, who calls whom, and what callers pour into a
// callee's parameters. Facts mirrors golang.org/x/tools/go/analysis's
// Pass/Fact design without the dependency: Run builds one Facts over
// the whole package set before any analyzer executes, and every Pass
// carries a pointer to it.

// FuncInfo is the symbol-table entry for one function or method whose
// body was loaded: its declaration and the package it lives in.
type FuncInfo struct {
	// Decl is the function's source declaration (Body may still be nil
	// for assembly-backed declarations).
	Decl *ast.FuncDecl
	// Pkg is the loaded package the declaration belongs to.
	Pkg *Package
}

// CallSite is one static call whose callee was resolved to a declared
// function: the calling package, the enclosing function declaration
// (nil at package-level initializers), the call expression, and the
// callee.
type CallSite struct {
	// Pkg is the package containing the call expression.
	Pkg *Package
	// Caller is the function declaration the call occurs in, or nil
	// for calls in package-level variable initializers.
	Caller *ast.FuncDecl
	// Call is the call expression itself.
	Call *ast.CallExpr
	// Callee is the resolved target. For calls to generic functions it
	// is the generic origin object, so one entry covers every
	// instantiation.
	Callee *types.Func
}

// Facts holds the cross-package state shared by every analyzer in one
// Run: the symbol table of declared functions, the approximate call
// graph, and lazily-derived interprocedural facts (parameter unit
// taint, receiver mutation). The call graph is approximate by design —
// it resolves only direct calls through identifiers and selectors, not
// calls through function values or interfaces — which is conservative
// in the right direction for the checks built on it: a missing edge can
// only make unittaint and parcapture quieter, never wrong.
type Facts struct {
	// Decls maps every function object declared in the loaded packages
	// to its declaration site.
	Decls map[*types.Func]*FuncInfo
	// Sites lists every resolved call site across the loaded packages,
	// in load order (deterministic: packages are sorted by path, files
	// by name).
	Sites []CallSite
	// Callees maps a declared function to the distinct declared
	// functions it calls directly, sorted by full name.
	Callees map[*types.Func][]*types.Func

	// pkgs is the loaded package set the facts were built from.
	pkgs []*Package
	// callerOrder lists Callees' keys in first-edge order (a
	// deterministic product of the sorted package/file walk), so
	// normalization never iterates the map.
	callerOrder []*types.Func
	// paramUnits is the lazily-built unittaint fact; see ParamUnits.
	paramUnits map[*types.Func][]map[*types.Named]bool
	// mutators is the lazily-built parcapture fact; see MutatesReceiver.
	mutators map[*types.Func]bool
	// used is the lazily-built deadexport fact; see Used.
	used map[types.Object]bool
	// ifaces indexes every interface the loaded packages declare, use
	// or import by method name; see ImplementsInterface.
	ifaces map[string][]*types.Interface
}

// BuildFacts constructs the shared fact base for one analyzer run over
// the given packages.
func BuildFacts(pkgs []*Package) *Facts {
	f := &Facts{
		Decls:   map[*types.Func]*FuncInfo{},
		Callees: map[*types.Func][]*types.Func{},
		pkgs:    pkgs,
	}
	for _, pkg := range pkgs {
		if pkg.TestOnly {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					f.Decls[obj] = &FuncInfo{Decl: fd, Pkg: pkg}
				}
			}
		}
	}
	for _, pkg := range pkgs {
		if pkg.TestOnly {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, _ := decl.(*ast.FuncDecl)
				var root ast.Node = decl
				if fd != nil {
					if fd.Body == nil {
						continue
					}
					root = fd.Body
				}
				pkg, fd := pkg, fd
				ast.Inspect(root, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := calleeOf(pkg.Info, call)
					if callee == nil {
						return true
					}
					f.Sites = append(f.Sites, CallSite{Pkg: pkg, Caller: fd, Call: call, Callee: callee})
					if fd != nil {
						if caller, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
							f.addEdge(caller, callee)
						}
					}
					return true
				})
			}
		}
	}
	for _, caller := range f.callerOrder {
		out := f.Callees[caller]
		sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	}
	return f
}

// addEdge records caller → callee once.
func (f *Facts) addEdge(caller, callee *types.Func) {
	for _, c := range f.Callees[caller] {
		if c == callee {
			return
		}
	}
	if len(f.Callees[caller]) == 0 {
		f.callerOrder = append(f.callerOrder, caller)
	}
	f.Callees[caller] = append(f.Callees[caller], callee)
}

// Used reports whether a loaded package uses obj, a package-level
// object or a method, outside obj's own declaration: a function's
// recursive calls and the receiver lists of a type's methods do not
// count. A use of a generic instantiation counts for its origin. The
// fact covers every loaded package, TestOnly ones included, and is
// built once, on first use.
func (f *Facts) Used(obj types.Object) bool {
	if f.used == nil {
		f.buildUsed()
	}
	return f.used[obj]
}

// buildUsed walks each top-level declaration and marks every object
// its identifiers use, except the objects the declaration itself
// defines. Info.Uses records the selected identifier of every selector
// too, so field and method selections need no separate pass.
func (f *Facts) buildUsed() {
	f.used = map[types.Object]bool{}
	mark := func(info *types.Info, own []types.Object, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if obj != nil && !slices.Contains(own, obj) {
				f.used[obj] = true
			}
			return true
		})
	}
	for _, pkg := range f.pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					own := []types.Object{pkg.Info.Defs[d.Name]}
					mark(pkg.Info, own, d.Type)
					if d.Body != nil {
						mark(pkg.Info, own, d.Body)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var own []types.Object
						switch s := spec.(type) {
						case *ast.TypeSpec:
							own = append(own, pkg.Info.Defs[s.Name])
						case *ast.ValueSpec:
							for _, name := range s.Names {
								own = append(own, pkg.Info.Defs[name])
							}
						}
						mark(pkg.Info, own, spec)
					}
				}
			}
		}
	}
}

// ImplementsInterface reports whether the method fn implements a
// method of an interface that a loaded package declares, spells out
// in a type expression, or reaches through its imports, the standard
// library and the predeclared error included. Such a method can be
// called through the interface, where Info.Uses never names it. The
// interface index is built once, on first use.
func (f *Facts) ImplementsInterface(fn *types.Func) bool {
	if f.ifaces == nil {
		f.buildIfaces()
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, iface := range f.ifaces[fn.Name()] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// buildIfaces indexes the non-generic named interfaces of every
// package reachable from the loaded ones, error, and the interface
// literals the loaded packages write.
func (f *Facts) buildIfaces() {
	f.ifaces = map[string][]*types.Interface{}
	add := func(t types.Type) {
		iface, ok := t.(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			f.ifaces[name] = append(f.ifaces[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying())
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
				add(named.Underlying())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range f.pkgs {
		visit(pkg.Types)
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if lit, ok := n.(*ast.InterfaceType); ok {
					add(pkg.Info.TypeOf(lit))
				}
				return true
			})
		}
	}
}

// ParamUnits returns, for the declared function fn, one set per
// parameter of the internal/unit newtypes that call sites launder into
// that parameter through a bare float64(...) cast. A parameter whose
// set is empty never receives a laundered unit; a set with two or more
// entries means different call sites disagree about the parameter's
// dimension. Variadic tails are attributed to the final parameter.
// The fact is built once, on first use, from every call site in the
// fact base.
func (f *Facts) ParamUnits(fn *types.Func) []map[*types.Named]bool {
	if f.paramUnits == nil {
		f.buildParamUnits()
	}
	return f.paramUnits[fn]
}

// buildParamUnits scans every resolved call site for float64(unitX)
// arguments feeding float64 parameters.
func (f *Facts) buildParamUnits() {
	f.paramUnits = map[*types.Func][]map[*types.Named]bool{}
	for _, site := range f.Sites {
		info := f.Decls[site.Callee]
		if info == nil {
			continue // no body loaded: nothing to check inside it
		}
		sig, ok := site.Callee.Type().(*types.Signature)
		if !ok {
			continue
		}
		params := sig.Params()
		if params.Len() == 0 {
			continue
		}
		sets := f.paramUnits[site.Callee]
		if sets == nil {
			sets = make([]map[*types.Named]bool, params.Len())
			f.paramUnits[site.Callee] = sets
		}
		for ai, arg := range site.Call.Args {
			pi := ai
			if pi >= params.Len() {
				if !sig.Variadic() {
					break
				}
				pi = params.Len() - 1
			}
			if !isFloat64Param(params.At(pi).Type(), sig.Variadic() && pi == params.Len()-1) {
				continue
			}
			u := launderedUnit(site.Pkg.Info, arg)
			if u == nil {
				continue
			}
			if sets[pi] == nil {
				sets[pi] = map[*types.Named]bool{}
			}
			sets[pi][u] = true
		}
	}
}

// MutatesReceiver reports whether the declared method fn writes
// through its pointer receiver: it stores to a field or element reached
// from the receiver (a map write or an append to a field included),
// applies delete, clear or copy to such a container, or calls a method
// with this fact on the receiver or on something reached from it.
// Methods outside the loaded packages never have the fact, so the
// standard library's sync and sync/atomic types — the sanctioned way to
// share state between goroutines — are allowlisted by construction.
// Like the call graph, the fact errs quiet: a write through an alias, a
// function value or an interface is missed, never invented. It is built
// once, on first use.
func (f *Facts) MutatesReceiver(fn *types.Func) bool {
	if f.mutators == nil {
		f.buildMutators()
	}
	return f.mutators[fn]
}

// buildMutators marks the methods that write through their receiver
// directly, then propagates the fact up calls made on a receiver until
// no method changes.
func (f *Facts) buildMutators() {
	f.mutators = map[*types.Func]bool{}
	recvs := map[*types.Func]*types.Var{}
	for fn, info := range f.Decls { // order-free: the loop only fills sets
		recv := pointerReceiver(fn)
		if recv == nil || info.Decl.Body == nil {
			continue
		}
		recvs[fn] = recv
		if writesThrough(info.Pkg.Info, info.Decl.Body, recv) {
			f.mutators[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, site := range f.Sites {
			if site.Caller == nil || !f.mutators[site.Callee] {
				continue
			}
			caller, _ := site.Pkg.Info.Defs[site.Caller.Name].(*types.Func)
			recv := recvs[caller]
			if recv == nil || f.mutators[caller] {
				continue
			}
			if sel, ok := ast.Unparen(site.Call.Fun).(*ast.SelectorExpr); ok && reachedFrom(site.Pkg.Info, sel.X, recv) {
				f.mutators[caller] = true
				changed = true
			}
		}
	}
}

// pointerReceiver returns the named receiver variable of a method with
// a pointer receiver, or nil for functions, value receivers and
// unnamed receivers (which no statement can write through).
func pointerReceiver(fn *types.Func) *types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	recv := sig.Recv()
	if _, ok := recv.Type().(*types.Pointer); !ok || recv.Name() == "" || recv.Name() == "_" {
		return nil
	}
	return recv
}

// writesThrough reports whether body stores through v: an assignment
// or ++/-- whose target is reached from v, or delete, clear or copy
// into a container reached from v. Assigning to v itself rebinds a
// local and is not a write through it.
func writesThrough(info *types.Info, body *ast.BlockStmt, v *types.Var) bool {
	through := func(e ast.Expr) bool {
		if _, bare := ast.Unparen(e).(*ast.Ident); bare {
			return false
		}
		return reachedFrom(info, e, v)
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				found = found || through(lhs)
			}
		case *ast.IncDecStmt:
			found = found || through(n.X)
		case *ast.CallExpr:
			switch builtinName(info, n) {
			case "delete", "clear", "copy":
				found = found || (len(n.Args) > 0 && through(n.Args[0]))
			}
		}
		return !found
	})
	return found
}

// reachedFrom reports whether e is v or reads through it.
func reachedFrom(info *types.Info, e ast.Expr, v *types.Var) bool {
	id := rootIdent(e)
	return id != nil && info.Uses[id] == v
}

// isFloat64Param reports whether a parameter type is a bare float64
// (or, for a variadic tail, ...float64) — the only parameter shape a
// float64(...) cast can launder a unit into.
func isFloat64Param(t types.Type, variadicTail bool) bool {
	if variadicTail {
		if s, ok := t.(*types.Slice); ok {
			t = s.Elem()
		}
	}
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.Float64
}

// launderedUnit returns the internal/unit newtype that e erases via a
// float64(x) conversion, or nil when e is not such a cast.
func launderedUnit(info *types.Info, e ast.Expr) *types.Named {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return nil
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); !ok || b.Kind() != types.Float64 {
		return nil
	}
	return unitType(info.TypeOf(call.Args[0]))
}

// calleeOf resolves the *types.Func a call invokes through an
// identifier or selector, or nil for builtins, conversions, function
// values, and interface calls. For instantiated generics it returns
// the generic origin.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	case *ast.IndexListExpr:
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	}
	if id == nil {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	fn, _ := obj.(*types.Func)
	if fn == nil {
		return nil
	}
	if origin := fn.Origin(); origin != nil {
		return origin
	}
	return fn
}

// rootIdent unwraps an expression to the identifier at its base:
// selectors, index and slice expressions, dereferences, parens, and
// type assertions all reduce to the object they read through. Calls
// do not reduce (their result is a fresh value).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}
