package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// modulePath is the root package: the module's public API, whose
// exports exist for callers outside the module.
const modulePath = "lightpath"

// DeadExport reports an exported function, method, type, const or var
// of a non-main package that no loaded package uses outside its own
// declaration (the Used fact). The loader reads non-test files only,
// so an export that only tests reach is dead to the program: delete
// it, or move it into a _test.go file when tests need it. A package
// made only of _test.go files, such as the benchmark harness, is a
// separate program, so its uses count.
//
// Three rules exempt what the type checker cannot see called: a method
// that implements an interface method (ImplementsInterface) or the
// error protocol's Unwrap, Is and As, which errors calls through
// anonymous interfaces; a const in an iota block, whose deletion would
// renumber the constants after it; and the root lightpath package.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc:  "forbid exported API that no non-test code in the module uses",
	Run:  runDeadExport,
}

// errorProtocol names the methods errors.Unwrap, errors.Is and
// errors.As look up through anonymous interfaces.
var errorProtocol = map[string]bool{"Unwrap": true, "Is": true, "As": true}

func runDeadExport(pass *Pass) error {
	if pass.Pkg.Name() == "main" || pass.Pkg.Path() == modulePath || pass.Facts == nil {
		return nil
	}
	report := func(id *ast.Ident, kind string) {
		obj := pass.Info.Defs[id]
		if id.IsExported() && obj != nil && !pass.Facts.Used(obj) {
			pass.Reportf(id.Pos(), "exported %s %s has no use outside tests; delete it, or move it into a _test.go file", kind, id.Name)
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					report(d.Name, "func")
					continue
				}
				fn, _ := pass.Info.Defs[d.Name].(*types.Func)
				if fn != nil && !errorProtocol[d.Name.Name] && !pass.Facts.ImplementsInterface(fn) {
					report(d.Name, "method")
				}
			case *ast.GenDecl:
				if d.Tok == token.CONST && usesIota(pass.Info, d) {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						report(s.Name, "type")
					case *ast.ValueSpec:
						for _, name := range s.Names {
							report(name, d.Tok.String())
						}
					}
				}
			}
		}
	}
	return nil
}

// usesIota reports whether a const block's values mention iota.
func usesIota(info *types.Info, d *ast.GenDecl) bool {
	found := false
	for _, spec := range d.Specs {
		ast.Inspect(spec, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == types.Universe.Lookup("iota") {
				found = true
			}
			return !found
		})
	}
	return found
}
