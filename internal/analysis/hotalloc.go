package analysis

import (
	"go/ast"
	"go/types"
)

// Hotalloc flags per-iteration heap allocation inside loops marked
// with a `//lightpath:hotloop` directive comment on the line directly
// above the loop. The marked loops are the simulator's measured hot
// paths (circuit planning in internal/route, the fluid solver in
// internal/netsim): their steady-state cost is what `make bench`
// records, and an innocuous `make` or map literal reintroduced inside
// one silently regresses allocs/op. Flagged constructs are:
//
//   - calls to the make and new builtins, and composite literals of
//     slice or map type;
//   - indexing a map keyed by a type parameter — generic-map hashing
//     is exactly the cost the netsim solver's interned CSR layout
//     removed, and it must not creep back into a hot loop;
//   - append to a slice the function never preallocates (declared
//     `var s []T`, an empty literal, or capacity-less make, with no
//     3-arg make or `buf[:0]`-style scratch reuse anywhere in the
//     file) — such appends reallocate while they warm up.
//
// append to preallocated or scratch-backed slices stays legal
// (amortized into reused capacity), struct composite literals stay
// legal (they are values, not heap allocations, unless escape
// analysis says otherwise — which the benchmark gate, not a lexical
// check, polices), and appends to fields or other non-identifier
// targets are skipped (their backing discipline is not lexically
// visible).
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag allocation — make/new, slice/map literals, generic-map indexing, non-preallocated append — inside //lightpath:hotloop-marked loops",
	Run:  runHotalloc,
}

// hotloopDirective is the marker comment, written verbatim on its own
// line immediately above a for or range statement — or immediately
// above a func declaration (typically as the last line of its doc
// comment), which marks the entire function body as a hot region. The
// func-level form exists for per-request serve paths like the
// controller's Submit, where the whole body runs at request rate and a
// loop-granular mark would miss straight-line allocations.
const hotloopDirective = "//lightpath:hotloop"

func runHotalloc(pass *Pass) error {
	for _, file := range pass.Files {
		// Lines whose comment is exactly the directive.
		marked := map[int]bool{}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if c.Text == hotloopDirective {
					marked[pass.Fset.Position(c.Pos()).Line] = true
				}
			}
		}
		if len(marked) == 0 {
			continue
		}
		evidence := sliceAllocEvidence(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch node := n.(type) {
			case *ast.ForStmt:
				body = node.Body
			case *ast.RangeStmt:
				body = node.Body
			case *ast.FuncDecl:
				body = node.Body
			default:
				return true
			}
			if body == nil || !marked[pass.Fset.Position(n.Pos()).Line-1] {
				return true
			}
			checkHotLoopBody(pass, body, evidence)
			return true
		})
	}
	return nil
}

// allocEvidence summarizes how a slice variable is initialized across
// the file: prealloc records a capacity-establishing assignment (3-arg
// make, or re-slicing existing storage like `scratch[:0]`), bare
// records one that starts with no usable capacity.
type allocEvidence struct {
	prealloc, bare bool
}

// sliceAllocEvidence collects initialization evidence for every
// slice-typed identifier defined or assigned in the file. Expressions
// the check cannot classify (function calls, parameters, selectors)
// count as preallocated: the append rule only fires on provably bare
// slices, never on unknowns.
func sliceAllocEvidence(pass *Pass, file *ast.File) map[types.Object]*allocEvidence {
	ev := map[types.Object]*allocEvidence{}
	record := func(id *ast.Ident, rhs ast.Expr) {
		obj := pass.ObjectOf(id)
		if obj == nil || obj.Type() == nil {
			return
		}
		if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
			return
		}
		e := ev[obj]
		if e == nil {
			e = &allocEvidence{}
			ev[obj] = e
		}
		switch r := rhs.(type) {
		case nil:
			e.bare = true // var s []T
		case *ast.SliceExpr:
			e.prealloc = true // s := scratch[:0] — reuses backing storage
		case *ast.CompositeLit:
			e.bare = true // []T{...}: no headroom beyond the literal
		case *ast.CallExpr:
			switch builtinName(pass.Info, r) {
			case "make":
				if len(r.Args) >= 3 {
					e.prealloc = true
				} else {
					e.bare = true
				}
			case "append":
				// Growth, not initialization; no evidence either way.
			default:
				e.prealloc = true // unknown call: benefit of the doubt
			}
		default:
			e.prealloc = true
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					record(id, n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				var rhs ast.Expr
				if i < len(n.Values) {
					rhs = n.Values[i]
				}
				record(name, rhs)
			}
		}
		return true
	})
	return ev
}

// checkHotLoopBody reports every allocating construct lexically inside
// a marked loop body.
func checkHotLoopBody(pass *Pass, body *ast.BlockStmt, evidence map[types.Object]*allocEvidence) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch name := builtinName(pass.Info, n); name {
			case "make", "new":
				pass.Reportf(n.Pos(), "%s allocates inside a hot loop; hoist the buffer out of the loop or reuse scratch capacity", name)
			case "append":
				if len(n.Args) == 0 {
					return true
				}
				id, ok := n.Args[0].(*ast.Ident)
				if !ok {
					return true
				}
				if e := evidence[pass.ObjectOf(id)]; e != nil && e.bare && !e.prealloc {
					pass.Reportf(n.Pos(), "append to non-preallocated slice %s inside a hot loop; size it with make(_, 0, cap) or reuse scratch capacity", id.Name)
				}
			}
		case *ast.IndexExpr:
			t := pass.TypeOf(n.X)
			if t == nil {
				return true
			}
			if m, ok := t.Underlying().(*types.Map); ok {
				if _, ok := m.Key().(*types.TypeParam); ok {
					pass.Reportf(n.Pos(), "generic-map indexing inside a hot loop; intern keys to dense indices outside the loop")
				}
			}
		case *ast.CompositeLit:
			t := pass.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal allocates inside a hot loop; hoist the buffer out of the loop or reuse scratch capacity")
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal allocates inside a hot loop; hoist the map out of the loop and clear() it per iteration")
			}
		}
		return true
	})
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return ""
	}
	return id.Name
}
