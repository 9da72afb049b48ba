package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// rngPath is the one package allowed to own entropy; everything else
// must draw randomness from its seeded, splittable streams.
const rngPath = "lightpath/internal/rng"

// Determinism enforces that every run of the simulator is bit-for-bit
// reproducible from its seed. It forbids wall-clock reads (time.Now,
// time.Since, time.Until) and math/rand imports outside
// internal/rng, forbids process-environment reads (os.Getenv,
// os.LookupEnv, os.Environ, os.ExpandEnv) inside internal/ packages —
// simulation behavior must flow from explicit options and seeds, never
// ambient machine state — forbids sync.Pool, whose reuse order the
// runtime chooses (and randomizes under -race), so scratch lives in a
// field its owner resets — and flags range-over-map loops whose bodies feed
// order-sensitive sinks: formatted output, appends that are never
// sorted, non-associative accumulation (float or string), channel
// sends, and returns of iteration-dependent values. Map ranges that
// only count, write other maps, or append into a subsequently sorted
// slice are deterministic and pass.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, global rand, sync.Pool, and map-iteration-order-dependent results outside internal/rng",
	Run:  runDeterminism,
}

// forbiddenTimeFuncs are the time package entry points that read the
// wall clock. Constructors like time.Date and conversions are fine.
var forbiddenTimeFuncs = map[string]bool{
	"time.Now":   true,
	"time.Since": true,
	"time.Until": true,
}

// forbiddenEnvFuncs are the os package entry points that read the
// process environment — ambient, machine-dependent state that must
// never steer a simulation. The ban covers internal/ packages only:
// command-line front ends may translate environment into explicit
// options, which is exactly where such a read belongs.
var forbiddenEnvFuncs = map[string]bool{
	"os.Getenv":    true,
	"os.LookupEnv": true,
	"os.Environ":   true,
	"os.ExpandEnv": true,
}

func runDeterminism(pass *Pass) error {
	if pass.Pkg.Path() == rngPath {
		return nil
	}
	isInternal := strings.HasPrefix(pass.Pkg.Path(), internalPrefix)
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s is forbidden outside %s; use the seeded splittable streams in %s", path, rngPath, rngPath)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn := calleeFunc(pass, n); fn != nil {
					if forbiddenTimeFuncs[fn.FullName()] {
						pass.Reportf(n.Pos(), "%s reads the wall clock and breaks reproducibility; thread simulated unit.Seconds instead", fn.FullName())
					}
					if isInternal && forbiddenEnvFuncs[fn.FullName()] {
						pass.Reportf(n.Pos(), "%s reads the process environment inside an internal package; thread configuration through explicit options and seeds instead", fn.FullName())
					}
				}
			case *ast.SelectorExpr:
				if tn, ok := pass.ObjectOf(n.Sel).(*types.TypeName); ok && tn.Pkg() != nil && tn.Pkg().Path() == "sync" && tn.Name() == "Pool" {
					pass.Reportf(n.Pos(), "sync.Pool hands buffers back in an order the runtime chooses; keep reusable scratch in a field its owner resets")
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapRanges(pass, n.Body)
				}
			}
			return true
		})
	}
	return nil
}

// checkMapRanges walks a function body and reports every range over a
// map whose body contains an order-sensitive sink.
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if sink := orderSensitiveSink(pass, rs, body); sink != "" {
			pass.Reportf(rs.Pos(), "map iteration order feeds %s; collect and sort the keys first (iteration order is randomized by the runtime)", sink)
		}
		return true
	})
}

// orderSensitiveSink returns a description of the first construct in
// the range body whose result depends on map iteration order, or ""
// if the body looks order-insensitive. scope is the enclosing function
// body, consulted to see whether appended-to slices are later sorted.
func orderSensitiveSink(pass *Pass, rs *ast.RangeStmt, scope *ast.BlockStmt) string {
	loopVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.ObjectOf(id); obj != nil {
				loopVars[obj] = true
			}
		}
	}
	var sink string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if s := callSink(pass, n, scope); s != "" {
				sink = s
			}
		case *ast.AssignStmt:
			if s := assignSink(pass, n); s != "" {
				sink = s
			}
		case *ast.SendStmt:
			sink = "a channel send"
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if exprUsesAny(pass, res, loopVars) {
					sink = "a return value derived from the iteration variable"
				}
			}
		}
		return true
	})
	return sink
}

// callSink classifies calls inside a map-range body: formatted output
// is always a sink; append is a sink unless the destination slice is
// sorted later in the enclosing function.
func callSink(pass *Pass, call *ast.CallExpr, scope *ast.BlockStmt) string {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "print", "println":
				return "output (builtin " + id.Name + ")"
			case "append":
				return appendSink(pass, call, scope)
			}
		}
	}
	fn := calleeFunc(pass, call)
	if fn == nil {
		return ""
	}
	name := fn.FullName()
	if strings.HasPrefix(name, "fmt.Print") || strings.HasPrefix(name, "fmt.Fprint") {
		return "formatted output (" + name + ")"
	}
	return ""
}

// appendSink reports append as order-sensitive unless the slice being
// built is passed to a sort call later in the enclosing function.
func appendSink(pass *Pass, call *ast.CallExpr, scope *ast.BlockStmt) string {
	if len(call.Args) == 0 {
		return ""
	}
	dest, ok := call.Args[0].(*ast.Ident)
	if !ok {
		// Appending to a field or index expression: we cannot track a
		// later sort of it, so treat it as order-sensitive.
		return "an append to a composite destination"
	}
	obj := pass.ObjectOf(dest)
	if obj == nil {
		return ""
	}
	if sliceIsSorted(pass, obj, scope) {
		return ""
	}
	return "an append whose result is never sorted"
}

// sliceIsSorted reports whether obj appears in an argument to a
// sort.* or slices.Sort* call anywhere in scope. The ident may be
// nested — sort.Sort(byID(dst[start:])) sorts dst's appended tail just
// as surely as sort.Slice(dst, ...) sorts the whole.
func sliceIsSorted(pass *Pass, obj types.Object, scope *ast.BlockStmt) bool {
	sorted := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		pkg := fn.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
					sorted = true
				}
				return !sorted
			})
		}
		return true
	})
	return sorted
}

// assignSink flags compound assignments whose operation is not
// associative-and-commutative over the operand type: float arithmetic
// and string concatenation give different results under different
// iteration orders.
func assignSink(pass *Pass, as *ast.AssignStmt) string {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return ""
	}
	for _, lhs := range as.Lhs {
		t := pass.TypeOf(lhs)
		if t == nil {
			continue
		}
		switch b := t.Underlying().(type) {
		case *types.Basic:
			info := b.Info()
			if info&types.IsFloat != 0 || info&types.IsComplex != 0 {
				return "non-associative float accumulation"
			}
			if info&types.IsString != 0 && as.Tok == token.ADD_ASSIGN {
				return "order-dependent string concatenation"
			}
		}
	}
	return ""
}

// exprUsesAny reports whether the expression mentions any of the given
// objects.
func exprUsesAny(pass *Pass, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[pass.ObjectOf(id)] {
			found = true
		}
		return !found
	})
	return found
}

// calleeFunc resolves the *types.Func a call invokes, or nil for
// builtins, conversions, and indirect calls through variables. It is
// the per-pass face of the fact base's resolver.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	return calleeOf(pass.Info, call)
}
