package analysis

import (
	"strings"
)

// internalPrefix is the import-path prefix of the packages the
// layering rules govern.
const internalPrefix = "lightpath/internal/"

// LayerRanks assigns each internal package a layer; a package may only
// import internal packages with a strictly lower rank. Ranks are
// spaced by ten so new packages can slot between existing layers
// without renumbering. Keys are paths relative to internal/; a nested
// package (ctrl/loadgen) may declare its own rank, and otherwise
// inherits the rank of its closest declared ancestor.
//
// The bottom layer (rank 0) holds the leaf vocabulary of the whole
// system — physical quantities (unit), deterministic randomness (rng),
// torus geometry (torus), and this analysis framework — and must not
// import any internal package. The photonic substrate (phy, wafer)
// sits strictly below scheduling and experiment logic, so the paper's
// link-budget math can never grow a dependency on policy code.
var LayerRanks = map[string]int{
	"analysis":     0,
	"chaos":        10,
	"engine":       0,
	"bench":        0,
	"rng":          0,
	"snapshot":     0,
	"unit":         0,
	"evloop":       10,
	"sketch":       10,
	"torus":        10,
	"collective":   20,
	"phy":          20,
	"alloc":        30,
	"cost":         30,
	"hostnet":      30,
	"netsim":       30,
	"sched":        30,
	"wafer":        30,
	"topo":         35,
	"route":        40,
	"viz":          40,
	"failure":      50,
	"invariant":    50,
	"fleet":        55,
	"core":         60,
	"ctrl":         62,
	"ctrl/loadgen": 64,
	"experiments":  70,
}

// rankOf resolves a package path (relative to internal/) to its layer:
// the longest declared prefix wins, so "ctrl/loadgen" finds its own
// entry while an undeclared "ctrl/internal-helper" would inherit
// "ctrl"'s rank rather than demand a new map entry.
func rankOf(rel string) (int, bool) {
	for {
		if r, ok := LayerRanks[rel]; ok {
			return r, true
		}
		i := strings.LastIndex(rel, "/")
		if i < 0 {
			return 0, false
		}
		rel = rel[:i]
	}
}

// Layering enforces the package dependency DAG declared in LayerRanks:
// every internal package must appear in the map, and may import only
// internal packages of strictly lower rank. This keeps unit and rng
// leaf-clean and keeps the physical-layer packages (phy, wafer) from
// ever depending on scheduling, allocation, or experiment drivers.
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "enforce the internal package dependency DAG declared in LayerRanks",
	Run:  runLayering,
}

func runLayering(pass *Pass) error {
	self, ok := strings.CutPrefix(pass.Pkg.Path(), internalPrefix)
	if !ok {
		return nil // cmd, examples, and the root package are unconstrained
	}
	selfRank, known := rankOf(self)
	if !known {
		pass.Reportf(pass.Files[0].Name.Pos(), "package %s is not in the layering map; declare its rank in internal/analysis/layering.go", pass.Pkg.Path())
		return nil
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			dep, ok := strings.CutPrefix(path, internalPrefix)
			if !ok {
				continue
			}
			depRank, known := rankOf(dep)
			if !known {
				pass.Reportf(imp.Pos(), "import %s is not in the layering map; declare its rank in internal/analysis/layering.go", path)
				continue
			}
			if depRank >= selfRank {
				pass.Reportf(imp.Pos(), "layer violation: %s (layer %d) must not import %s (layer %d)", pass.Pkg.Path(), selfRank, path, depRank)
			}
		}
	}
	return nil
}
