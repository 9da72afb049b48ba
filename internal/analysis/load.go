package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path within the module.
	Path string
	// Dir is the directory the package's sources were read from.
	Dir string
	// Fset is the file set shared by every package of every Loader.
	Fset *token.FileSet
	// Files are the parsed non-test source files, sorted by file name;
	// for a TestOnly package, its _test.go files.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's maps for the package's files.
	Info *types.Info
	// TestOnly marks a directory made only of _test.go files, such as
	// the benchmark harness. It is a separate program: Run collects its
	// uses for deadexport and runs no analyzer on it.
	TestOnly bool
}

// Loader parses and type-checks packages of a single module, resolving
// in-module imports from source and standard-library imports through
// the stdlib source importer. It caches packages by import path, so a
// package shared by several roots is checked once. Every Loader in a
// process shares one file set and one standard-library importer, so
// the standard library is type-checked once however many loaders a
// process makes; loaders are not safe for concurrent use, with each
// other included.
type Loader struct {
	// ModuleRoot is the absolute path of the directory holding go.mod.
	ModuleRoot string
	// ModulePath is the module path declared in go.mod.
	ModulePath string

	fset    *token.FileSet
	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// stdFset and stdImporter are the file set and standard-library source
// importer every Loader shares.
var (
	stdFset        = token.NewFileSet()
	stdImporter, _ = importer.ForCompiler(stdFset, "source", nil).(types.ImporterFrom)
)

// NewLoader creates a loader for the module rooted at root (the
// directory containing go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, fmt.Errorf("analysis: resolving module root: %w", err)
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	if stdImporter == nil {
		return nil, fmt.Errorf("analysis: source importer does not implement ImporterFrom")
	}
	return &Loader{
		ModuleRoot: abs,
		ModulePath: modPath,
		fset:       stdFset,
		std:        stdImporter,
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// FindModuleRoot walks upward from dir to the nearest directory
// containing a go.mod file.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Load loads the package with the given in-module import path.
func (l *Loader) Load(path string) (*Package, error) {
	dir, ok := l.dirForPath(path)
	if !ok {
		return nil, fmt.Errorf("analysis: %s is not in module %s", path, l.ModulePath)
	}
	return l.LoadDirAs(dir, path)
}

// LoadDirAs parses and type-checks the non-test .go files in dir as a
// package with the given import path; a directory with no non-test
// file loads its _test.go files as a TestOnly package. The path does
// not have to match the directory: fixture tests use this to check
// testdata sources under a synthetic in-module path.
func (l *Loader) LoadDirAs(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDir(dir, false)
	testOnly := err == nil && len(files) == 0
	if testOnly {
		files, err = l.parseDir(dir, true)
	}
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: importerFunc(func(ipath string) (*types.Package, error) {
		if sub, ok := l.dirForPath(ipath); ok {
			p, err := l.LoadDirAs(sub, ipath)
			if err != nil {
				return nil, err
			}
			return p.Types, nil
		}
		return l.std.ImportFrom(ipath, dir, 0)
	})}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info, TestOnly: testOnly}
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadPatterns resolves command-line package patterns. Supported forms
// are "./..." (every package under the module root), "dir/..."
// (every package under dir), and plain directories like
// "./internal/phy". Results are sorted by import path.
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	seen := map[string]bool{}
	var pkgs []*Package
	add := func(dir string) error {
		path, ok := l.pathForDir(dir)
		if !ok {
			return fmt.Errorf("analysis: %s is outside module root %s", dir, l.ModuleRoot)
		}
		if seen[path] {
			return nil
		}
		seen[path] = true
		pkg, err := l.Load(path)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, pkg)
		return nil
	}
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "...")
		base = filepath.Clean(strings.TrimSuffix(base, "/"))
		if base == "" || base == "." {
			base = l.ModuleRoot
		} else if !filepath.IsAbs(base) {
			base = filepath.Join(l.ModuleRoot, base)
		}
		if !recursive {
			if err := add(base); err != nil {
				return nil, err
			}
			continue
		}
		dirs, err := goSourceDirs(base)
		if err != nil {
			return nil, err
		}
		for _, dir := range dirs {
			if err := add(dir); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// parseDir parses every non-test .go file in dir, or with tests set
// every _test.go file, sorted by name so that analysis order (and thus
// finding order) is deterministic.
func (l *Loader) parseDir(dir string, tests bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: reading %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") != tests {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// dirForPath maps an in-module import path to its source directory.
// The second result is false for paths outside the module.
func (l *Loader) dirForPath(path string) (string, bool) {
	if path == l.ModulePath {
		return l.ModuleRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// pathForDir maps a directory inside the module to its import path.
func (l *Loader) pathForDir(dir string) (string, bool) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", false
	}
	if rel == "." {
		return l.ModulePath, true
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), true
}

// goSourceDirs returns every directory under root that contains at
// least one .go file, skipping testdata, vendor, and hidden
// directories.
func goSourceDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: walking %s: %w", root, err)
	}
	return dirs, nil
}

// importerFunc adapts a function to both go/types importer interfaces.
type importerFunc func(path string) (*types.Package, error)

// Import implements types.Importer.
func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// ImportFrom implements types.ImporterFrom; the loader resolves paths
// without regard to the importing directory.
func (f importerFunc) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return f(path)
}
