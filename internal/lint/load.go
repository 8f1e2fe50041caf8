package lint

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

// Package is one type-checked package of the module (non-test files only:
// the analyzers guard production invariants, and test code is exempt by
// design — see the package doc).
type Package struct {
	Path  string // import path
	Dir   string // absolute directory, empty for synthetic packages
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is a set of packages the analyzers run over. Diagnostics are only
// reported for packages in Pkgs; cross-package facts (e.g. chargelint's
// uncharged-accessor set) are computed over the loader's full universe.
type Module struct {
	Root string
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Package

	loader *Loader
	cg     *CallGraph // memoized by Module.CallGraph
}

// Universe returns every package the underlying loader has type-checked,
// including dependencies of synthetic packages.
func (m *Module) Universe() []*Package {
	return m.loader.universe()
}

// Loader parses and type-checks packages of one Go module using only the
// standard library: module-internal imports are resolved against the module
// tree, and standard-library imports are type-checked from GOROOT source via
// go/importer's "source" compiler. No go/packages, no export data, no
// external processes.
type Loader struct {
	root    string
	modPath string
	fset    *token.FileSet
	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader builds a loader rooted at the module directory containing go.mod.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	return &Loader{
		root:    abs,
		modPath: modPath,
		fset:    fset,
		std:     std,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
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
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		abs = parent
	}
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// LoadModule type-checks every package directory under the module root
// (skipping testdata, hidden and underscore-prefixed directories) and
// returns them as a Module sorted by import path.
func (l *Loader) LoadModule() (*Module, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	m := &Module{Root: l.root, Path: l.modPath, Fset: l.fset, loader: l}
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return nil, err
		}
		importPath := l.modPath
		if rel != "." {
			importPath = l.modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(importPath)
		if err != nil {
			return nil, err
		}
		m.Pkgs = append(m.Pkgs, pkg)
	}
	return m, nil
}

func (l *Loader) universe() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// load type-checks the module-internal package with the given import path,
// memoized.
func (l *Loader) load(importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	dir := l.root
	if importPath != l.modPath {
		rel, ok := strings.CutPrefix(importPath, l.modPath+"/")
		if !ok {
			return nil, fmt.Errorf("lint: %s is not a package of module %s", importPath, l.modPath)
		}
		dir = filepath.Join(l.root, filepath.FromSlash(rel))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var filenames []string
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			filenames = append(filenames, filepath.Join(dir, name))
		}
	}
	if len(filenames) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	sort.Strings(filenames)
	files, err := l.parseFiles(filenames)
	if err != nil {
		return nil, err
	}
	return l.check(importPath, dir, files)
}

func (l *Loader) parseFiles(filenames []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *Loader) check(importPath, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var firstErr error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Sizes:    types.SizesFor("gc", "amd64"),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{Path: importPath, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// loaderImporter adapts Loader to types.ImporterFrom: module-internal paths
// go through the loader, everything else through the source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, 0)
}
