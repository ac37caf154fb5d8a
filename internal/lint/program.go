package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Program is a whole-module view: every package type-checked against the
// *same* set of types.Package objects, so a *types.Func resolved through one
// package's Uses map is pointer-identical to the one in the defining
// package's Defs map. That identity is what lets the call graph
// (callgraph.go) follow an edge from a call site in internal/experiments into
// a method declared in internal/core. Importing module packages from export
// data cannot provide it: the imported objects are not the ones the source
// type-check of the defining package creates, so they never match.
type Program struct {
	Fset *token.FileSet
	// Pkgs are the packages matched by the load patterns, sorted by import
	// path. Dependency packages pulled in only for type identity are loaded
	// too but not listed here.
	Pkgs []*Package

	byPath map[string]*Package
}

// Package returns the loaded package with the given import path, or nil.
// Both pattern-matched and dependency-only packages are visible.
func (p *Program) Package(path string) *Package { return p.byPath[path] }

// exportImporter imports the packages a load does not type-check itself —
// the standard library, and whatever lies outside a LoadTree tree — from the
// compiler export data that `go list -export` reports. The local toolchain
// builds that data into the build cache, so no load type-checks the standard
// library from source.
type exportImporter struct {
	types.Importer                   // the gc importer, reading through open
	files          map[string]string // import path → export data file
}

func newExportImporter(fset *token.FileSet) *exportImporter {
	ei := &exportImporter{files: make(map[string]string)}
	ei.Importer = importer.ForCompiler(fset, "gc", ei.open)
	return ei
}

// add records the export data files of listed packages.
func (ei *exportImporter) add(pkgs []*listedPackage) {
	for _, lp := range pkgs {
		if lp.Export != "" {
			ei.files[lp.ImportPath] = lp.Export
		}
	}
}

// open hands the gc importer a package's export data, listing the package
// and its dependencies first when no earlier listing covered it.
func (ei *exportImporter) open(path string) (io.ReadCloser, error) {
	if _, ok := ei.files[path]; !ok {
		pkgs, err := goList(path)
		if err != nil {
			return nil, err
		}
		ei.add(pkgs)
	}
	file, ok := ei.files[path]
	if !ok {
		return nil, fmt.Errorf("lint: no export data for %s", path)
	}
	return os.Open(file)
}

// goList runs `go list -deps -export` over the patterns and returns the
// listed packages, each after its dependencies.
func goList(patterns ...string) ([]*listedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,Name,GoFiles,Standard,DepOnly,Export"}, patterns...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list -deps %v: %v\n%s", patterns, err, errb.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&out)
	for dec.More() {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %v", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// progImporter type-checks module-internal packages once, memoized, and
// imports the standard library from export data. Import resolution
// recurses: checking a package first imports — and thereby checks — its
// in-module dependencies, so packages are processed in topological order
// without an explicit sort.
type progImporter struct {
	fset     *token.FileSet
	listed   map[string]*listedPackage
	checked  map[string]*Package
	fallback *exportImporter
}

func (pi *progImporter) Import(path string) (*types.Package, error) {
	lp, ok := pi.listed[path]
	if !ok || lp.Standard {
		return pi.fallback.Import(path)
	}
	pkg, err := pi.ensure(lp)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

func (pi *progImporter) ensure(lp *listedPackage) (*Package, error) {
	if pkg, ok := pi.checked[lp.ImportPath]; ok {
		return pkg, nil
	}
	files := make([]string, len(lp.GoFiles))
	for i, f := range lp.GoFiles {
		files[i] = filepath.Join(lp.Dir, f)
	}
	pkg, err := check(pi.fset, pi, lp.ImportPath, files)
	if err != nil {
		return nil, err
	}
	pkg.Dir = lp.Dir
	pi.checked[lp.ImportPath] = pkg
	return pkg, nil
}

// LoadProgram expands the `go list` patterns and returns the matched packages
// plus their in-module dependencies as one consistently type-checked Program.
func LoadProgram(patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(patterns...)
	if err != nil {
		return nil, err
	}
	listed := make(map[string]*listedPackage)
	var matched []string
	for _, p := range pkgs {
		listed[p.ImportPath] = p
		if !p.Standard && !p.DepOnly && len(p.GoFiles) > 0 {
			matched = append(matched, p.ImportPath)
		}
	}
	sort.Strings(matched)

	fset := token.NewFileSet()
	pi := &progImporter{
		fset:     fset,
		listed:   listed,
		checked:  make(map[string]*Package),
		fallback: newExportImporter(fset),
	}
	pi.fallback.add(pkgs)
	prog := &Program{Fset: fset, byPath: pi.checked}
	for _, path := range matched {
		pkg, err := pi.ensure(listed[path])
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	return prog, nil
}

// treeImporter resolves import paths under a base path to subdirectories of a
// root directory — the loader behind LoadTree, which the golden tests use to
// assemble testdata programs that `go list` does not see.
type treeImporter struct {
	fset     *token.FileSet
	root     string
	base     string
	checked  map[string]*Package
	fallback *exportImporter
}

func (ti *treeImporter) Import(path string) (*types.Package, error) {
	if path != ti.base && !strings.HasPrefix(path, ti.base+"/") {
		return ti.fallback.Import(path)
	}
	if pkg, ok := ti.checked[path]; ok {
		return pkg.Types, nil
	}
	dir := filepath.Join(ti.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, ti.base), "/")))
	pkg, err := loadTreeDir(ti, dir, path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

func loadTreeDir(ti *treeImporter, dir, path string) (*Package, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []string
	for _, m := range matches {
		if !isTestFile(m) {
			files = append(files, m)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	sort.Strings(files)
	pkg, err := check(ti.fset, ti, path, files)
	if err != nil {
		return nil, err
	}
	pkg.Dir = dir
	ti.checked[path] = pkg
	return pkg, nil
}

// LoadTree loads every package under root (each directory holding .go files)
// as one Program with import paths base, base/<subdir>, … — cross-imports
// between them resolve to shared type objects exactly as in LoadProgram.
func LoadTree(root, base string) (*Program, error) {
	fset := token.NewFileSet()
	ti := &treeImporter{
		fset:     fset,
		root:     root,
		base:     base,
		checked:  make(map[string]*Package),
		fallback: newExportImporter(fset),
	}
	var paths []string
	err := filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err != nil || !info.IsDir() {
			return err
		}
		matches, _ := filepath.Glob(filepath.Join(p, "*.go"))
		if len(matches) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		path := base
		if rel != "." {
			path = base + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	prog := &Program{Fset: fset, byPath: ti.checked}
	for _, path := range paths {
		if _, err := ti.Import(path); err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, ti.checked[path])
	}
	return prog, nil
}

// ProgramPass carries one whole-program analyzer's view of a Program: every
// package at once, plus the conservative call graph built over them.
// Reportf honours //cohort:allow annotations exactly like the per-package
// Pass, with the allow index spanning every file in the program.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program
	Graph    *Graph

	reporter
}

// RunOnProgram executes one whole-program analyzer over a loaded Program and
// returns its diagnostics sorted by file position. The caller supplies the
// call graph so the (expensive) graph construction is shared between
// analyzers; pass nil to have one built on the fly.
func RunOnProgram(a *Analyzer, prog *Program, g *Graph) ([]Diagnostic, error) {
	if a.RunProgram == nil {
		return nil, fmt.Errorf("lint: %s is not a whole-program analyzer", a.Name)
	}
	if g == nil {
		var err error
		g, err = BuildGraph(prog)
		if err != nil {
			return nil, err
		}
	}
	pass := &ProgramPass{Analyzer: a, Prog: prog, Graph: g, reporter: newReporter(a, prog.Fset, prog.Pkgs...)}
	if err := a.RunProgram(pass); err != nil {
		return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
	}
	return pass.sorted(), nil
}
