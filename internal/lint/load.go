package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
)

// Package is one loaded, parsed and type-checked package ready for analysis.
// Only non-test files are loaded: the determinism contract binds simulator
// code, not its tests (tests may time out runs, seed math/rand, etc.).
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loaders need.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Standard   bool   // part of the standard library
	DepOnly    bool   // reached only as a dependency of the listed patterns
	Export     string // compiler export data file in the build cache
}

func isTestFile(name string) bool {
	base := filepath.Base(name)
	return len(base) > len("_test.go") && base[len(base)-len("_test.go"):] == "_test.go"
}

// check parses the files and runs the type checker over them.
func check(fset *token.FileSet, imp types.Importer, path string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %v", fn, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %v", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
