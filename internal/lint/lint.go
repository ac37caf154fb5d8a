// Package lint is a small static-analysis framework plus the CoHoRT
// determinism lint suite. The simulator's headline property — every run is
// bit-reproducible — is a contract the Go compiler cannot check: a stray map
// iteration in a hot path, a wall-clock read, or an unseeded random source
// would silently produce runs that differ between executions while every test
// still passes. The analyzers in this package enforce that contract
// mechanically: seven per-package analyzers over the contract packages
// (internal/{sim,core,bus,cache,coherence,memctrl,sched,trace,opt,invariant,
// model,obs}) and four whole-program analyzers over a conservative call graph
// of everything loaded. Check runs the whole suite.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is built on the standard library only, so
// the repository stays dependency-free. Run the suite with the cohort-vet
// command:
//
//	go run ./cmd/cohort-vet ./...
//
// A diagnostic can be suppressed where the flagged construct is provably
// order-insensitive by annotating the flagged (or preceding) line with
//
//	//cohort:allow <analyzer-name>: <reason>
//
// The form — a registered analyzer name, the colon, a non-empty reason — is
// machine-checked by the allowdoc analyzer.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding of an analyzer.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one analyzer's view of a single type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	reporter
}

// Analyzer is one determinism check. Exactly one of Run (per-package,
// syntactic) and RunProgram (whole-program, over the conservative call graph)
// is set.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow-annotations.
	Name string
	// Doc is a one-paragraph description of the rule and its rationale.
	Doc string
	// Run reports diagnostics for one package via pass.Reportf.
	Run func(pass *Pass) error
	// RunProgram reports diagnostics over a whole Program via pass.Reportf.
	RunProgram func(pass *ProgramPass) error
}

// reporter collects one analyzer's diagnostics for a Pass or a ProgramPass,
// dropping those a //cohort:allow annotation naming the analyzer covers.
type reporter struct {
	fset  *token.FileSet
	allow map[allowKey]bool
	diags []Diagnostic
}

type allowKey struct {
	file string
	line int
}

// newReporter scans the comments of pkgs for //cohort:allow annotations
// naming a and records the source lines they cover: the annotation line
// itself and the line after it.
func newReporter(a *Analyzer, fset *token.FileSet, pkgs ...*Package) reporter {
	r := reporter{fset: fset, allow: make(map[allowKey]bool)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "cohort:allow") {
						continue
					}
					fields := strings.Fields(strings.TrimPrefix(text, "cohort:allow"))
					// The canonical form is "cohort:allow <analyzer>: <reason>"
					// (enforced by the allowdoc analyzer); the bare-name legacy
					// form still matches so a migration cannot un-suppress.
					if len(fields) == 0 || strings.TrimSuffix(fields[0], ":") != a.Name {
						continue
					}
					pos := fset.Position(c.Pos())
					r.allow[allowKey{pos.Filename, pos.Line}] = true
					r.allow[allowKey{pos.Filename, pos.Line + 1}] = true
				}
			}
		}
	}
	return r
}

// Reportf records a diagnostic unless an allow-annotation suppresses it.
func (r *reporter) Reportf(pos token.Pos, format string, args ...any) {
	p := r.fset.Position(pos)
	if r.allow[allowKey{p.Filename, p.Line}] {
		return
	}
	r.diags = append(r.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// sorted returns the diagnostics ordered by file, line, column and message.
func (r *reporter) sorted() []Diagnostic {
	sort.Slice(r.diags, func(i, j int) bool {
		pi, pj := r.fset.Position(r.diags[i].Pos), r.fset.Position(r.diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return r.diags[i].Message < r.diags[j].Message
	})
	return r.diags
}

// Analyzers returns the full determinism suite in a stable order: the
// per-package analyzers first, then the whole-program analyzers built on the
// conservative call graph.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapRangeAnalyzer,
		WallTimeAnalyzer,
		GlobalRandAnalyzer,
		EventGoroutineAnalyzer,
		FloatAccumAnalyzer,
		ExhaustiveAnalyzer,
		AllowDocAnalyzer,
		HotAllocAnalyzer,
		ReachContractAnalyzer,
		ParallelPureAnalyzer,
		LockOrderAnalyzer,
	}
}

// contractPackages are the packages the per-package analyzers check: the
// simulator and the code that runs inside or replays its event loop.
// Reporting and CLI packages (stats, experiments, vcd, cmd/*) may read the
// clock or format floats; simulator state may not. The whole-program
// analyzers are not limited to this set: reachability decides.
var contractPackages = map[string]bool{
	"cohort/internal/sim":       true,
	"cohort/internal/core":      true,
	"cohort/internal/bus":       true,
	"cohort/internal/cache":     true,
	"cohort/internal/coherence": true,
	"cohort/internal/memctrl":   true,
	"cohort/internal/sched":     true,
	"cohort/internal/trace":     true,
	"cohort/internal/opt":       true,
	"cohort/internal/invariant": true, // runs inside the simulator hot path
	"cohort/internal/model":     true, // exhaustive exploration must be reproducible
	// The observability layer feeds deterministic snapshots and traces; its
	// sole sanctioned wall-clock read (obs.WallClock.Now, manifests only)
	// carries a //cohort:allow annotation.
	"cohort/internal/obs": true,
}

// Check runs the whole suite over a loaded program: the per-package
// analyzers on every contract package prog matched, then the whole-program
// analyzers on all of prog over its call graph g. It returns the findings in
// that order, with file paths relative to root where possible, and the
// import paths of the contract packages it checked.
func Check(prog *Program, g *Graph, root string) ([]Finding, []string, error) {
	var findings []Finding
	collect := func(a *Analyzer, diags []Diagnostic) {
		for _, d := range diags {
			pos := prog.Fset.Position(d.Pos)
			findings = append(findings, RelFinding(a.Name, pos.Filename, pos.Line, pos.Column, d.Message, root))
		}
	}
	var checked []string
	for _, pkg := range prog.Pkgs {
		if !contractPackages[pkg.Path] {
			continue
		}
		checked = append(checked, pkg.Path)
		for _, a := range Analyzers() {
			if a.Run == nil {
				continue
			}
			diags, err := Run(a, pkg)
			if err != nil {
				return nil, nil, err
			}
			collect(a, diags)
		}
	}
	for _, a := range Analyzers() {
		if a.RunProgram == nil {
			continue
		}
		diags, err := RunOnProgram(a, prog, g)
		if err != nil {
			return nil, nil, err
		}
		collect(a, diags)
	}
	return findings, checked, nil
}

// Run executes one analyzer over a loaded package and returns its
// diagnostics sorted by position.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	if a.Run == nil {
		return nil, fmt.Errorf("lint: %s is a whole-program analyzer; use RunOnProgram", a.Name)
	}
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		reporter:  newReporter(a, pkg.Fset, pkg),
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
	}
	return pass.sorted(), nil
}

// inspectWithStack walks the AST keeping the ancestor stack, calling fn with
// each node and its ancestors (outermost first). Returning false from fn
// prunes the subtree.
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		keep := fn(n, stack)
		stack = append(stack, n)
		if !keep {
			// Still push/pop symmetrically: Inspect will not descend, so pop
			// immediately by returning false after removing the entry.
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// enclosingFunc returns the innermost function declaration or literal in the
// ancestor stack.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// funcBody returns the body of a FuncDecl or FuncLit.
func funcBody(fn ast.Node) *ast.BlockStmt {
	switch f := fn.(type) {
	case *ast.FuncDecl:
		return f.Body
	case *ast.FuncLit:
		return f.Body
	}
	return nil
}

// calleeFunc resolves the called function object of a call expression, if it
// is a named function or method.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
