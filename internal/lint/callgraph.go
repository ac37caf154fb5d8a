package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// HotKind classifies a function's //cohort:hotpath annotation.
type HotKind uint8

const (
	// HotNone: no annotation; the function is hot only if reached from a root.
	HotNone HotKind = iota
	// HotFull marks a hot-path root: the full contract (zero allocation and
	// determinism) binds the function and everything it reaches.
	HotFull
	// HotDeterminism marks a determinism-only root (the oracle entry points):
	// reachcontract traverses it, hotalloc does not — the oracle may allocate
	// but must stay reproducible.
	HotDeterminism
	// HotExempt cuts the traversal: the function and its callees are excluded
	// from whole-program hot-path analysis (opt-in debug machinery such as
	// invariant checking that runs inside the loop but is off in production).
	// Per-package analyzers still cover exempt code.
	HotExempt
)

func (k HotKind) String() string {
	switch k {
	case HotFull:
		return "hotpath"
	case HotDeterminism:
		return "hotpath determinism"
	case HotExempt:
		return "hotpath exempt"
	}
	return "-"
}

// CGNode is one function in the conservative call graph: a declared function
// or method (Obj non-nil) or a function literal (Lit non-nil).
type CGNode struct {
	Obj  *types.Func
	Lit  *ast.FuncLit
	Body *ast.BlockStmt
	Pkg  *Package
	Name string
	Hot  HotKind
	Pos  token.Pos

	// Calls lists callee nodes in first-encounter order, deduplicated.
	Calls []*CGNode

	calleeSet map[*CGNode]bool
}

func (n *CGNode) addCall(callee *CGNode) {
	if callee == nil || n.calleeSet[callee] {
		return
	}
	if n.calleeSet == nil {
		n.calleeSet = make(map[*CGNode]bool)
	}
	n.calleeSet[callee] = true
	n.Calls = append(n.Calls, callee)
}

// Graph is the conservative whole-program call graph over a Program. Edges
// over-approximate execution:
//
//   - static calls and concrete method calls resolve to their declaration;
//   - interface method calls fan out to every module type implementing the
//     interface (class-hierarchy analysis);
//   - a function literal is linked from the function that creates it — the
//     literal runs, or escapes, only if its creator runs;
//   - calls through function *values* (fields, parameters, stored closures)
//     produce no edge. This is the documented unsoundness: a function stored
//     cold and invoked hot is not traversed. The creation-site rule covers
//     the common shapes (a closure built in hot code is itself a hotalloc
//     finding), and the runtime allocation ceiling backstops the rest.
type Graph struct {
	Prog  *Program
	Nodes []*CGNode

	byObj map[*types.Func]*CGNode
	byLit map[*ast.FuncLit]*CGNode

	namedTypes []types.Type // concrete named types across the program, for CHA
}

// NodeByObj returns the node for a declared function, or nil.
func (g *Graph) NodeByObj(f *types.Func) *CGNode { return g.byObj[f] }

// NodeByLit returns the node for a function literal, or nil.
func (g *Graph) NodeByLit(lit *ast.FuncLit) *CGNode { return g.byLit[lit] }

// BuildGraph constructs the conservative call graph for a loaded Program.
// It fails on a malformed //cohort:hotpath annotation (unknown qualifier):
// a typo there would silently shrink the checked surface.
func BuildGraph(prog *Program) (*Graph, error) {
	g := &Graph{
		Prog:  prog,
		byObj: make(map[*types.Func]*CGNode),
		byLit: make(map[*ast.FuncLit]*CGNode),
	}
	g.collectNamedTypes()

	// Pass 1: a node per declared function with a body.
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				hot, err := hotAnnotation(prog.Fset, fd.Doc)
				if err != nil {
					return nil, err
				}
				n := &CGNode{
					Obj:  obj,
					Body: fd.Body,
					Pkg:  pkg,
					Name: funcDisplayName(obj),
					Hot:  hot,
					Pos:  fd.Name.Pos(),
				}
				g.byObj[obj] = n
				g.Nodes = append(g.Nodes, n)
			}
		}
	}

	// Pass 2: a node per function literal, linked from its creator. The walk
	// tracks the innermost enclosing node so nested literals chain correctly.
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			g.collectLiterals(pkg, f)
		}
	}

	// Pass 3: call edges from each node's own statements (nested literal
	// bodies belong to the literal's node).
	for _, n := range g.Nodes {
		g.addCallEdges(n)
	}
	return g, nil
}

// collectNamedTypes gathers every concrete named type declared in the
// program's packages, in deterministic (package path, name) order — the CHA
// candidate set for interface dispatch.
func (g *Graph) collectNamedTypes() {
	for _, pkg := range g.Prog.Pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue // generic types are skipped (cannot be soundly instantiated here)
			}
			if types.IsInterface(named) {
				continue
			}
			g.namedTypes = append(g.namedTypes, named)
		}
	}
}

// collectLiterals creates literal nodes for one file, each linked from its
// innermost enclosing function's node. Ancestors are visited before their
// literals, so the enclosing node always exists by the time a literal needs
// it. Literals outside any function (package-level var initializers) get a
// node but no creator edge — they are unreachable by construction, one of the
// documented approximations.
func (g *Graph) collectLiterals(pkg *Package, file *ast.File) {
	litCount := make(map[*CGNode]int)
	inspectWithStack(file, func(n ast.Node, stack []ast.Node) bool {
		x, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		var parent *CGNode
		switch enc := enclosingFunc(stack).(type) {
		case *ast.FuncDecl:
			if obj, ok := pkg.Info.Defs[enc.Name].(*types.Func); ok {
				parent = g.byObj[obj]
			}
		case *ast.FuncLit:
			parent = g.byLit[enc]
		}
		name := fmt.Sprintf("%s.lit@%d", pkg.Types.Name(), g.Prog.Fset.Position(x.Pos()).Line)
		if parent != nil {
			litCount[parent]++
			name = fmt.Sprintf("%s$%d", parent.Name, litCount[parent])
		}
		node := &CGNode{
			Lit:  x,
			Body: x.Body,
			Pkg:  pkg,
			Name: name,
			Pos:  x.Pos(),
		}
		g.byLit[x] = node
		g.Nodes = append(g.Nodes, node)
		if parent != nil {
			parent.addCall(node)
		}
		return true
	})
}

// addCallEdges resolves every call expression in n's own statements.
func (g *Graph) addCallEdges(n *CGNode) {
	own := func(node ast.Node) bool {
		lit, ok := node.(*ast.FuncLit)
		return !ok || lit == n.Lit
	}
	info := n.Pkg.Info
	var walk func(ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(x ast.Node) bool {
			if x == nil {
				return true
			}
			if !own(x) {
				return false // nested literal: its node owns these calls
			}
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			g.resolveCall(n, info, call)
			return true
		})
	}
	if n.Lit != nil {
		walk(n.Lit.Body)
	} else {
		walk(n.Body)
	}
}

// resolveCall adds edges for one call expression.
func (g *Graph) resolveCall(n *CGNode, info *types.Info, call *ast.CallExpr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			n.addCall(g.byObj[origin(f)])
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			recv := sel.Recv()
			if iface, ok := recv.Underlying().(*types.Interface); ok {
				g.addInterfaceEdges(n, iface, sel.Obj().Name())
				return
			}
			if f, ok := sel.Obj().(*types.Func); ok {
				n.addCall(g.byObj[origin(f)])
			}
			return
		}
		// Package-qualified call (pkg.Fn) or method expression used directly.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			n.addCall(g.byObj[origin(f)])
		}
	}
}

// addInterfaceEdges fans an interface method call out to every concrete
// module type implementing the interface (CHA).
func (g *Graph) addInterfaceEdges(n *CGNode, iface *types.Interface, method string) {
	for _, t := range g.namedTypes {
		named := t.(*types.Named)
		if !types.Implements(t, iface) && !types.Implements(types.NewPointer(t), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, named.Obj().Pkg(), method)
		if f, ok := obj.(*types.Func); ok {
			n.addCall(g.byObj[origin(f)])
		}
	}
}

// origin maps an instantiated generic function or method back to its
// declaration object, which is what Defs recorded at the declaration site.
func origin(f *types.Func) *types.Func { return f.Origin() }

// hotAnnotation parses a //cohort:hotpath annotation out of a doc comment.
func hotAnnotation(fset *token.FileSet, doc *ast.CommentGroup) (HotKind, error) {
	if doc == nil {
		return HotNone, nil
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if !strings.HasPrefix(text, "cohort:hotpath") {
			continue
		}
		rest := strings.TrimSpace(strings.TrimPrefix(text, "cohort:hotpath"))
		switch rest {
		case "":
			return HotFull, nil
		case "determinism":
			return HotDeterminism, nil
		case "exempt":
			return HotExempt, nil
		default:
			return HotNone, fmt.Errorf("lint: %s: unknown //cohort:hotpath qualifier %q (want none, determinism, or exempt)",
				fset.Position(c.Pos()), rest)
		}
	}
	return HotNone, nil
}

// Reachable computes the set of nodes reachable from roots annotated with one
// of the given kinds, excluding HotExempt nodes (the traversal does not enter
// them). The returned parent map reconstructs one shortest call path per node
// for diagnostics; roots map to nil.
func (g *Graph) Reachable(kinds ...HotKind) (map[*CGNode]bool, map[*CGNode]*CGNode) {
	want := make(map[HotKind]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	seen := make(map[*CGNode]bool)
	parent := make(map[*CGNode]*CGNode)
	var queue []*CGNode
	for _, n := range g.Nodes {
		if want[n.Hot] {
			seen[n] = true
			parent[n] = nil
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Calls {
			if seen[c] || c.Hot == HotExempt {
				continue
			}
			seen[c] = true
			parent[c] = n
			queue = append(queue, c)
		}
	}
	return seen, parent
}

// CallPath renders the call chain from a root to n, e.g.
// "core.(*System).HandleEvent → core.(*System).coreWake". Long chains keep
// the root and the last hops.
func CallPath(parent map[*CGNode]*CGNode, n *CGNode) string {
	var names []string
	for cur := n; cur != nil; cur = parent[cur] {
		names = append(names, cur.Name)
		if parent[cur] == nil {
			break
		}
	}
	// names is leaf..root; reverse.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	const max = 6
	if len(names) > max {
		head := names[:2]
		tail := names[len(names)-3:]
		names = append(append(append([]string{}, head...), "…"), tail...)
	}
	return strings.Join(names, " → ")
}

// Dump writes a deterministic text rendering of the graph: every node with
// its annotation and outgoing edges, sorted by name, then the hot-path
// reachability roster. Used by cohort-vet -graph for debugging.
func (g *Graph) Dump(w io.Writer) {
	nodes := append([]*CGNode(nil), g.Nodes...)
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Name != nodes[j].Name {
			return nodes[i].Name < nodes[j].Name
		}
		return g.Prog.Fset.Position(nodes[i].Pos).Offset < g.Prog.Fset.Position(nodes[j].Pos).Offset
	})
	hot, _ := g.Reachable(HotFull)
	det, _ := g.Reachable(HotFull, HotDeterminism)
	for _, n := range nodes {
		marks := ""
		if n.Hot != HotNone {
			marks = " [" + n.Hot.String() + "]"
		}
		switch {
		case hot[n]:
			marks += " (hot)"
		case det[n]:
			marks += " (determinism)"
		}
		fmt.Fprintf(w, "%s%s\n", n.Name, marks)
		var callees []string
		for _, c := range n.Calls {
			callees = append(callees, c.Name)
		}
		sort.Strings(callees)
		for _, c := range callees {
			fmt.Fprintf(w, "\t→ %s\n", c)
		}
	}
}

// funcDisplayName renders a compact package-qualified name:
// "core.(*System).HandleEvent" or "sim.New".
func funcDisplayName(f *types.Func) string {
	pkg := "?"
	if f.Pkg() != nil {
		pkg = f.Pkg().Name()
	}
	sig, ok := f.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
			ptr = "*"
		}
		if named, isNamed := t.(*types.Named); isNamed {
			return pkg + ".(" + ptr + named.Obj().Name() + ")." + f.Name()
		}
	}
	return pkg + "." + f.Name()
}
