package lint

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// golden runs one analyzer over the testdata tree testdata/src/<name>
// (loaded via LoadTree, so cross-package type identity holds) and compares
// its diagnostics against the `// want "regexp"` expectations in the
// sources — a stdlib re-implementation of the analysistest contract: every
// want line must produce a matching diagnostic, and every diagnostic must
// land on a want line. A per-package analyzer runs on each package of the
// tree.
func golden(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	root := filepath.Join("testdata", "src", name)
	prog, err := LoadTree(root, "cohort/lint-testdata/"+name)
	if err != nil {
		t.Fatalf("load tree %s: %v", root, err)
	}
	var files []*ast.File
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		files = append(files, pkg.Files...)
		if a.Run != nil {
			d, err := Run(a, pkg)
			if err != nil {
				t.Fatalf("run %s: %v", a.Name, err)
			}
			diags = append(diags, d...)
		}
	}
	if a.RunProgram != nil {
		if diags, err = RunOnProgram(a, prog, nil); err != nil {
			t.Fatalf("run %s: %v", a.Name, err)
		}
	}
	checkWants(t, prog.Fset, files, diags)
}

// checkWants compares diagnostics against the `// want "regexp"` expectations
// embedded in the given files: every want line must produce a matching
// diagnostic, and every diagnostic must land on a want line.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key]*regexp.Regexp{}
	matched := map[key]bool{}
	wantRe := regexp.MustCompile(`// want ("(?:[^"\\]|\\.)*")`)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat, err := strconv.Unquote(m[1])
				if err != nil {
					t.Fatalf("bad want pattern %s: %v", m[1], err)
				}
				pos := fset.Position(c.Pos())
				wants[key{pos.Filename, pos.Line}] = regexp.MustCompile(pat)
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		re, ok := wants[k]
		if !ok {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
			continue
		}
		if !re.MatchString(d.Message) {
			t.Errorf("%s:%d: diagnostic %q does not match want %q",
				filepath.Base(pos.Filename), pos.Line, d.Message, re)
		}
		matched[k] = true
	}
	for k := range wants {
		if !matched[k] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none",
				filepath.Base(k.file), k.line, wants[k])
		}
	}
}

func TestMapRangeGolden(t *testing.T)       { golden(t, MapRangeAnalyzer, "maprange") }
func TestWallTimeGolden(t *testing.T)       { golden(t, WallTimeAnalyzer, "walltime") }
func TestGlobalRandGolden(t *testing.T)     { golden(t, GlobalRandAnalyzer, "globalrand") }
func TestEventGoroutineGolden(t *testing.T) { golden(t, EventGoroutineAnalyzer, "eventgoroutine") }
func TestFloatAccumGolden(t *testing.T)     { golden(t, FloatAccumAnalyzer, "floataccum") }
func TestExhaustiveGolden(t *testing.T)     { golden(t, ExhaustiveAnalyzer, "exhaustive") }
func TestAllowDocGolden(t *testing.T)       { golden(t, AllowDocAnalyzer, "allowdoc") }

// TestAnalyzerMetadata pins the suite roster: exactly these analyzers, in
// this order, each documented and of one kind. The names are stable because
// annotations reference them.
func TestAnalyzerMetadata(t *testing.T) {
	var names []string
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if (a.Run == nil) == (a.RunProgram == nil) {
			t.Errorf("analyzer %q must set exactly one of Run (per-package) and RunProgram (whole-program)", a.Name)
		}
		names = append(names, a.Name)
	}
	want := []string{"maprange", "walltime", "globalrand", "eventgoroutine", "floataccum", "exhaustive", "allowdoc", "hotalloc", "reachcontract", "parallelpure", "lockorder"}
	if !slices.Equal(names, want) {
		t.Errorf("suite = %v, want %v", names, want)
	}
}

// TestRepositoryLintsClean is the in-process equivalent of
// `go run ./cmd/cohort-vet ./...`: the repository satisfies every analyzer,
// and the per-package analyzers cover every contract package.
func TestRepositoryLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	prog, err := LoadProgram("cohort/...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	g, err := BuildGraph(prog)
	if err != nil {
		t.Fatalf("build graph: %v", err)
	}
	findings, checked, err := Check(prog, g, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
	want := []string{
		"cohort/internal/bus",
		"cohort/internal/cache",
		"cohort/internal/coherence",
		"cohort/internal/core",
		"cohort/internal/invariant",
		"cohort/internal/memctrl",
		"cohort/internal/model",
		"cohort/internal/obs",
		"cohort/internal/opt",
		"cohort/internal/sched",
		"cohort/internal/sim",
		"cohort/internal/trace",
	}
	if !slices.Equal(checked, want) {
		t.Errorf("checked contract packages %v, want %v", checked, want)
	}
}

// TestAllowAnnotationScope checks the annotation only suppresses the named
// analyzer, not the whole suite.
func TestAllowAnnotationScope(t *testing.T) {
	pkg := loadSource(t, "scope", strings.Join([]string{
		"package scope",
		"import \"time\"",
		"func f(m map[int]int) time.Time {",
		"\t//cohort:allow maprange: counting only",
		"\tfor range m {",
		"\t}",
		"\treturn time.Now()",
		"}",
		"",
	}, "\n"))
	if diags, _ := Run(MapRangeAnalyzer, pkg); len(diags) != 0 {
		t.Errorf("maprange not suppressed by annotation: %v", diags)
	}
	diags, err := Run(WallTimeAnalyzer, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Errorf("walltime diagnostics = %d, want 1 (annotation must not leak across analyzers)", len(diags))
	}
}

// TestAllowDocEmptyReason covers the bare-reason diagnostic separately from
// the golden (a `// want` marker appended to the annotation would itself
// become the reason text).
func TestAllowDocEmptyReason(t *testing.T) {
	pkg := loadSource(t, "reason", strings.Join([]string{
		"package reason",
		"//cohort:allow walltime:",
		"func f() {}",
		"",
	}, "\n"))
	diags, err := Run(AllowDocAnalyzer, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "no reason") {
		t.Fatalf("empty-reason annotation diagnostics = %v, want one 'no reason' finding", diags)
	}
}

// loadSource type-checks src as the one file of a package named name.
func loadSource(t *testing.T, name, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{name + ".go": src})
	prog, err := LoadTree(dir, "cohort/lint-testdata/"+name)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Pkgs[0]
}
