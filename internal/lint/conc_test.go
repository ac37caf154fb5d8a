package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestLockOrderGolden(t *testing.T) { golden(t, LockOrderAnalyzer, "lockorder") }

// TestConcurrencyMutants is the seeded-regression gate CI runs as its own
// step: lockorder must keep flagging its committed mutant under
// testdata/mutants/lockorder, so it cannot silently rot into a no-op.
func TestConcurrencyMutants(t *testing.T) {
	t.Run("lockorder", func(t *testing.T) {
		root := filepath.Join("testdata", "mutants", "lockorder")
		prog, err := LoadTree(root, "cohort/mutant/lockorder")
		if err != nil {
			t.Fatalf("load %s: %v", root, err)
		}
		diags, err := RunOnProgram(LockOrderAnalyzer, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		var msgs []string
		for _, d := range diags {
			if strings.Contains(d.Message, "lock-order cycle") {
				return
			}
			msgs = append(msgs, d.Message)
		}
		t.Fatalf("lockorder fails open: no lock-order cycle among its diagnostics on the mutant %v", msgs)
	})
}

// TestLockOrderCleanSequential pins the no-false-positive side interprocedurally:
// consistent A-then-B ordering through a callee must stay silent.
func TestLockOrderCleanSequential(t *testing.T) {
	msgs := runSeeded(t, LockOrderAnalyzer, map[string]string{
		"m/m.go": `package m

import "sync"

var a, b sync.Mutex
var n int

func lockB() {
	b.Lock()
	defer b.Unlock()
	n++
}

func One() {
	a.Lock()
	defer a.Unlock()
	lockB()
}

func Two() {
	a.Lock()
	defer a.Unlock()
	b.Lock()
	n++
	b.Unlock()
}
`,
	})
	if len(msgs) != 0 {
		t.Fatalf("consistent ordering produced diagnostics: %v", msgs)
	}
}
