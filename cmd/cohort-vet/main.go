// Command cohort-vet runs the CoHoRT determinism lint suite (internal/lint)
// over the simulator packages. The analyzers enforce the contract that makes
// every simulation bit-reproducible: no map-order dependence, no wall-clock
// reads, no global randomness, no concurrency inside event callbacks, and no
// floating-point leakage into cycle arithmetic. Two analyzers guard the
// protocol and the suppressions themselves: exhaustive requires switches over
// protocol enums to cover every member (or declare a default), and allowdoc
// requires every //cohort:allow annotation to use the canonical
// '//cohort:allow <analyzer>: <reason>' form with a registered analyzer.
//
// Four whole-program analyzers run over a conservative call graph of the
// entire module rather than file by file. Three guard the hot path: hotalloc
// (no allocation sites reachable from //cohort:hotpath roots), reachcontract
// (the determinism contracts enforced transitively from hot-path and oracle
// roots) and parallelpure (jobs handed to parallel.Map/MapErr may write only
// their index-addressed result slot). The fourth, lockorder, reports cycles
// in the global mutex-acquisition order graph: potential deadlocks.
//
// Usage:
//
//	go run ./cmd/cohort-vet [flags] [packages]
//
// Packages default to ./... and accept any `go list` pattern. The per-package
// analyzers check only the packages bound by the determinism contract
// (internal/{sim,core,bus,cache,coherence,memctrl,sched,trace,opt,invariant,
// model,obs}); the whole-program analyzers see every matched package, so a
// helper in a cold package that reaches the kernel is still caught. Exit
// status is 0 when clean, 1 for unbaselined findings, stale baseline entries
// or packages that fail to load, and 2 for a bad flag or patterns that match
// no contract package.
//
// Flags:
//
//	-baseline file   compare findings against a committed baseline: findings
//	                 listed there pass, new findings fail, stale entries fail
//	                 until pruned (the ratchet only shrinks)
//	-write-baseline  regenerate the -baseline file from the current findings
//	-json file       write the findings as a JSON report ("-" for stdout)
//	-graph           dump the conservative call graph and exit
//	-list            list the analyzers and exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"cohort/internal/cliutil"
	"cohort/internal/lint"
)

// report is the schema of the -json output.
type report struct {
	Packages  int            `json:"packages"`
	Analyzers []string       `json:"analyzers"`
	Findings  []lint.Finding `json:"findings"`
	Baseline  *baselineInfo  `json:"baseline,omitempty"`
}

type baselineInfo struct {
	File     string   `json:"file"`
	Accepted int      `json:"accepted"`
	Fresh    int      `json:"fresh"`
	Stale    []string `json:"stale,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the packages args name, writing findings to stdout and
// diagnostics to stderr, and returns the exit status: 0 when clean, 2 for a
// bad flag or patterns that match no contract package, 1 for findings, stale
// baseline entries or any other failure.
func run(args []string, stdout, stderr io.Writer) int {
	return cliutil.Status("cohort-vet", vet(args, stdout, stderr), stderr)
}

func vet(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cohort-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list          = fs.Bool("list", false, "list the analyzers and exit")
		baselinePath  = fs.String("baseline", "", "baseline `file` of accepted findings (ratcheted: new findings fail)")
		writeBaseline = fs.Bool("write-baseline", false, "regenerate the -baseline file from current findings")
		jsonOut       = fs.String("json", "", "write findings as a JSON report to `file` (\"-\" for stdout)")
		graph         = fs.Bool("graph", false, "dump the conservative whole-program call graph and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: cohort-vet [flags] [packages]\n\n")
		fmt.Fprintf(fs.Output(), "Runs the determinism lint suite over the simulator packages.\n")
		fs.PrintDefaults()
	}
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			kind := "package"
			if a.RunProgram != nil {
				kind = "program"
			}
			fmt.Fprintf(stdout, "%-16s [%s] %s\n", a.Name, kind, a.Doc)
		}
		return nil
	}
	if *writeBaseline && *baselinePath == "" {
		return cliutil.Usagef("-write-baseline requires -baseline <file>")
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := lint.LoadProgram(patterns...)
	if err != nil {
		return err
	}
	cg, err := lint.BuildGraph(prog)
	if err != nil {
		return err
	}
	if *graph {
		cg.Dump(stdout)
		return nil
	}

	cwd, _ := os.Getwd()
	findings, checked, err := lint.Check(prog, cg, cwd)
	if err != nil {
		return err
	}
	if len(checked) == 0 {
		return cliutil.Usagef("no contract packages matched %v", patterns)
	}

	rep := report{Packages: len(prog.Pkgs), Findings: findings}
	for _, a := range analyzers {
		rep.Analyzers = append(rep.Analyzers, a.Name)
	}

	if *writeBaseline {
		if err := os.WriteFile(*baselinePath, lint.FormatBaseline(findings), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "cohort-vet: wrote %s (%d finding(s))\n", *baselinePath, len(findings))
		return nil
	}

	fresh, stale := findings, []string(nil)
	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			return err
		}
		accepted, err := lint.ParseBaseline(data)
		if err != nil {
			return err
		}
		fresh, stale = lint.DiffBaseline(findings, accepted)
		rep.Baseline = &baselineInfo{File: *baselinePath, Accepted: len(accepted), Fresh: len(fresh), Stale: stale}
	}
	for _, f := range fresh {
		fmt.Fprintln(stdout, f)
	}
	for _, k := range stale {
		fmt.Fprintf(stdout, "stale baseline entry (finding no longer fires — prune with -write-baseline): %q\n", k)
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
	}

	if failed := len(fresh) + len(stale); failed > 0 {
		return fmt.Errorf("%d violation(s) across %d package(s)", failed, len(prog.Pkgs))
	}
	fmt.Fprintf(stdout, "cohort-vet: ok (%d packages, %d contract packages, %d analyzers)\n",
		len(prog.Pkgs), len(checked), len(analyzers))
	return nil
}
