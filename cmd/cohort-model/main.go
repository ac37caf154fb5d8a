// Command cohort-model exhaustively model-checks the CoHoRT protocol: it
// enumerates every quiescent state reachable within a bounded number of
// event windows on a small configuration, replaying each candidate schedule
// through the real simulator with invariant checking enabled. A violation is
// reported as a minimized counterexample script, written to -out, replayable
// with -replay and renderable as a Perfetto trace with -chrome.
//
// Usage:
//
//	cohort-model -smoke                          # the CI tier (2 cores, 1 line, 2 modes)
//	cohort-model -smoke -depth 3                 # deeper exploration
//	cohort-model -config internal/model/testdata/smoke3.json -depth 3
//	cohort-model -smoke -mutate timer-release-skew -out cex.txt
//	cohort-model -replay cex.txt -chrome cex.json
//
// Exit status: 0 when exploration (or replay) finds no violation, 1 when it
// finds one or fails, 2 for a bad flag.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"cohort/internal/cliutil"
	"cohort/internal/config"
	"cohort/internal/model"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run explores or replays as the flags say, writing the report to stdout
// and progress and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	return cliutil.Status("cohort-model", check(args, stdout, stderr), stderr)
}

func check(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cohort-model", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		smoke      = fs.Bool("smoke", false, "explore the smoke configuration (2 cores, 1 line, 2 modes, θ ∈ {−1,0,2,5})")
		configFile = fs.String("config", "", "explore a platform from this config JSON file instead of -smoke")
		lines      = fs.String("lines", "0x1000", "comma-separated byte addresses of the lines to exercise (with -config)")
		depth      = fs.Int("depth", 2, "exploration depth in windows")
		gaps       = fs.String("gaps", "", "override the gap menu: comma-separated post-quiescence cycles, each below the window stride")
		offsets    = fs.String("offsets", "", "override the race-offset menu: comma-separated intra-window cycles, each in [0, 65535]")
		noPairs    = fs.Bool("no-pairs", false, "disable two-command race windows (faster, shallower)")
		noSym      = fs.Bool("no-symmetry", false, "disable symmetry reduction over identical cores")
		mutate     = fs.String("mutate", "", "arm a seeded protocol fault: "+strings.Join(model.MutationNames(), " | "))
		out        = fs.String("out", "counterexample.txt", "write the minimized counterexample script here on violation")
		replayFile = fs.String("replay", "", "replay a counterexample script instead of exploring")
		chrome     = fs.String("chrome", "", "with -replay: write a Perfetto/Chrome trace of the replay here")
		quiet      = fs.Bool("q", false, "suppress per-level progress")
	)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case *mutate != "" && !slices.Contains(model.MutationNames(), *mutate):
		return cliutil.Usagef("-mutate: unknown fault %q (have %s)", *mutate, strings.Join(model.MutationNames(), ", "))
	case *chrome != "" && *replayFile == "":
		return cliutil.Usagef("-chrome needs -replay")
	case set["lines"] && *configFile == "":
		return cliutil.Usagef("-lines needs -config")
	case *replayFile != "":
		return replay(*replayFile, *chrome, *mutate, stdout)
	case *smoke && *configFile != "":
		return cliutil.Usagef("-smoke and -config are mutually exclusive")
	case !*smoke && *configFile == "":
		return cliutil.Usagef("need -smoke, -config or -replay")
	}

	mcfg := model.Smoke(*depth)
	if *configFile != "" {
		addrs, err := parseList("-lines", *lines, strconv.ParseUint)
		if err != nil {
			return err
		}
		raw, err := os.ReadFile(*configFile)
		if err != nil {
			return err
		}
		sys, err := config.ParseJSON(raw)
		if err != nil {
			return fmt.Errorf("%s: %w", *configFile, err)
		}
		mcfg = model.Config{Sys: sys, Lines: addrs, Depth: *depth}
	}
	var err error
	if *gaps != "" {
		if mcfg.PostGaps, err = parseList("-gaps", *gaps, strconv.ParseInt); err != nil {
			return err
		}
	}
	if *offsets != "" {
		if mcfg.RaceOffsets, err = parseList("-offsets", *offsets, strconv.ParseInt); err != nil {
			return err
		}
	}
	mcfg.Pairs, mcfg.Symmetry, mcfg.Mutation = !*noPairs, !*noSym, *mutate
	if !*quiet {
		mcfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	// Every value the checker refuses came from the command line.
	c, err := model.New(mcfg)
	if err != nil {
		return cliutil.Usage(err)
	}
	res, err := c.Explore()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "cohort-model: %d states, %d runs, depth %d\n", res.States, res.Runs, res.Depth)
	if res.Violation == nil {
		fmt.Fprintln(stdout, "cohort-model: no violations")
		return nil
	}
	v := res.Violation
	fmt.Fprintf(stdout, "cohort-model: VIOLATION [%s]\n  %s\n  script:    %s\n  minimized: %s\n",
		v.Kind, v.Err, model.Describe(v.Script), model.Describe(v.Minimized))
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := model.WriteScript(f, c.Sys(), c.Lines(), v.Minimized); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "cohort-model: counterexample written to %s (replay with -replay %s)\n", *out, *out)
	return fmt.Errorf("%s violation", v.Kind)
}

// replay re-executes a counterexample script through a checker rebuilt from
// the script's embedded configuration, with the named fault armed.
func replay(path, chrome, mutation string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sys, lines, script, err := model.ParseScript(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	c, err := model.New(model.Config{Sys: sys, Lines: lines, Pairs: true, Mutation: mutation})
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var res *model.ReplayOutcome
	if chrome != "" {
		cf, err := os.Create(chrome)
		if err != nil {
			return err
		}
		if res, err = c.ReplayChrome(script, cf); err != nil {
			cf.Close()
			return err
		}
		if err := cf.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "cohort-model: chrome trace written to %s (load at ui.perfetto.dev)\n", chrome)
	} else if res, err = c.Replay(script); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "cohort-model: replayed %s\n", model.Describe(script))
	if res.Violation == nil {
		fmt.Fprintln(stdout, "cohort-model: replay clean (no violation)")
		return nil
	}
	fmt.Fprintf(stdout, "cohort-model: VIOLATION [%s]\n  %s\n", res.Violation.Kind, res.Violation.Err)
	return fmt.Errorf("%s violation", res.Violation.Kind)
}

// parseList parses a comma-separated list flag, each entry in any base
// strconv accepts, naming the flag in a rejection. The checker range-checks
// the entries.
func parseList[T any](flagName, s string, parse func(string, int, int) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(part), 0, 64)
		if err != nil {
			return nil, cliutil.Usagef("%s: bad entry %q", flagName, part)
		}
		out = append(out, v)
	}
	return out, nil
}
