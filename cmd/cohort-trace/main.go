// Command cohort-trace generates and inspects the synthetic SPLASH-2-shaped
// workload traces that drive the simulator.
//
// Usage:
//
//	cohort-trace -bench fft -cores 4 -scale 0.05 -seed 42 -out fft.trace
//	cohort-trace -bench ocean -summary
//	cohort-trace -list
package main

import (
	"flag"
	"fmt"
	"io"
	"math/bits"
	"os"

	"cohort"
	"cohort/internal/cliutil"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run generates, summarizes or lists traces as the flags select and
// returns the exit status: 0 on success, 2 for a bad flag, 1 for any other
// failure.
func run(args []string, stdout, stderr io.Writer) int {
	return cliutil.Status("cohort-trace", generate(args, stdout, stderr), stderr)
}

func generate(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cohort-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench   = fs.String("bench", "fft", "benchmark profile name")
		cores   = fs.Int("cores", 4, "number of cores")
		scale   = fs.Float64("scale", 0.05, "access-count scale factor (1.0 = paper-sized)")
		seed    = fs.Uint64("seed", 42, "generator seed")
		line    = fs.Int("line", 64, "cache line size in bytes")
		out     = fs.String("out", "", "write the trace to this file ('-' or empty = stdout unless -summary)")
		summary = fs.Bool("summary", false, "print per-core statistics instead of the trace")
		binform = fs.Bool("binary", false, "write the compact binary format instead of text")
		list    = fs.Bool("list", false, "list available benchmark profiles")
	)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	switch {
	case *cores < 1 || *cores > cohort.MaxCores:
		return cliutil.Usagef("-cores must be in [1, %d], got %d", cohort.MaxCores, *cores)
	case *line < 1 || bits.OnesCount(uint(*line)) != 1:
		return cliutil.Usagef("-line must be a positive power of two, got %d", *line)
	}
	// -list generates nothing, so -bench and the footprint half of the
	// -scale check apply only without it.
	var profiles []cohort.Profile
	if !*list {
		p, err := cohort.ProfileByName(*bench)
		if err != nil {
			return cliutil.Usagef("-bench: %v", err)
		}
		profiles = append(profiles, p)
	}
	if err := cohort.CheckScale(*scale, *line, profiles...); err != nil {
		return cliutil.Usagef("-scale: %v", err)
	}

	if *list {
		for _, p := range cohort.Profiles() {
			fmt.Fprintf(stdout, "%-10s %8d accesses/core  shared %4d lines  %2.0f%% writes\n",
				p.Name, p.AccessesPerCore, p.SharedLines, 100*p.PWrite)
		}
		return nil
	}

	tr := profiles[0].Scaled(*scale).Generate(*cores, *line, *seed)

	if *summary {
		fmt.Fprint(stdout, cohort.SummarizeTrace(tr, *line))
		return nil
	}
	if *out == "" || *out == "-" {
		return write(tr, stdout, *binform)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	err = write(tr, f, *binform)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %d accesses (%d cores) to %s\n", tr.TotalAccesses(), tr.NumCores(), *out)
	return nil
}

// write encodes the trace in the text or the binary format.
func write(tr *cohort.Trace, w io.Writer, binary bool) error {
	if binary {
		return tr.WriteBinary(w)
	}
	return tr.Write(w)
}
