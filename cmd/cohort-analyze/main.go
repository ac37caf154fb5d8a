// Command cohort-analyze runs the paper's timing analysis without any
// simulation: per-core WCL (Eq. 1) and WCML bounds (Eq. 2/3), the θ_is
// saturation sweep, a task-set schedulability check, and the hardware
// overhead bill. It is the fast design-space companion to cohort-sim.
//
// Usage:
//
//	cohort-analyze -bench fft -timers 300,20,20,-1
//	cohort-analyze -bench lu  -timers 100,100,-1,-1 -deadlines 200000,0,0,0
//	cohort-analyze -bench fft -timers 300,20,20,20 -sweep
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"cohort"
	"cohort/internal/cliutil"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one analysis, writing its report to stdout and diagnostics
// to stderr, and returns the exit status: 0 on success, 2 for a bad flag, 1
// for any other failure.
func run(args []string, stdout, stderr io.Writer) int {
	return cliutil.Status("cohort-analyze", analyze(args, stdout, stderr), stderr)
}

func analyze(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cohort-analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench     = fs.String("bench", "fft", "benchmark profile")
		cores     = fs.Int("cores", 4, "number of cores")
		scale     = fs.Float64("scale", 0.05, "access-count scale factor")
		seed      = fs.Uint64("seed", 42, "trace generator seed")
		timers    = fs.String("timers", "300,20,20,-1", "comma-separated per-core timers")
		sweep     = fs.Bool("sweep", false, "print the θ_is saturation sweep per core")
		deadlines = fs.String("deadlines", "", "comma-separated per-core task deadlines in cycles (0 = none) for a schedulability check")
		levels    = fs.Int("levels", 1, "criticality levels (for the hardware bill)")
	)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	// Reject values no analysis can use before any work.
	switch {
	case *cores < 1 || *cores > cohort.MaxCores:
		return cliutil.Usagef("-cores must be in [1, %d], got %d", cohort.MaxCores, *cores)
	case *levels < 1 || *levels > cohort.MaxLevels:
		return cliutil.Usagef("-levels must be in [1, %d], got %d", cohort.MaxLevels, *levels)
	}
	ths, err := cliutil.ParseTimers(*timers, *cores)
	if err != nil {
		return err
	}
	var tasks []cohort.Task
	if *deadlines != "" {
		if tasks, err = parseDeadlines(*deadlines, *cores); err != nil {
			return cliutil.Usage(err)
		}
	}
	p, err := cohort.ProfileByName(*bench)
	if err != nil {
		return cliutil.Usagef("-bench: %v", err)
	}
	if err := cohort.CheckScale(*scale, 64, p); err != nil {
		return cliutil.Usagef("-scale: %v", err)
	}
	tr := p.Scaled(*scale).Generate(*cores, 64, *seed)
	cfg, err := cohort.NewCoHoRT(*cores, *levels, ths)
	if err != nil {
		return err
	}

	bounds, err := cohort.Bounds(cfg, tr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "workload %s (Λ = %d per core), timers %v\n\n", tr.Name, tr.Lambda(0), ths)
	fmt.Fprintln(stdout, "per-core analysis (Eq. 1 / Eq. 2-3):")
	for _, b := range bounds {
		fmt.Fprintf(stdout, "  core %d (θ=%-8v): WCL %6d, guaranteed hits %5d / misses %5d, WCML bound %10d\n",
			b.Core, b.Theta, b.WCL, b.MHit, b.MMiss, b.WCMLBound)
	}

	if *sweep {
		base := cohort.PaperDefaults(*cores, *levels)
		fmt.Fprintln(stdout, "\nθ_is saturation sweep:")
		for i, s := range tr.Streams {
			thIS, satHits := cohort.SaturationTimer(s, base.L1, base.Lat)
			fmt.Fprintf(stdout, "  core %d: θ_is = %5v (%d of %d accesses guaranteed at saturation)\n",
				i, thIS, satHits, len(s))
		}
	}

	if tasks != nil {
		vs, err := cohort.Admission(tasks, bounds, 1, *levels)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "\nschedulability:")
		for _, v := range vs {
			verdict := "OK"
			if !v.Schedulable() {
				verdict = "DEADLINE MISS POSSIBLE"
			}
			fmt.Fprintf(stdout, "  %s: WCET bound %d vs deadline %d — %s\n",
				v.Task.Name, v.WCET, v.Task.Deadline, verdict)
		}
		if cohort.SetSchedulable(vs) {
			fmt.Fprintln(stdout, "  task set schedulable")
		} else {
			fmt.Fprintln(stdout, "  task set NOT schedulable")
		}
	}

	rep, err := cohort.HardwareCost(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n%s\n", rep)
	return nil
}

// parseDeadlines parses one task deadline per core (0 = unconstrained) into
// the task set of the schedulability check.
func parseDeadlines(s string, n int) ([]cohort.Task, error) {
	parts := strings.Split(s, ",")
	tasks := make([]cohort.Task, len(parts))
	for i, p := range parts {
		d, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("-deadlines: bad deadline %q", p)
		}
		if d == 0 {
			d = 1 << 60 // unconstrained
		}
		tasks[i] = cohort.Task{
			Name:        fmt.Sprintf("task%d", i),
			Core:        i,
			Criticality: 1,
			Deadline:    d,
		}
	}
	if len(tasks) != n {
		return nil, fmt.Errorf("-deadlines has %d values for %d cores", len(tasks), n)
	}
	return tasks, nil
}
