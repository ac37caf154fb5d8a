// Package cliutil unifies the flag surface and runtime plumbing the cohort
// CLIs share: the worker count (-j), artifact output (-out-dir), profiling
// (-cpuprofile, -memprofile), the timer-list parser, and the exit status a
// rejected flag maps to. A tool registers one Common and gets identical
// flag names, help strings and semantics. Every diagnostic a tool prints
// goes to its stderr writer with fmt; observation is post-hoc, through the
// -out-dir artifacts.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"cohort/internal/config"
)

// Common holds the shared flag values of one CLI invocation. Register the
// groups a tool needs, Parse, then use the accessors.
type Common struct {
	Tool string

	// Work flags (RegisterWork).
	Jobs int

	// Artifact flag (RegisterObs).
	OutDir string

	// Profiling flags (RegisterProfile).
	CPUProfile string
	MemProfile string
}

// New returns a Common for the named tool.
func New(tool string) *Common {
	return &Common{Tool: tool}
}

// RegisterWork installs the parallelism flag -j. Results are independent of
// it (the deterministic-parallelism contract), and its help text says so.
func (c *Common) RegisterWork(fs *flag.FlagSet) {
	fs.IntVar(&c.Jobs, "j", 0, "evaluation workers (1 = serial, <1 = NumCPU); output is identical for every value")
}

// RegisterObs installs the artifact flag -out-dir.
func (c *Common) RegisterObs(fs *flag.FlagSet) {
	fs.StringVar(&c.OutDir, "out-dir", "", "write a run manifest (and tool-specific artifacts) into this directory")
}

// RegisterProfile installs the profiling flags: -cpuprofile and
// -memprofile.
func (c *Common) RegisterProfile(fs *flag.FlagSet) {
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
}

// StartProfiles starts the CPU profile when -cpuprofile is set and returns
// a stop function that finishes it and writes the heap profile when
// -memprofile is set. The stop function is never nil; defer it
// unconditionally. Heap-profile failures are printed to stderr, not fatal —
// the run's results are already out by then.
func (c *Common) StartProfiles(stderr io.Writer) (func(), error) {
	var cpuFile *os.File
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if c.MemProfile == "" {
			return
		}
		f, err := os.Create(c.MemProfile)
		if err != nil {
			fmt.Fprintf(stderr, "%s: memprofile: %v\n", c.Tool, err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "%s: memprofile: %v\n", c.Tool, err)
		}
	}, nil
}

// usageError is a flag value a tool rejects. Status maps it to exit 2, as
// the flag package's own parse errors.
type usageError struct{ error }

// Usage marks err, which names the flag, as a rejected flag value.
func Usage(err error) error { return usageError{err} }

// Usagef returns a rejected-flag-value error with a formatted message that
// names the flag.
func Usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// ParseTimers parses -timers, one architectural timer per core: −1 (MSI),
// 0 (no caching) or a countdown up to config.TimerMax. Any other list is a
// rejected flag value.
func ParseTimers(s string, n int) ([]config.Timer, error) {
	parts := strings.Split(s, ",")
	out := make([]config.Timer, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return nil, Usagef("-timers: bad timer %q: %v", p, err)
		}
		if out[i] = config.Timer(v); !out[i].Valid() {
			return nil, Usagef("-timers: timer %d outside [-1, %d]", v, config.TimerMax)
		}
	}
	if len(out) != n {
		return nil, Usagef("-timers has %d values for %d cores", len(out), n)
	}
	return out, nil
}

// errFlagSyntax reports flags the flag package rejected; it has already
// printed why, with the usage.
var errFlagSyntax = errors.New("bad flags")

// Parse parses args into fs, which must use flag.ContinueOnError. It
// returns flag.ErrHelp for -h, and for any flag the package rejects an
// error Status maps to exit 2 without printing it again.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errFlagSyntax
	}
	return nil
}

// Status returns the exit status of a run that ended with err, printing
// err tool-prefixed to stderr unless Parse has already reported it: 0 for
// success or -h, 2 for a bad flag, 1 for any other failure.
func Status(tool string, err error, stderr io.Writer) int {
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errFlagSyntax):
		return 2
	}
	fmt.Fprintln(stderr, tool+":", err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}
