// Command cohort-sim runs one cycle-accurate simulation: a workload (a named
// synthetic benchmark or a trace file) on a platform (CoHoRT with explicit
// timers, or one of the paper's baselines), printing per-core measurements
// and, when available, the analytical WCML bounds next to them.
//
// Usage:
//
//	cohort-sim -bench fft -timers 300,20,20,20
//	cohort-sim -bench radix -system pendulum -crit 1,1,0,0
//	cohort-sim -trace fft.trace -system pcc
//	cohort-sim -bench fft -timers 300,20,20,-1 -switch 5000:2
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"cohort"
	"cohort/internal/cliutil"
	"cohort/internal/experiments"
	"cohort/internal/obs"
	"cohort/internal/parallel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one simulation, writing its report to stdout and
// diagnostics to stderr, and returns the exit status: 0 on success, 2 for a
// bad flag, 1 for any other failure.
func run(args []string, stdout, stderr io.Writer) int {
	return cliutil.Status("cohort-sim", simulate(args, stdout, stderr), stderr)
}

func simulate(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("cohort-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cu := cliutil.New("cohort-sim")
	cu.RegisterObs(fs)
	cu.RegisterProfile(fs)
	var (
		bench      = fs.String("bench", "fft", "benchmark profile (ignored with -trace)")
		traceFile  = fs.String("trace", "", "read the workload from this trace file (text or binary)")
		dinFiles   = fs.String("din", "", "comma-separated Dinero (.din) files, one per core")
		cores      = fs.Int("cores", 4, "number of cores")
		scale      = fs.Float64("scale", 0.05, "access-count scale factor")
		seed       = fs.Uint64("seed", 42, "trace generator seed")
		system     = fs.String("system", "cohort", "platform: cohort | pcc | pendulum | msifcfs")
		timers     = fs.String("timers", "", "comma-separated per-core timers for cohort (e.g. 300,20,20,-1)")
		crit       = fs.String("crit", "", "comma-separated 0/1 criticality mask for pendulum (default: all critical)")
		nonperfect = fs.Bool("nonperfect", false, "use the non-perfect LLC with a fixed-latency DRAM")
		switches   = fs.String("switch", "", "scheduled mode switches as cycle:mode[,cycle:mode...] (cohort with levels)")
		levels     = fs.Int("levels", 1, "number of criticality levels/modes")
		mesi       = fs.Bool("mesi", false, "use the MESI snooping protocol instead of MSI")
		hist       = fs.Bool("hist", false, "print per-core latency histograms")
		hwOverhead = fs.Bool("hwcost", false, "print the CoHoRT hardware-overhead report")
		vcdFile    = fs.String("vcd", "", "write a Value Change Dump of the run to this file")
		checkInv   = fs.Bool("check", false, "validate protocol invariants after every bus transaction (slower)")
		chromeFile = fs.String("chrome", "", "write a Chrome trace (Perfetto) of the run to this file")
		attr       = fs.Bool("attr", false, "register the per-core WCML latency-attribution metrics (with -out-dir: included in the manifest snapshot)")
	)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	// Reject values no simulation can use before any work.
	switch {
	case *cores < 1 || *cores > cohort.MaxCores:
		return cliutil.Usagef("-cores must be in [1, %d], got %d", cohort.MaxCores, *cores)
	case *levels < 1 || *levels > cohort.MaxLevels:
		return cliutil.Usagef("-levels must be in [1, %d], got %d", cohort.MaxLevels, *levels)
	case *crit != "" && *system != "pendulum":
		return cliutil.Usagef("-crit applies only to -system pendulum, not %q", *system)
	}
	// A trace file or Dinero files replace the generated workload, and with
	// it -bench and the footprint half of the -scale check.
	var profiles []cohort.Profile
	if *traceFile == "" && *dinFiles == "" {
		p, err := cohort.ProfileByName(*bench)
		if err != nil {
			return cliutil.Usage(err)
		}
		profiles = append(profiles, p)
	}
	if err := cohort.CheckScale(*scale, 64, profiles...); err != nil {
		return cliutil.Usagef("-scale: %v", err)
	}

	stopProfiles, err := cu.StartProfiles(stderr)
	if err != nil {
		return err
	}
	defer stopProfiles()

	w, err := loadTrace(*traceFile, *dinFiles, profiles, *cores, *scale, *seed)
	if err != nil {
		return err
	}
	// A binary trace file is still decoding while the run starts. Every
	// path waits for it: the file stays open until then, and a decode error
	// outranks any other, as if the file had been decoded first.
	defer func() {
		if derr := w.close(); derr != nil {
			err = derr
		}
	}()
	tr := w.tr
	n := tr.NumCores()

	var cfg *cohort.SystemConfig
	switch *system {
	case "cohort":
		ths, err := parseTimers(*timers, n)
		if err != nil {
			return err
		}
		cfg, err = cohort.NewCoHoRT(n, *levels, ths)
		if err != nil {
			return err
		}
	case "pcc":
		cfg = cohort.NewPCC(n)
	case "pendulum":
		mask, err := parseMask(*crit, n)
		if err != nil {
			return err
		}
		cfg = cohort.NewPENDULUM(mask)
	case "msifcfs":
		cfg = cohort.NewMSIFCFS(n)
	default:
		return cliutil.Usagef("unknown -system %q", *system)
	}
	if *nonperfect {
		cfg.PerfectLLC = false
	}
	if *mesi {
		cfg.Snoop = cohort.SnoopMESI
	}
	if *checkInv {
		cfg.CheckInvariants = true
	}

	sys, err := cohort.NewSystem(cfg, tr)
	if err != nil {
		return err
	}
	if w.dec != nil {
		if err := sys.Follow(w.dec); err != nil {
			return err
		}
	}
	// The bounds read whole streams: compute them on a second goroutine
	// once the decode is done, beside the run.
	var (
		bounds    []cohort.CoreBound
		boundsErr error
		boundsEnd = make(chan struct{})
	)
	go func() {
		defer close(boundsEnd)
		if boundsErr = w.wait(); boundsErr == nil {
			bounds, boundsErr = cohort.Bounds(cfg, tr)
		}
	}()
	defer func() { <-boundsEnd }()
	var (
		reg *obs.Registry
		rec *obs.Recorder
	)
	if cu.OutDir != "" {
		reg = obs.NewRegistry()
		if err := sys.SetMetrics(reg); err != nil {
			return err
		}
		if *attr {
			if err := sys.RegisterAttribution(reg); err != nil {
				return err
			}
		}
	}
	if *chromeFile != "" {
		rec = obs.NewRecorder()
		if err := sys.SetRecorder(rec); err != nil {
			return err
		}
	}
	var closeVCD func() error
	if *vcdFile != "" {
		f, err := os.Create(*vcdFile)
		if err != nil {
			return err
		}
		defer f.Close()
		rec, err := cohort.NewVCDRecorder(f, n)
		if err != nil {
			return err
		}
		if err := sys.SetTracer(rec); err != nil {
			return err
		}
		closeVCD = func() error {
			if err := rec.Close(); err != nil {
				return err
			}
			return f.Close()
		}
	}
	sws, err := parseSwitches(*switches)
	if err != nil {
		return err
	}
	for _, sw := range sws {
		if err := sys.ScheduleModeSwitch(sw.at, sw.mode); err != nil {
			return cliutil.Usagef("-switch: %w", err)
		}
	}
	run, err := sys.Run()
	<-boundsEnd
	if boundsErr != nil {
		return boundsErr
	}
	if err != nil {
		return err
	}
	if err := sys.CheckCoherence(); err != nil {
		return fmt.Errorf("coherence check failed: %w", err)
	}

	fmt.Fprintf(stdout, "workload %s on %s (%d cores, arbiter %s, %s transfers, perfect LLC %v)\n",
		tr.Name, *system, n, cfg.Arbiter, cfg.Transfer, cfg.PerfectLLC)
	fmt.Fprint(stdout, run)
	fmt.Fprintln(stdout, "per-core WCML (measured vs analytical bound):")
	for i := range run.Cores {
		b := bounds[i]
		bound := "unbounded"
		if b.WCMLBound != cohort.Unbounded {
			bound = fmt.Sprintf("%d", b.WCMLBound)
		}
		fmt.Fprintf(stdout, "  core %d (θ=%v): measured %d, bound %s, guaranteed hits %d (achieved %d)\n",
			i, b.Theta, run.Cores[i].TotalLatency, bound, b.MHit, run.Cores[i].Hits)
	}
	if *hist {
		for i := range run.Cores {
			fmt.Fprintf(stdout, "core %d latency distribution:\n%s", i, run.Cores[i].Latency.String())
		}
	}
	if *hwOverhead {
		rep, err := cohort.HardwareCost(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, rep)
	}
	if closeVCD != nil {
		if err := closeVCD(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote waveform to %s\n", *vcdFile)
	}
	if rec != nil {
		f, err := os.Create(*chromeFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.WriteChrome(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote chrome trace to %s (load at ui.perfetto.dev)\n", *chromeFile)
	}
	if reg != nil {
		clk := obs.WallClock{}
		man := obs.NewManifest("cohort-sim", clk)
		man.Args = args
		// The key covers the full platform description and the workload
		// content; the simulator is single-threaded, so workers is always 1.
		cfgJSON, err := json.Marshal(cfg)
		if err != nil {
			return err
		}
		k := parallel.NewKey("cohort-sim/config").Bytes(cfgJSON).Str(experiments.Fingerprint(tr)).Str(*switches)
		man.ConfigKey = hex.EncodeToString([]byte(k.Sum()))
		man.Traces = []obs.TraceRef{{Name: tr.Name, Fingerprint: experiments.Fingerprint(tr)}}
		man.Seed = int64(*seed)
		man.Workers = 1
		man.Metrics = reg.Snapshot()
		man.Finish(clk)
		path, err := man.Write(cu.OutDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote manifest to %s\n", path)
	}
	return nil
}

// workload is the trace a run reads. A binary trace file is still being
// decoded from file, behind dec, when loadTrace returns.
type workload struct {
	tr   *cohort.Trace
	dec  *cohort.TraceDecoding
	file *os.File
}

// wait waits for the decode, if there is one, and returns its error.
func (w *workload) wait() error {
	if w.dec == nil {
		return nil
	}
	_, err := w.dec.Wait()
	return err
}

// close waits for the decode, closes the file and returns the decode's
// error.
func (w *workload) close() error {
	err := w.wait()
	if w.file != nil {
		w.file.Close()
	}
	return err
}

// loadTrace reads the workload from Dinero files or a trace file, or else
// generates it from the one profile in profiles.
func loadTrace(path, din string, profiles []cohort.Profile, cores int, scale float64, seed uint64) (*workload, error) {
	if din != "" {
		var streams []cohort.Stream
		for _, f := range strings.Split(din, ",") {
			fh, err := os.Open(strings.TrimSpace(f))
			if err != nil {
				return nil, err
			}
			s, err := cohort.ParseDinero(fh)
			fh.Close()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			streams = append(streams, s)
		}
		return &workload{tr: cohort.TraceFromStreams("dinero", streams...)}, nil
	}
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		// ReadAt leaves the offset at 0, and the binary decoder sizes the
		// file itself, reading it through a bounded window.
		var magic [4]byte
		if n, _ := f.ReadAt(magic[:], 0); n == len(magic) && string(magic[:]) == "CTRB" {
			dec, err := cohort.DecodeBinaryTrace(f)
			if err != nil {
				f.Close()
				return nil, err
			}
			return &workload{tr: dec.Trace(), dec: dec, file: f}, nil
		}
		defer f.Close()
		tr, err := cohort.ParseTrace(f)
		if err != nil {
			return nil, err
		}
		return &workload{tr: tr}, nil
	}
	return &workload{tr: profiles[0].Scaled(scale).Generate(cores, 64, seed)}, nil
}

// parseTimers parses -timers for n cores; without it every core gets a
// moderate default of 100.
func parseTimers(s string, n int) ([]cohort.Timer, error) {
	if s == "" {
		out := make([]cohort.Timer, n)
		for i := range out {
			out[i] = 100
		}
		return out, nil
	}
	return cliutil.ParseTimers(s, n)
}

// parseMask parses -crit, one 0/1 criticality flag per core; without it
// every core is critical.
func parseMask(s string, n int) ([]bool, error) {
	out := make([]bool, n)
	if s == "" {
		for i := range out {
			out[i] = true
		}
		return out, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, cliutil.Usagef("-crit has %d values for %d cores", len(parts), n)
	}
	for i, p := range parts {
		switch strings.TrimSpace(p) {
		case "1":
			out[i] = true
		case "0":
			out[i] = false
		default:
			return nil, cliutil.Usagef("-crit: bad criticality flag %q", p)
		}
	}
	return out, nil
}

// modeSwitch is one -switch entry: a switch to mode at cycle at.
type modeSwitch struct {
	at   int64
	mode int
}

// parseSwitches parses -switch, comma-separated cycle:mode entries. The
// System checks the cycles and modes when it schedules them.
func parseSwitches(s string) ([]modeSwitch, error) {
	if s == "" {
		return nil, nil
	}
	var out []modeSwitch
	for _, part := range strings.Split(s, ",") {
		cm := strings.SplitN(part, ":", 2)
		if len(cm) != 2 {
			return nil, cliutil.Usagef("bad -switch entry %q (want cycle:mode)", part)
		}
		cyc, err1 := strconv.ParseInt(cm[0], 10, 64)
		mode, err2 := strconv.Atoi(cm[1])
		if err1 != nil || err2 != nil {
			return nil, cliutil.Usagef("bad -switch entry %q", part)
		}
		out = append(out, modeSwitch{at: cyc, mode: mode})
	}
	return out, nil
}
