package model

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"cohort/internal/config"
	"cohort/internal/core"
	"cohort/internal/trace"
)

// A Script is the model checker's unit of exploration and its counterexample
// format: a sequence of windows, each a burst of commands (memory accesses
// and mode switches) injected into the real simulator at statically computed
// cycles. Windows are separated by a stride wide enough for all in-flight
// protocol activity to quiesce, so the state snapshot taken between windows
// is a sound point for visited-state pruning; commands *within* a window
// race each other at small offsets, which is where the interesting
// interleavings (mid-flight mode switches, timer-aligned requests) live.
//
// Scripts are deterministic: the same script on the same configuration
// replays the same simulation, cycle for cycle. A violation's script is
// therefore a complete, replayable counterexample.

// Command is one injected event.
type Command struct {
	// Switch selects the command type: a mode switch to Mode, or an access
	// by Core to the Line-th configured line (Write = store).
	Switch bool
	Core   int
	Line   int
	Write  bool
	Mode   int
	// Offset is the command's start delay in cycles: after the window's
	// start for the first command, after the previous command's start
	// otherwise.
	Offset int64
}

// Window is one burst of commands starting Gap cycles after the previous
// window's static quiescent boundary.
type Window struct {
	Gap  int64
	Cmds []Command
}

// Script is a full event program. Stride is the per-window quiescence
// allowance used to compute the static schedule; replays verify the
// simulation actually quiesced within it.
type Script struct {
	Stride  int64
	Windows []Window
}

// clone returns a deep copy.
func (s *Script) clone() *Script {
	out := &Script{Stride: s.Stride, Windows: make([]Window, len(s.Windows))}
	for i, w := range s.Windows {
		out.Windows[i] = Window{Gap: w.Gap, Cmds: append([]Command(nil), w.Cmds...)}
	}
	return out
}

// extend returns a copy of s with one more window appended.
func (s *Script) extend(w Window) *Script {
	out := s.clone()
	out.Windows = append(out.Windows, Window{Gap: w.Gap, Cmds: append([]Command(nil), w.Cmds...)})
	return out
}

// schedule is the static realization of a script: absolute issue targets for
// every access, absolute mode-switch cycles, and the quiescent boundary
// after the last window.
type schedule struct {
	accesses []schedAccess
	switches []schedSwitch
	boundary int64
}

type schedAccess struct {
	core  int
	line  int
	write bool
	at    int64
}

type schedSwitch struct {
	mode int
	at   int64
}

// computeSchedule lays the script out on the cycle axis. Window i starts at
// boundary(i−1) + Gap; its commands start at cumulative offsets from there;
// boundary(i) = boundary(i−1) + Gap + Stride. It rejects scripts whose
// windows issue two accesses on the same core (the second would stall in the
// MSHR and drift off the static schedule, making state pruning unsound), a
// gap or offset outside [0, Stride), and a schedule that ends past
// core.Run's cycle budget, which would spend the budget on idle time and
// fake a livelock.
func computeSchedule(s *Script) (*schedule, error) {
	limit := core.CycleBudget(0)
	if s.Stride < 1 || s.Stride > limit {
		return nil, fmt.Errorf("model: script stride %d outside [1, %d]", s.Stride, limit)
	}
	sched := &schedule{}
	boundary := int64(0)
	for wi, w := range s.Windows {
		if w.Gap < 0 || w.Gap >= s.Stride {
			return nil, fmt.Errorf("model: window %d gap %d outside [0, %d), the stride", wi, w.Gap, s.Stride)
		}
		start := boundary + w.Gap
		at := start
		seen := map[int]bool{}
		for ci, cmd := range w.Cmds {
			if cmd.Offset < 0 || cmd.Offset >= s.Stride {
				return nil, fmt.Errorf("model: window %d command %d offset %d outside [0, %d), the stride", wi, ci, cmd.Offset, s.Stride)
			}
			if at += cmd.Offset; at >= start+s.Stride {
				return nil, fmt.Errorf("model: window %d offsets exceed the stride %d", wi, s.Stride)
			}
			if cmd.Switch {
				sched.switches = append(sched.switches, schedSwitch{mode: cmd.Mode, at: at})
				continue
			}
			if seen[cmd.Core] {
				return nil, fmt.Errorf("model: window %d issues core %d twice", wi, cmd.Core)
			}
			seen[cmd.Core] = true
			sched.accesses = append(sched.accesses, schedAccess{core: cmd.Core, line: cmd.Line, write: cmd.Write, at: at})
		}
		boundary = start + s.Stride
	}
	if limit = core.CycleBudget(int64(len(sched.accesses))); boundary > limit {
		return nil, fmt.Errorf("model: schedule ends at cycle %d, past the run's cycle budget %d", boundary, limit)
	}
	sched.boundary = boundary
	return sched, nil
}

// buildTrace converts a schedule into the simulator's per-core access
// streams. An access's trace gap encodes its absolute target: the simulator
// issues access j of a core at issue(j−1) + 1 + gap, and because windows
// quiesce before the next begins (and a window never issues a core twice),
// issue(j−1) lands exactly on its own target — so the static schedule and
// the simulated issue cycles coincide.
func buildTrace(sys *config.System, lines []uint64, sched *schedule) (*trace.Trace, error) {
	perCore := make([][]schedAccess, sys.N())
	for _, a := range sched.accesses {
		if a.core < 0 || a.core >= sys.N() {
			return nil, fmt.Errorf("model: access core %d out of range", a.core)
		}
		if a.line < 0 || a.line >= len(lines) {
			return nil, fmt.Errorf("model: access line index %d out of range", a.line)
		}
		perCore[a.core] = append(perCore[a.core], a)
	}
	streams := make([]trace.Stream, sys.N())
	for c := range perCore {
		as := perCore[c]
		sort.SliceStable(as, func(i, j int) bool { return as[i].at < as[j].at })
		prev := int64(-1) // so the first gap is the absolute target
		for _, a := range as {
			gap := a.at - prev - 1
			if gap < 0 {
				return nil, fmt.Errorf("model: core %d accesses %d and %d collide", c, prev, a.at)
			}
			kind := trace.Read
			if a.write {
				kind = trace.Write
			}
			streams[c] = append(streams[c], trace.Access{Addr: lines[a.line], Kind: kind, Gap: gap})
			prev = a.at
		}
	}
	return &trace.Trace{Name: "model", Streams: streams}, nil
}

// --- text codec -----------------------------------------------------------

// WriteScript renders a script (with the platform it runs on) in the
// counterexample text format cohort-model -replay reads back.
func WriteScript(w io.Writer, sys *config.System, lines []uint64, s *Script) error {
	cfgJSON, err := sys.MarshalJSON()
	if err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("# cohort-model counterexample v1\n")
	fmt.Fprintf(&b, "config %s\n", cfgJSON)
	strs := make([]string, len(lines))
	for i, l := range lines {
		strs[i] = fmt.Sprintf("%#x", l)
	}
	fmt.Fprintf(&b, "lines %s\n", strings.Join(strs, ","))
	fmt.Fprintf(&b, "stride %d\n", s.Stride)
	for _, win := range s.Windows {
		fmt.Fprintf(&b, "window gap=%d\n", win.Gap)
		for _, cmd := range win.Cmds {
			if cmd.Switch {
				fmt.Fprintf(&b, "  switch mode=%d off=%d\n", cmd.Mode, cmd.Offset)
			} else {
				kind := "r"
				if cmd.Write {
					kind = "w"
				}
				fmt.Fprintf(&b, "  access core=%d line=%d kind=%s off=%d\n", cmd.Core, cmd.Line, kind, cmd.Offset)
			}
		}
	}
	_, err = io.WriteString(w, b.String())
	return err
}

// ParseScript reads the counterexample text format back into a platform
// configuration, a line set, and a script.
func ParseScript(r io.Reader) (*config.System, []uint64, *Script, error) {
	var (
		sys   *config.System
		lines []uint64
		s     = &Script{}
	)
	fail := func(lineNo int, format string, args ...any) error {
		return fmt.Errorf("model: script line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Text()
		text := strings.TrimSpace(raw)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(text, "config "):
			var err error
			sys, err = config.ParseJSON([]byte(strings.TrimPrefix(text, "config ")))
			if err != nil {
				return nil, nil, nil, fail(lineNo, "%v", err)
			}
		case strings.HasPrefix(text, "lines "):
			for _, part := range strings.Split(strings.TrimPrefix(text, "lines "), ",") {
				v, err := strconv.ParseUint(strings.TrimSpace(part), 0, 64)
				if err != nil {
					return nil, nil, nil, fail(lineNo, "bad line address %q", part)
				}
				lines = append(lines, v)
			}
		case strings.HasPrefix(text, "stride "):
			v, err := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(text, "stride ")), 10, 64)
			if err != nil {
				return nil, nil, nil, fail(lineNo, "bad stride")
			}
			s.Stride = v
		case strings.HasPrefix(text, "window "):
			fields, err := parseFields(strings.TrimPrefix(text, "window "))
			if err != nil {
				return nil, nil, nil, fail(lineNo, "%v", err)
			}
			s.Windows = append(s.Windows, Window{Gap: fields["gap"]})
		case strings.HasPrefix(text, "access "), strings.HasPrefix(text, "switch "):
			if len(s.Windows) == 0 {
				return nil, nil, nil, fail(lineNo, "command before the first window")
			}
			win := &s.Windows[len(s.Windows)-1]
			if strings.HasPrefix(text, "switch ") {
				fields, err := parseFields(strings.TrimPrefix(text, "switch "))
				if err != nil {
					return nil, nil, nil, fail(lineNo, "%v", err)
				}
				win.Cmds = append(win.Cmds, Command{Switch: true, Mode: int(fields["mode"]), Offset: fields["off"]})
				continue
			}
			rest := strings.TrimPrefix(text, "access ")
			write := false
			parts := strings.Fields(rest)
			kept := parts[:0]
			for _, p := range parts {
				if strings.HasPrefix(p, "kind=") {
					switch strings.TrimPrefix(p, "kind=") {
					case "r":
					case "w":
						write = true
					default:
						return nil, nil, nil, fail(lineNo, "bad access kind %q", p)
					}
					continue
				}
				kept = append(kept, p)
			}
			fields, err := parseFields(strings.Join(kept, " "))
			if err != nil {
				return nil, nil, nil, fail(lineNo, "%v", err)
			}
			win.Cmds = append(win.Cmds, Command{
				Core: int(fields["core"]), Line: int(fields["line"]),
				Write: write, Offset: fields["off"],
			})
		default:
			return nil, nil, nil, fail(lineNo, "unrecognized directive %q", text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, nil, err
	}
	if sys == nil {
		return nil, nil, nil, fmt.Errorf("model: script has no config line")
	}
	if len(lines) == 0 {
		return nil, nil, nil, fmt.Errorf("model: script has no lines line")
	}
	return sys, lines, s, nil
}

// parseFields parses "k=v k=v" into int64 values.
func parseFields(s string) (map[string]int64, error) {
	out := map[string]int64{}
	for _, part := range strings.Fields(s) {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad field %q (want key=value)", part)
		}
		v, err := strconv.ParseInt(kv[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in %q", part)
		}
		out[kv[0]] = v
	}
	return out, nil
}
