// Package vcd writes IEEE-1364 Value Change Dump files — the waveform
// format every EDA viewer (GTKWave, Surfer, …) reads — and provides a
// Recorder that turns the simulator's event stream into a wave view of the
// platform: bus activity, per-core outstanding misses, and the operating
// mode. Attach it with System.SetTracer and open the dump next to the
// paper's figures to watch timers holding lines and mode switches
// re-programming the platform at run time.
package vcd

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"sort"

	"cohort/internal/config"
	"cohort/internal/core"
)

// Signal is one declared VCD variable.
type Signal struct {
	id    string
	name  string
	width int
	last  uint64
	dirty bool // true until the first value is emitted
}

// Writer emits a VCD file. Declare all signals with AddSignal, then emit
// changes in nondecreasing time order and Close. The first failed Change
// sticks: every later Change and Close returns it.
type Writer struct {
	w         *bufio.Writer
	signals   []*Signal
	headerOut bool
	time      int64
	timeOut   bool
	err       error
}

// NewWriter wraps w. The timescale is fixed at 1ns (one simulated cycle).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), time: -1}
}

// AddSignal declares a wire of the given bit width (1..64) before the first
// Change call.
func (v *Writer) AddSignal(name string, width int) (*Signal, error) {
	if v.headerOut {
		return nil, fmt.Errorf("vcd: AddSignal(%q) after first change", name)
	}
	if width < 1 || width > 64 {
		return nil, fmt.Errorf("vcd: signal %q width %d out of range [1,64]", name, width)
	}
	// Identifier: printable ASCII starting at '!' (33), base-94 encoded.
	n := len(v.signals)
	id := ""
	for {
		id = string(rune(33+n%94)) + id
		n = n/94 - 1
		if n < 0 {
			break
		}
	}
	s := &Signal{id: id, name: name, width: width, dirty: true}
	v.signals = append(v.signals, s)
	return s, nil
}

// header writes the declaration section once.
func (v *Writer) header() {
	if v.headerOut || v.err != nil {
		return
	}
	v.headerOut = true
	fmt.Fprintln(v.w, "$timescale 1ns $end")
	fmt.Fprintln(v.w, "$scope module cohort $end")
	for _, s := range v.signals {
		fmt.Fprintf(v.w, "$var wire %d %s %s $end\n", s.width, s.id, s.name)
	}
	fmt.Fprintln(v.w, "$upscope $end")
	fmt.Fprintln(v.w, "$enddefinitions $end")
}

// Change records signal = value at time t. Times must not decrease, and
// the value must fit the signal's width.
func (v *Writer) Change(t int64, s *Signal, value uint64) error {
	if v.err != nil {
		return v.err
	}
	v.header()
	if t < v.time {
		v.err = fmt.Errorf("vcd: time moved backwards: %d < %d", t, v.time)
		return v.err
	}
	if bits.Len64(value) > s.width {
		v.err = fmt.Errorf("vcd: value %d at time %d is wider than the %d-bit signal %q", value, t, s.width, s.name)
		return v.err
	}
	if !s.dirty && s.last == value {
		return nil // no change
	}
	if t != v.time || !v.timeOut {
		fmt.Fprintf(v.w, "#%d\n", t)
		v.time = t
		v.timeOut = true
	}
	if s.width == 1 {
		fmt.Fprintf(v.w, "%d%s\n", value&1, s.id)
	} else {
		fmt.Fprintf(v.w, "b%b %s\n", value, s.id)
	}
	s.last = value
	s.dirty = false
	return nil
}

// Close flushes the dump.
func (v *Writer) Close() error {
	if v.err != nil {
		return v.err
	}
	v.header()
	return v.w.Flush()
}

// Bus signal encoding in the Recorder's dump.
const (
	BusIdle      = 0
	BusBroadcast = 1
	BusData      = 2
)

// event is a deferred signal change.
type event struct {
	cycle int64
	fn    func()
}

// Recorder converts the simulator's trace events into VCD signals:
//
//	bus        [2]  idle / broadcast / data
//	mode       [4]  current operating mode (wide enough for config.MaxLevels)
//	core<i>_miss [1] outstanding miss per core
//	core<i>_inv  [1] pulses on invalidation
type Recorder struct {
	vw      *Writer
	bus     *Signal
	mode    *Signal
	miss    []*Signal
	inv     []*Signal
	pending []event // deferred future changes (bus release, pulse clears)
}

// NewRecorder builds a recorder for nCores cores writing to w.
func NewRecorder(w io.Writer, nCores int) (*Recorder, error) {
	vw := NewWriter(w)
	r := &Recorder{vw: vw}
	var err error
	if r.bus, err = vw.AddSignal("bus", 2); err != nil {
		return nil, err
	}
	if r.mode, err = vw.AddSignal("mode", bits.Len(config.MaxLevels)); err != nil {
		return nil, err
	}
	for i := 0; i < nCores; i++ {
		m, err := vw.AddSignal(fmt.Sprintf("core%d_miss", i), 1)
		if err != nil {
			return nil, err
		}
		r.miss = append(r.miss, m)
		iv, err := vw.AddSignal(fmt.Sprintf("core%d_inv", i), 1)
		if err != nil {
			return nil, err
		}
		r.inv = append(r.inv, iv)
	}
	return r, nil
}

// flushPending applies deferred changes with timestamps ≤ t.
func (r *Recorder) flushPending(t int64) {
	sort.SliceStable(r.pending, func(i, j int) bool { return r.pending[i].cycle < r.pending[j].cycle })
	kept := r.pending[:0]
	for _, e := range r.pending {
		if e.cycle <= t {
			e.fn()
		} else {
			kept = append(kept, e)
		}
	}
	r.pending = kept
}

// defer_ queues a change for a future cycle.
func (r *Recorder) defer_(cycle int64, fn func()) {
	r.pending = append(r.pending, event{cycle: cycle, fn: fn})
}

// Trace consumes one simulator event; Recorder implements core.Tracer.
func (r *Recorder) Trace(ev core.TraceEvent) {
	cycle, until := ev.Cycle, ev.Until
	r.flushPending(cycle)
	switch ev.Kind {
	case core.EvBroadcast:
		r.vw.Change(cycle, r.bus, BusBroadcast)
		r.defer_(until, func() { r.vw.Change(until, r.bus, BusIdle) })
	case core.EvData:
		r.vw.Change(cycle, r.bus, BusData)
		r.defer_(until, func() { r.vw.Change(until, r.bus, BusIdle) })
	case core.EvMissStart:
		if ev.Core >= 0 && ev.Core < len(r.miss) {
			r.vw.Change(cycle, r.miss[ev.Core], 1)
		}
	case core.EvMissEnd:
		if ev.Core >= 0 && ev.Core < len(r.miss) {
			r.vw.Change(cycle, r.miss[ev.Core], 0)
		}
	case core.EvInvalidate:
		// One-cycle pulse.
		if ev.Core >= 0 && ev.Core < len(r.inv) {
			r.vw.Change(cycle, r.inv[ev.Core], 1)
			r.defer_(cycle+1, func() { r.vw.Change(cycle+1, r.inv[ev.Core], 0) })
		}
	case core.EvModeSwitch:
		r.vw.Change(cycle, r.mode, ev.Line)
	}
}

// Close flushes deferred changes and the underlying writer.
func (r *Recorder) Close() error {
	r.flushPending(1 << 62)
	return r.vw.Close()
}
